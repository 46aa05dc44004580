"""An independent oracle for the PS2Stream match semantics (§III-A).

An object ``o`` is a result of a live query ``q`` when ``o``'s location
lies in ``q``'s closed rectangle and at least one DNF clause of ``q`` is a
subset of ``o``'s terms.  The oracle evaluates exactly that on the raw
fields (rectangle bounds, clause sets, object location and terms) while
replaying the stream in order; a query is live from its insertion until
its deletion.  It shares no code with GI2, GridT or the cluster.

To stay cheap it keeps live queries in a coarse grid of ``CELL_DEGREES``
cells, filed under one keyword of each clause, so an object only checks
the queries that share a cell and a term with it; every candidate is then
checked against the full definition.

An operation is one ``(query_id, object_id)`` delivery.  ``compare``
counts the operations attempted (the union of expected and delivered
pairs, plus every extra copy of a delivered pair) and the failed ones
(missing + spurious + duplicate deliveries).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

__all__ = [
    "CELL_DEGREES",
    "Verdict",
    "compare",
    "count_problems",
    "expected_pairs",
    "stream_counts",
]

#: Side of one oracle grid cell, in degrees (Q1 ranges span 1-50 km).
CELL_DEGREES = 0.5

Pair = Tuple[int, int]
#: (cell column, cell row, anchor keyword)
Key = Tuple[int, int, str]


def _cell_span(low: float, high: float) -> range:
    return range(math.floor(low / CELL_DEGREES), math.floor(high / CELL_DEGREES) + 1)


class _LiveQueries:
    """Live queries filed under ``(cell, anchor keyword)``."""

    def __init__(self) -> None:
        self._by_key: Dict[Key, Set[int]] = {}
        #: query id -> (rectangle bounds, clauses, index keys)
        self._queries: Dict[int, Tuple[Tuple[float, ...], Tuple[frozenset, ...], List[Key]]] = {}

    def insert(self, query) -> None:
        region = query.region
        bounds = (region.min_x, region.min_y, region.max_x, region.max_y)
        clauses = tuple(frozenset(clause) for clause in query.expression.clauses)
        anchors = {max(clause) for clause in clauses}
        keys = [
            (cx, cy, anchor)
            for cx in _cell_span(bounds[0], bounds[2])
            for cy in _cell_span(bounds[1], bounds[3])
            for anchor in anchors
        ]
        self.delete(query.query_id)
        for key in keys:
            self._by_key.setdefault(key, set()).add(query.query_id)
        self._queries[query.query_id] = (bounds, clauses, keys)

    def delete(self, query_id: int) -> None:
        entry = self._queries.pop(query_id, None)
        if entry is None:
            return
        for key in entry[2]:
            members = self._by_key[key]
            members.discard(query_id)
            if not members:
                del self._by_key[key]

    def matches(self, obj) -> List[int]:
        x, y = obj.location.x, obj.location.y
        terms = obj.terms
        cx = math.floor(x / CELL_DEGREES)
        cy = math.floor(y / CELL_DEGREES)
        candidates: Set[int] = set()
        by_key = self._by_key
        for term in terms:
            members = by_key.get((cx, cy, term))
            if members:
                candidates |= members
        found = []
        for query_id in candidates:
            (min_x, min_y, max_x, max_y), clauses, _ = self._queries[query_id]
            if min_x <= x <= max_x and min_y <= y <= max_y and any(
                clause <= terms for clause in clauses
            ):
                found.append(query_id)
        return found


def expected_pairs(stream: Iterable) -> List[Pair]:
    """Every ``(query_id, object_id)`` result of the stream, in stream order."""
    live = _LiveQueries()
    pairs: List[Pair] = []
    for item in stream:
        kind = item.kind.value
        payload = item.payload
        if kind == "object":
            object_id = payload.object_id
            pairs.extend((query_id, object_id) for query_id in sorted(live.matches(payload)))
        elif kind == "insert":
            live.insert(payload.query)
        elif kind == "delete":
            live.delete(payload.query.query_id)
        else:
            raise ValueError("unknown tuple kind %r" % kind)
    return pairs


@dataclass(frozen=True)
class Verdict:
    """Delivery accounting of one replay against the oracle."""

    expected: int
    delivered: int
    missing: int
    spurious: int
    duplicates: int

    @property
    def attempted(self) -> int:
        return self.expected + self.spurious + self.duplicates

    @property
    def failed(self) -> int:
        return self.missing + self.spurious + self.duplicates


def compare(expected: Iterable[Pair], delivered: Iterable[Pair]) -> Verdict:
    """Account the delivered pairs (with repeats) against the expected set."""
    want = set(expected)
    copies = Counter(delivered)
    got = set(copies)
    return Verdict(
        expected=len(want),
        delivered=sum(copies.values()),
        missing=len(want - got),
        spurious=len(got - want),
        duplicates=sum(count - 1 for count in copies.values()),
    )


def stream_counts(stream: Iterable) -> Dict[str, int]:
    """Objects, query inserts and query deletes in a stream."""
    counts = Counter(item.kind.value for item in stream)
    return {kind: counts.get(kind, 0) for kind in ("object", "insert", "delete")}


def count_problems(
    report, counts: Dict[str, int], delivered: int, lost: Sequence = ()
) -> List[str]:
    """Properties the run report must have, as a list of violations.

    The report's object, insert and delete counts must equal the
    stream's, and the number of results the mergers say they delivered
    must equal the number the sinks handed over.  A window lost to a
    worker death (``lost``: the recovery events) may be partly applied,
    as the program documents, so there each count may fall short of the
    stream's by at most that window's tuples of its kind.
    """
    lost_objects = sum(len(event.lost_object_ids) for event in lost)
    lost_updates = sum(len(event.lost_query_ids) for event in lost)
    problems = []
    got = {
        "object": report.objects_processed,
        "update": report.insertions_processed + report.deletions_processed,
    }
    want = {"object": counts["object"], "update": counts["insert"] + counts["delete"]}
    slack = {"object": lost_objects, "update": lost_updates}
    for kind in ("object", "update"):
        if not want[kind] - slack[kind] <= got[kind] <= want[kind]:
            problems.append(
                "report counts %d %ss, the stream has %d (%d lost with a window)"
                % (got[kind], kind, want[kind], slack[kind])
            )
    if not lost and (
        report.insertions_processed != counts["insert"]
        or report.deletions_processed != counts["delete"]
    ):
        problems.append(
            "report counts %d inserts and %d deletes, the stream has %d and %d"
            % (
                report.insertions_processed,
                report.deletions_processed,
                counts["insert"],
                counts["delete"],
            )
        )
    if report.matches_delivered != delivered:
        problems.append(
            "mergers report %d deliveries, the sinks handed over %d"
            % (report.matches_delivered, delivered)
        )
    return problems
