"""Self-test of the benchmark's oracle.

Run from the root of a checkout with either of::

    python3 perfbench/test_oracle.py
    python3 -m pytest perfbench/test_oracle.py
"""

from __future__ import annotations

import os
import sys
import unittest
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracle  # noqa: E402
from repro.core.geometry import Point, Rect  # noqa: E402
from repro.core.objects import SpatioTextualObject, STSQuery, StreamTuple  # noqa: E402


def query(query_id, expression, min_x, min_y, max_x, max_y):
    return STSQuery.create(expression, Rect(min_x, min_y, max_x, max_y), query_id=query_id)


def obj(object_id, x, y, text):
    return SpatioTextualObject.create(text, Point(x, y), object_id=object_id)


Q1 = query(1, "coffee AND tea", 0, 0, 10, 10)
Q2 = query(2, "rain OR snow", 5, 5, 20, 20)
Q3 = query(3, "coffee", 100, 100, 101, 101)
Q4 = query(4, "snow AND (coffee OR tea)", 0, 0, 50, 50)
Q5 = query(5, "wind", -0.75, -0.75, -0.25, -0.25)

STREAM = [
    StreamTuple.insert(Q1),
    StreamTuple.insert(Q2),
    StreamTuple.insert(Q3),
    StreamTuple.insert(Q5),
    # Inside Q1 with both of its terms; outside Q2.
    StreamTuple.object(obj(10, 1, 1, "coffee tea cake")),
    # Inside Q1 and Q2, but only Q2's expression holds.
    StreamTuple.object(obj(11, 6, 6, "rain coffee")),
    # On Q1's corner (rectangles are closed) and inside Q2.
    StreamTuple.object(obj(12, 10, 10, "tea coffee snow")),
    # On Q1's lower-left corner.
    StreamTuple.object(obj(18, 0, 0, "tea coffee")),
    StreamTuple.delete(Q2),
    # Q2 is gone.
    StreamTuple.object(obj(13, 7, 7, "snow")),
    StreamTuple.object(obj(14, 100.5, 100.5, "coffee")),
    StreamTuple.insert(Q4),
    # Q4's clause {snow, tea} holds; Q1 lacks coffee.
    StreamTuple.object(obj(15, 7, 7, "tea snow")),
    # On Q5's upper edge, at negative coordinates.
    StreamTuple.object(obj(16, -0.5, -0.25, "wind")),
    # Right terms, just outside Q5.
    StreamTuple.object(obj(17, -0.2, -0.5, "wind")),
]

BY_HAND = {(1, 10), (2, 11), (1, 12), (2, 12), (1, 18), (3, 14), (4, 15), (5, 16)}


class OracleTest(unittest.TestCase):
    def test_expected_pairs_equal_the_hand_worked_results(self):
        pairs = oracle.expected_pairs(STREAM)
        self.assertEqual(len(pairs), len(set(pairs)))
        self.assertEqual(set(pairs), BY_HAND)

    def test_exact_delivery_fails_nothing(self):
        verdict = oracle.compare(BY_HAND, sorted(BY_HAND))
        self.assertEqual((verdict.attempted, verdict.failed), (8, 0))

    def test_dropped_added_and_duplicated_results_are_each_reported(self):
        delivered = sorted(BY_HAND - {(3, 14)}) + [(2, 13), (1, 10)]
        verdict = oracle.compare(BY_HAND, delivered)
        self.assertEqual(verdict.missing, 1)
        self.assertEqual(verdict.spurious, 1)
        self.assertEqual(verdict.duplicates, 1)
        self.assertEqual(verdict.failed, 3)
        self.assertEqual(verdict.attempted, 10)

    def test_report_counts_must_match_the_stream(self):
        counts = oracle.stream_counts(STREAM)
        self.assertEqual(counts, {"object": 9, "insert": 5, "delete": 1})
        good = SimpleNamespace(
            objects_processed=9, insertions_processed=5, deletions_processed=1,
            matches_delivered=8,
        )
        self.assertEqual(oracle.count_problems(good, counts, 8), [])
        short = SimpleNamespace(
            objects_processed=8, insertions_processed=5, deletions_processed=1,
            matches_delivered=7,
        )
        self.assertEqual(len(oracle.count_problems(short, counts, 8)), 2)
        lost = [SimpleNamespace(lost_object_ids=(13,), lost_query_ids=())]
        self.assertEqual(oracle.count_problems(short, counts, 7, lost), [])


if __name__ == "__main__":
    unittest.main()
