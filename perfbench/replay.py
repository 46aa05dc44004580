"""One round: deploy a fresh cluster, replay the stream, check every result.

A round starts from an already materialized :class:`~workloads.Stream`.
It partitions the sample, starts the cluster (spawning endpoint processes
on the multiprocess backends), registers the ``mu`` warm-up queries, then
replays the mixed stream closed-loop: the cluster pulls tuples from one
generator in this process and thread, and pulls the first tuple of the
next window only when it is done with the current one (including any
adjustment, checkpoint or recovery at that barrier).  The time between
two such pulls is one window's service time.  The replay ends when every
result has been drained from the subscriber sinks; the drained results
are then checked against the oracle.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Sequence

import oracle
from workloads import WINDOW, Adjusters, Stream, Workload, deploy, partition

__all__ = ["Round", "current_rss_kb", "peak_rss_kb", "run_round"]


def current_rss_kb() -> int:
    """This process's resident size now, in KiB (0 where /proc is absent)."""
    try:
        with open("/proc/self/statm", "r") as handle:
            pages = int(handle.read().split()[1])
    except OSError:
        return 0
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


def peak_rss_kb() -> int:
    """This process's resident high-water mark, in KiB (Linux units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _endpoint_peak_kb() -> int:
    """Sum of the resident high-water marks of this process's live children."""
    total = 0
    for child in multiprocessing.active_children():
        try:
            with open("/proc/%d/status" % child.pid, "r") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
        except (OSError, TypeError):
            continue
    return total


@dataclass
class Round:
    """Measurements and checks of one round."""

    partition_s: float
    start_s: float
    warmup_s: float
    replay_s: float
    #: Service time of every window, in replay order.
    windows: List[float]
    tuples: int
    verdict: oracle.Verdict
    problems: List[str]
    endpoint_peak_kb: int
    report: Any
    profile: Any = None
    #: Tracer totals at the start and at the end of the replay.
    trace_marks: Sequence[Any] = ()
    adjusters: Adjusters = field(default_factory=Adjusters)
    migrations: Sequence[Any] = ()

    @property
    def deploy_s(self) -> float:
        return self.partition_s + self.start_s + self.warmup_s


def run_round(
    workload: Workload,
    stream: Stream,
    expected: Sequence[oracle.Pair],
    counts: dict,
    *,
    profiling: bool = False,
    tracer: Optional[Any] = None,
) -> Round:
    clock = time.perf_counter
    started = clock()
    plan = partition(workload, stream.sample)
    partition_s = clock() - started
    started = clock()
    cluster = deploy(workload, plan, profiling=profiling)
    try:
        start_s = clock() - started
        started = clock()
        cluster.run_batched(stream.warmup, batch_size=WINDOW)
        warmup_s = clock() - started

        adjusters = Adjusters.for_workload(workload)
        marks: List[float] = []

        def paced(items: List[Any]) -> Iterator[Any]:
            for start in range(0, len(items), WINDOW):
                marks.append(clock())
                yield from items[start : start + WINDOW]
            marks.append(clock())

        marks_at: List[Any] = []
        if tracer is not None:
            marks_at.append(tracer.mark())
        started = clock()
        report = cluster.run_batched(
            paced(stream.replay),
            batch_size=WINDOW,
            adjust_every=workload.adjust_every,
            local_adjuster=adjusters.local,
            global_adjuster=adjusters.global_,
        )
        drained = cluster.drain_sinks()
        replay_s = clock() - started
        if tracer is not None:
            marks_at.append(tracer.mark())

        delivered = [
            (result.query_id, result.object_id)
            for results in drained.values()
            for result in results
        ]
        verdict = oracle.compare(expected, delivered)
        lost = report.recovery.events if report.recovery is not None else ()
        problems = oracle.count_problems(report, counts, len(delivered), lost)
        profile = cluster.profile_report() if profiling else None
        endpoint_peak = _endpoint_peak_kb()
        migrations = list(cluster.migrations)
    finally:
        cluster.close()
    return Round(
        partition_s=partition_s,
        start_s=start_s,
        warmup_s=warmup_s,
        replay_s=replay_s,
        windows=[marks[i + 1] - marks[i] for i in range(len(marks) - 1)],
        tuples=len(stream.replay),
        verdict=verdict,
        problems=problems,
        endpoint_peak_kb=endpoint_peak,
        report=report,
        profile=profile,
        trace_marks=marks_at,
        adjusters=adjusters,
        migrations=migrations,
    )
