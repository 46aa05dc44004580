"""The benchmark's workloads: how each stream is built and deployed.

Every workload uses the ``us`` corpus, the hybrid partitioner, inline
dispatch and windows of ``WINDOW`` tuples.  A stream is generated from a
seed and materialized into two lists before the cluster sees it: the
``mu`` warm-up query insertions (registered during set-up) and the mixed
object/insert/delete stream that is replayed and timed.  The timed part
is trimmed to a whole number of windows so every window has the same
size and every window boundary is a point where the cluster asks for
more input.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.adjustment import GlobalAdjuster, LocalLoadAdjuster, selector_by_name
from repro.core.objects import StreamTuple
from repro.partitioning import HybridPartitioner, PartitionPlan, WorkloadSample
from repro.runtime import (
    Cluster,
    ClusterConfig,
    FaultPlan,
    FaultSpec,
    ProfilingSpec,
    SinkSpec,
)
from repro.workload import QueryGenerator, StreamConfig, WorkloadStream, make_dataset

__all__ = [
    "WINDOW",
    "WORKLOADS",
    "Adjusters",
    "Stream",
    "Workload",
    "build_stream",
    "deploy",
    "partition",
]

#: Tuples per window, for every workload.
WINDOW = 1024

#: The ``us`` corpus model (cluster layout and weights, topics) is one
#: world, as the paper's TWEETS-US is one dataset: ``make_dataset``'s
#: default.  The seed draws the tweets, the queries and the stream from
#: it.  Re-drawing the world per seed moved the expected result count by
#: 44% (quartile spread over eight seeds), against 9% with it fixed.
CORPUS_SEED = 42


@dataclass(frozen=True)
class Workload:
    """One workload: stream shape plus deployment."""

    name: str
    group: str
    mu: int
    #: Objects per query update in the mixed stream.
    objects_per_update: int
    #: Objects in the mixed stream, split evenly over ``phases``.
    objects: int
    #: Objects drawn for the partitioning sample.
    sample_objects: int
    workers: int
    mergers: int
    backend: str = "inprocess"
    merger_backend: str = "inprocess"
    #: Drift phases; the Q3 style map flips ``flip_fraction`` of its
    #: regions before every phase but the first.
    phases: int = 1
    flip_fraction: float = 0.0
    #: Tuples between local + global adjustment rounds (0: none).
    adjust_every: int = 0
    checkpoint_every: int = 0
    #: Kill worker 0 on its N-th ``RouteBatch`` send (0: no fault).
    kill_after_sends: int = 0
    #: Windows a run times at least, so that ten lie beyond the 95th
    #: percentile (fewer where a round is too costly for that).
    min_windows: int = 200
    #: A workload whose known fault makes some deliveries fail replays
    #: this one stream whatever seed it is given, so that its failed
    #: count is the same in every run.
    fixed_seed: Optional[int] = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="q1-match",
            group="Q1",
            mu=20_000,
            objects_per_update=5,
            objects=60_000,
            sample_objects=3_000,
            workers=8,
            mergers=2,
        ),
        Workload(
            name="q3-drift-adjust",
            group="Q3",
            mu=5_000,
            objects_per_update=2,
            objects=32_000,
            sample_objects=3_000,
            workers=8,
            mergers=2,
            phases=4,
            flip_fraction=0.2,
            adjust_every=4 * WINDOW,
            fixed_seed=12,
        ),
        # A reference workload, not in BENCHMARK.json: the gated runs of
        # all four took too much of the run budget, and q1-fabric-recover
        # drives the same fabric deployment.  README.md keeps its figures
        # and the single-process baseline drawn on its stream.
        Workload(
            name="q1-fabric",
            group="Q1",
            mu=5_000,
            objects_per_update=5,
            objects=60_000,
            sample_objects=3_000,
            workers=2,
            mergers=1,
            backend="multiprocess",
            merger_backend="multiprocess",
        ),
        Workload(
            name="q1-fabric-recover",
            group="Q1",
            mu=5_000,
            objects_per_update=5,
            objects=12_000,
            sample_objects=3_000,
            workers=2,
            mergers=1,
            backend="multiprocess",
            merger_backend="multiprocess",
            checkpoint_every=4 * WINDOW,
            kill_after_sends=70,
            min_windows=70,
            fixed_seed=14,
        ),
    )
}


@dataclass
class Stream:
    """A materialized stream plus the partitioning sample drawn beside it."""

    warmup: List[StreamTuple]
    replay: List[StreamTuple]
    sample: WorkloadSample
    generate_s: float
    sample_s: float


def build_stream(workload: Workload, seed: int) -> Stream:
    """Generate and materialize one workload's stream from ``seed``."""
    corpus_seed = CORPUS_SEED
    if workload.fixed_seed is not None:
        seed = corpus_seed = workload.fixed_seed
    clock = time.perf_counter
    started = clock()
    tweets = make_dataset("us", seed=corpus_seed)
    tweets._rng = random.Random(seed)
    queries = QueryGenerator(tweets, seed=seed + 1)
    style_map = queries.style_map() if workload.group == "Q3" else None
    stream = WorkloadStream(
        tweets,
        queries,
        StreamConfig(
            mu=workload.mu,
            objects_per_update=workload.objects_per_update,
            group=workload.group,
        ),
        seed=seed + 2,
        style_map=style_map,
    )
    stream.warmup_queries()
    generate_s = clock() - started
    started = clock()
    sample = stream.partitioning_sample(workload.sample_objects)
    sample_s = clock() - started
    started = clock()
    drift = random.Random(seed + 9)
    per_phase = workload.objects // workload.phases
    items: List[StreamTuple] = []
    for phase in range(workload.phases):
        if phase and style_map is not None:
            style_map.flip(workload.flip_fraction, drift)
        items.extend(stream.tuples(per_phase, include_warmup=phase == 0))
    generate_s += clock() - started
    replay = items[workload.mu :]
    del replay[len(replay) - len(replay) % WINDOW :]
    return Stream(items[: workload.mu], replay, sample, generate_s, sample_s)


def partition(workload: Workload, sample: WorkloadSample) -> PartitionPlan:
    """The initial partition plan for the workload's workers."""
    return HybridPartitioner().partition(sample, workload.workers)


def deploy(workload: Workload, plan: PartitionPlan, *, profiling: bool = False) -> Cluster:
    """Start the workload's cluster on ``plan``."""
    fault_plan = None
    if workload.kill_after_sends:
        fault_plan = FaultPlan(
            (
                FaultSpec(
                    action="kill",
                    role="worker",
                    message_type="RouteBatch",
                    after_sends=workload.kill_after_sends,
                ),
            )
        )
    config = ClusterConfig(
        num_workers=workload.workers,
        num_mergers=workload.mergers,
        backend=workload.backend,
        merger_backend=workload.merger_backend,
        sink=SinkSpec(kind="memory"),
        checkpoint_every=workload.checkpoint_every,
        fault_plan=fault_plan,
        profiling=ProfilingSpec() if profiling else None,
    )
    return Cluster(plan, config)


@dataclass
class Adjusters:
    """The closed-loop adjusters one replay drives (both ``None`` if off)."""

    local: Optional[LocalLoadAdjuster] = None
    global_: Optional[GlobalAdjuster] = None

    @classmethod
    def for_workload(cls, workload: Workload) -> "Adjusters":
        if not workload.adjust_every:
            return cls()
        return cls(LocalLoadAdjuster(selector_by_name("GR")), GlobalAdjuster(HybridPartitioner()))
