"""The traced run: wrap each layer's public entry points at run time.

``Tracer.install`` replaces the layer functions listed in ``LAYER_ENTRY_POINTS``
on their classes with timing wrappers, for the coordinator process only;
``Tracer.remove`` puts the originals back.  Time is accounted *exclusive*:
a wrapped call's seconds leave out the wrapped calls it makes itself (the
in-process transport's exchange runs GI2 matching, for instance, and that
time is booked to GI2 only).  Whatever the replay spends outside every
wrapped call is the cluster's own time, so on an in-process workload the
layer seconds and ``cluster.self_s`` add up to the replay.

Work that runs in endpoint processes (GI2 on the multiprocess workers,
dedup on a merger process) is out of reach of these wrappers; its counts
come from the program's own profiling counters instead.

Channel sends and receives are counted (messages and bytes) wherever they
happen, but their seconds are booked to ``fabric.*`` only on the data
plane: under a checkpoint, a recovery or an adjustment round they stay
with that layer, whose cost they are.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from multiprocessing import connection
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

from repro.adjustment import GlobalAdjuster, LocalLoadAdjuster
from repro.indexes.gi2 import GI2Index
from repro.indexes.gridt import GridTIndex
from repro.partitioning import HybridPartitioner
from repro.runtime import CheckpointStore, Cluster
from repro.runtime.fabric import OutboxChannel, PipeChannel
from repro.runtime.merge import FabricMerge, InProcessMerge
from repro.runtime.transport import FabricTransport, InProcessTransport

__all__ = ["LAYER_ENTRY_POINTS", "Mark", "Tracer"]

#: (owner, attribute, layer) for every wrapped entry point.
LAYER_ENTRY_POINTS: Tuple[Tuple[type, str, str], ...] = (
    (HybridPartitioner, "partition", "partitioning.partition"),
    (GridTIndex, "insertion_plan_apply", "gridt.update"),
    (GridTIndex, "posting_assignments", "gridt.update"),
    (GridTIndex, "apply_deletion_pairs", "gridt.update"),
    (GI2Index, "match_batch", "gi2.match"),
    (GI2Index, "insert", "gi2.insert"),
    (GI2Index, "insert_pairs", "gi2.insert"),
    (GI2Index, "add_pairs", "gi2.insert"),
    (GI2Index, "delete", "gi2.delete"),
    (GI2Index, "remove_pairs", "gi2.delete"),
    (GI2Index, "remove_queries", "gi2.delete"),
    (InProcessTransport, "exchange", "transport.exchange"),
    (FabricTransport, "exchange", "transport.exchange"),
    (PipeChannel, "send", "fabric.send"),
    (OutboxChannel, "send", "fabric.send"),
    (PipeChannel, "recv", "fabric.recv"),
    (OutboxChannel, "recv", "fabric.recv"),
    (InProcessMerge, "deliver", "merger.deliver"),
    (FabricMerge, "deliver", "merger.deliver"),
    (LocalLoadAdjuster, "adjust", "adjust.local"),
    (GlobalAdjuster, "adjust", "adjust.global"),
    (InProcessTransport, "snapshot_assignments", "checkpoint"),
    (FabricTransport, "snapshot_assignments", "checkpoint"),
    (Cluster, "recover_worker", "recovery"),
)


#: Layers whose channel traffic is booked to themselves, not to ``fabric.*``:
#: ``fabric.*`` seconds cover the data plane only.
CONTROL_LAYERS = frozenset({"checkpoint", "recovery", "adjust.local", "adjust.global"})


class Tracer:
    """Exclusive wall-clock seconds and call counts per layer."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = Counter()
        self.calls: Dict[str, int] = Counter()
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Snapshots handed to the checkpoint store, sized after the replay.
        self.snapshots: List[Any] = []
        self._stack: List[float] = []
        self._layers: List[str] = []
        self._patches: List[Tuple[type, str, Any]] = []

    # -- wrappers ---------------------------------------------------------
    def _timed(self, layer: str, original: Callable) -> Callable:
        stack = self._stack
        layers = self._layers
        seconds = self.seconds
        calls = self.calls
        clock = time.perf_counter
        channel = layer.startswith("fabric.")

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if channel:
                calls[layer] += 1
                if not CONTROL_LAYERS.isdisjoint(layers):
                    return original(*args, **kwargs)
            stack.append(0.0)
            layers.append(layer)
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                layers.pop()
                seconds[layer] += elapsed - stack.pop()
                if not channel:
                    calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _patch(self, owner: type, attribute: str, replacement: Callable) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        for owner, attribute, layer in LAYER_ENTRY_POINTS:
            self._patch(owner, attribute, self._timed(layer, owner.__dict__[attribute]))
        record = CheckpointStore.__dict__["record"]
        snapshots = self.snapshots

        def keep_snapshot(store: Any, snapshot: Any, *args: Any, **kwargs: Any) -> Any:
            snapshots.append(snapshot)
            return record(store, snapshot, *args, **kwargs)

        self._patch(CheckpointStore, "record", self._timed("checkpoint", keep_snapshot))
        send_bytes = connection.Connection.__dict__["_send_bytes"]
        recv_bytes = connection.Connection.__dict__["_recv_bytes"]
        tracer = self

        def counted_send(conn: Any, buf: Any) -> None:
            tracer.bytes_sent += len(buf)
            send_bytes(conn, buf)

        def counted_recv(conn: Any, maxsize: Any = None) -> Any:
            buf = recv_bytes(conn, maxsize)
            tracer.bytes_received += buf.getbuffer().nbytes
            return buf

        self._patch(connection.Connection, "_send_bytes", counted_send)
        self._patch(connection.Connection, "_recv_bytes", counted_recv)

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- readings ---------------------------------------------------------
    def mark(self) -> "Mark":
        """A copy of every total, to take differences over one phase."""
        return Mark(
            dict(self.seconds),
            dict(self.calls),
            self.bytes_sent,
            self.bytes_received,
            len(self.snapshots),
        )


class Mark(NamedTuple):
    seconds: Dict[str, float]
    calls: Dict[str, int]
    bytes_sent: int
    bytes_received: int
    snapshots: int

    def since(self, earlier: "Mark") -> "Mark":
        """Totals accrued between ``earlier`` and this mark."""
        return Mark(
            Counter({k: v - earlier.seconds.get(k, 0.0) for k, v in self.seconds.items()}),
            Counter({k: v - earlier.calls.get(k, 0) for k, v in self.calls.items()}),
            self.bytes_sent - earlier.bytes_sent,
            self.bytes_received - earlier.bytes_received,
            self.snapshots - earlier.snapshots,
        )
