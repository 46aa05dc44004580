#!/usr/bin/env python3
"""PS2Stream wall-clock benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload q1-match --seed 1 --seconds 10 --trace 0

A run generates and materializes the workload's stream from ``--seed``,
works out every expected result with the independent oracle, then repeats
whole rounds (partition, start the cluster, register the warm-up queries,
replay, drain, check) until ``--seconds`` have passed, at least three
rounds ran and the workload's minimum of windows was timed.  Before the
second and third rounds it times the stream's generation again; set-up
reports the median of the three.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates plain and traced rounds and prints the per-layer metrics.
Host context goes to the lines before the result; the last line of
standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Rounds every run makes at least (set-up is reported as their median).
MIN_ROUNDS = 3

#: Times a run generates its stream; set-up reports the median.
GENERATIONS = 3


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0-100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def reference_kernel() -> float:
    """Seconds a fixed pure-Python loop takes: host speed, not a metric."""
    started = time.perf_counter()
    total = 0
    table: Dict[int, int] = {}
    for index in range(2_000_000):
        total += (index * 2654435761) % 1000003
        table[index & 4095] = total
    return time.perf_counter() - started


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, "r") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), "r") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> Dict[str, Any]:
    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def prepare(workload: Any, seed: int) -> Tuple[Any, List[Any], Dict[str, int]]:
    """Materialize the stream and work out what every round must deliver."""
    import oracle
    from workloads import build_stream

    stream = build_stream(workload, seed)
    everything = stream.warmup + stream.replay
    expected = oracle.expected_pairs(everything)
    counts = oracle.stream_counts(everything)
    del everything
    # The materialized input stays resident for the whole run; freezing it
    # keeps the collector from rescanning it on the program's time, as it
    # would not if the stream arrived from outside the process.
    gc.collect()
    gc.freeze()
    return stream, expected, counts


def generate_again(workload: Any, seed: int, timings: List[Tuple[float, float]]) -> None:
    """Time one more generation of the stream, until ``GENERATIONS`` are timed.

    One generation takes a few seconds, short enough for the host's speed
    to move it by half, so set-up reports the median of several.  They run
    between rounds, which spreads the timed replays over the run and over
    more of the host's fast and slow spells.  The copy is the same stream
    (the seed fixes it) and is dropped.
    """
    if len(timings) >= GENERATIONS:
        return
    from workloads import build_stream

    copy = build_stream(workload, seed)
    timings.append((copy.generate_s, copy.sample_s))
    del copy
    gc.collect()


def median_timings(timings: List[Tuple[float, float]]) -> Tuple[float, float]:
    """Median generation and median sampling seconds."""
    return (
        statistics.median(g for g, _ in timings),
        statistics.median(s for _, s in timings),
    )


# ----------------------------------------------------------------------
# End-to-end run
# ----------------------------------------------------------------------
def end_to_end(workload: Any, seed: int, seconds: float) -> Dict[str, Any]:
    from replay import current_rss_kb, peak_rss_kb, run_round

    stream, expected, counts = prepare(workload, seed)
    baseline_kb = current_rss_kb()

    rounds = []
    timings = [(stream.generate_s, stream.sample_s)]
    coordinator_kb = 0
    started = time.perf_counter()
    while (
        len(rounds) < MIN_ROUNDS
        or time.perf_counter() - started < seconds
        or sum(len(r.windows) for r in rounds) < workload.min_windows
    ):
        if rounds:
            generate_again(workload, seed, timings)
        rounds.append(run_round(workload, stream, expected, counts))
        if len(rounds) == 1:
            # The high-water mark never falls, so only the first round's
            # rise over the materialized stream is the deployment's.
            coordinator_kb = peak_rss_kb() - baseline_kb
    generate_s, sample_s = median_timings(timings)

    windows = [w for r in rounds for w in r.windows]
    endpoint_kb = statistics.median(r.endpoint_peak_kb for r in rounds)
    metrics = {
        "throughput_tps": metric(
            sum(r.tuples for r in rounds) / sum(r.replay_s for r in rounds), "1/s"
        ),
        "latency_p50_ms": metric(1000.0 * percentile(windows, 50), "ms"),
        "latency_p95_ms": metric(1000.0 * percentile(windows, 95), "ms"),
        "setup_s": metric(
            generate_s + sample_s + statistics.median(r.deploy_s for r in rounds),
            "s",
        ),
        "peak_rss_mb": metric((coordinator_kb + endpoint_kb) / 1024.0, "MB"),
    }
    return summarize(rounds, metrics)


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
LAYER_UNITS = {
    "workload.generate_s": "s",
    "workload.sample_s": "s",
    "partitioning.partition_s": "s",
    "partitioning.calls": "count",
    "cluster.replay_s": "s",
    "cluster.self_s": "s",
    "gridt.update_s": "s",
    "gridt.update_calls": "count",
    "gridt.route_probes": "count",
    "gridt.route_cache_hits": "count",
    "gridt.route_fallbacks": "count",
    "gridt.route_cache_hit_ratio": "ratio",
    "gi2.match_s": "s",
    "gi2.match_calls": "count",
    "gi2.postings_scanned": "count",
    "gi2.candidates": "count",
    "gi2.matches": "count",
    "gi2.candidate_yield": "ratio",
    "gi2.insert_s": "s",
    "gi2.delete_s": "s",
    "gi2.update_calls": "count",
    "transport.exchange_s": "s",
    "transport.exchange_calls": "count",
    "fabric.send_s": "s",
    "fabric.recv_s": "s",
    "fabric.messages": "count",
    "fabric.bytes_sent": "B",
    "fabric.bytes_received": "B",
    "merger.deliver_s": "s",
    "merger.results_in": "count",
    "merger.delivered": "count",
    "merger.duplicates": "count",
    "merger.dedup_yield": "ratio",
    "adjust.local_s": "s",
    "adjust.global_s": "s",
    "adjust.rounds": "count",
    "adjust.migrations": "count",
    "adjust.queries_moved": "count",
    "adjust.bytes_moved": "B",
    "adjust.repartitions": "count",
    "checkpoint.s": "s",
    "checkpoint.count": "count",
    "checkpoint.bytes": "B",
    "recovery.s": "s",
    "recovery.lost_tuples": "count",
    "recovery.updates_replayed": "count",
    "trace.overhead_s": "s",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_values(traced: Any, snapshots: List[Any]) -> Dict[str, float]:
    """Every per-layer value of one traced round (generation and overhead excepted)."""
    import pickle

    before, after = traced.trace_marks
    phase = after.since(before)
    sec, calls = phase.seconds, phase.calls
    profile = traced.profile
    routers = profile.routers if profile is not None else ()
    matchers = profile.matchers if profile is not None else ()
    dedups = profile.mergers if profile is not None else ()
    events = traced.report.recovery.events if traced.report.recovery is not None else ()
    probes = sum(r.probes for r in routers)
    hits = sum(r.cache_hits for r in routers)
    candidates = sum(m.candidates for m in matchers)
    matches = sum(m.matches for m in matchers)
    results_in = sum(d.lookups for d in dedups)
    delivered = traced.report.matches_delivered
    # Local rounds migrate through the cluster (Cluster.migrations); a
    # global repartition's finalize ships the old plan's queries itself.
    rounds = traced.adjusters.global_.history if traced.adjusters.global_ is not None else []
    finalized = [r for r in rounds if r.finalized and r.queries_migrated]
    repartitions = sum(1 for r in rounds if r.repartitioned and not r.finalized)
    return {
        "partitioning.partition_s": traced.partition_s + sec.get("partitioning.partition", 0.0),
        "partitioning.calls": 1 + calls.get("partitioning.partition", 0),
        "cluster.replay_s": traced.replay_s,
        "cluster.self_s": traced.replay_s - sum(sec.values()),
        "gridt.update_s": sec.get("gridt.update", 0.0),
        "gridt.update_calls": calls.get("gridt.update", 0),
        "gridt.route_probes": probes,
        "gridt.route_cache_hits": hits,
        "gridt.route_fallbacks": sum(r.fallback_routes for r in routers),
        "gridt.route_cache_hit_ratio": _ratio(hits, probes),
        "gi2.match_s": sec.get("gi2.match", 0.0),
        "gi2.match_calls": calls.get("gi2.match", 0),
        "gi2.postings_scanned": sum(m.postings_scanned for m in matchers),
        "gi2.candidates": candidates,
        "gi2.matches": matches,
        "gi2.candidate_yield": _ratio(matches, candidates),
        "gi2.insert_s": sec.get("gi2.insert", 0.0),
        "gi2.delete_s": sec.get("gi2.delete", 0.0),
        "gi2.update_calls": calls.get("gi2.insert", 0) + calls.get("gi2.delete", 0),
        "transport.exchange_s": sec.get("transport.exchange", 0.0),
        "transport.exchange_calls": calls.get("transport.exchange", 0),
        "fabric.send_s": sec.get("fabric.send", 0.0),
        "fabric.recv_s": sec.get("fabric.recv", 0.0),
        "fabric.messages": calls.get("fabric.send", 0),
        "fabric.bytes_sent": phase.bytes_sent,
        "fabric.bytes_received": phase.bytes_received,
        "merger.deliver_s": sec.get("merger.deliver", 0.0),
        "merger.results_in": results_in,
        "merger.delivered": delivered,
        "merger.duplicates": sum(d.duplicates for d in dedups),
        "merger.dedup_yield": _ratio(delivered, results_in),
        "adjust.local_s": sec.get("adjust.local", 0.0),
        "adjust.global_s": sec.get("adjust.global", 0.0),
        "adjust.rounds": calls.get("adjust.local", 0),
        "adjust.migrations": len(traced.migrations) + len(finalized),
        "adjust.queries_moved": sum(m.queries_shipped for m in traced.migrations)
        + sum(r.queries_migrated for r in finalized),
        "adjust.bytes_moved": sum(m.bytes_moved for m in traced.migrations)
        + sum(r.bytes_migrated for r in finalized),
        "adjust.repartitions": repartitions,
        "checkpoint.s": sec.get("checkpoint", 0.0),
        "checkpoint.count": phase.snapshots,
        "checkpoint.bytes": sum(len(pickle.dumps(s)) for s in snapshots),
        "recovery.s": sec.get("recovery", 0.0),
        "recovery.lost_tuples": sum(e.lost_tuples for e in events),
        "recovery.updates_replayed": sum(e.updates_replayed for e in events),
    }


def traced(workload: Any, seed: int, seconds: float) -> Dict[str, Any]:
    from replay import run_round
    from tracing import Tracer

    stream, expected, counts = prepare(workload, seed)

    plain: List[Any] = []
    values: List[Dict[str, float]] = []
    rounds: List[Any] = []
    timings = [(stream.generate_s, stream.sample_s)]
    started = time.perf_counter()
    while not values or time.perf_counter() - started < seconds:
        if values:
            generate_again(workload, seed, timings)
        # Plain and traced rounds take turns going first, so that neither
        # side of the overhead always gets the first round of the run.
        if len(values) % 2 == 0:
            plain.append(run_round(workload, stream, expected, counts))
        tracer = Tracer()
        tracer.install()
        try:
            round_ = run_round(workload, stream, expected, counts, profiling=True, tracer=tracer)
        finally:
            tracer.remove()
        before, after = round_.trace_marks
        snapshots = tracer.snapshots[before.snapshots : after.snapshots]
        values.append(layer_values(round_, snapshots))
        if len(values) % 2 == 0:
            plain.append(run_round(workload, stream, expected, counts))
        rounds += [plain[-1], round_]
    # Every value comes from one traced round, the one with the median
    # replay, so that the layer seconds add up within the round.
    median_round = sorted(values, key=lambda v: v["cluster.replay_s"])[(len(values) - 1) // 2]
    median_round["workload.generate_s"], median_round["workload.sample_s"] = median_timings(timings)
    metrics = {
        name: metric(median_round[name], unit)
        for name, unit in LAYER_UNITS.items()
        if name != "trace.overhead_s"
    }
    overhead = median_round["cluster.replay_s"] - statistics.median_low(r.replay_s for r in plain)
    metrics["trace.overhead_s"] = metric(overhead, "s")
    return summarize(rounds, metrics)


# ----------------------------------------------------------------------
def summarize(rounds: List[Any], metrics: Dict[str, Any]) -> Dict[str, Any]:
    """The result object: operations over every round, plus the metrics.

    Every round replays the same stream, so every round must account the
    same deliveries; anything else is reported as incorrect.
    """
    problems = [p for r in rounds for p in r.problems]
    if len({r.verdict for r in rounds}) != 1:
        problems.append("rounds disagree: %s" % sorted({str(r.verdict) for r in rounds}))
    for problem in problems:
        print("# problem: %s" % problem)
    for number, r in enumerate(rounds, 1):
        print(
            "# round %d: set-up %.3f s (partition %.3f, start %.3f, warm-up %.3f), "
            "replay %.3f s, %d windows"
            % (number, r.deploy_s, r.partition_s, r.start_s, r.warmup_s, r.replay_s, len(r.windows))
        )
    first = rounds[0].verdict
    print(
        "# per round: expected %d, delivered %d, missing %d, spurious %d, duplicates %d; "
        "%d rounds" % (first.expected, first.delivered, first.missing, first.spurious,
                       first.duplicates, len(rounds))
    )
    return {
        "correct": not problems,
        "attempted": sum(r.verdict.attempted for r in rounds),
        "failed": sum(r.verdict.failed for r in rounds),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print("perfbench: cannot import the program from %s: %s" % (ROOT, exc), file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(
            "perfbench: unknown workload %r (choose from %s)"
            % (args.workload, ", ".join(WORKLOADS)),
            file=sys.stderr,
        )
        return 2
    import multiprocessing

    # The program's fleets take the default start method.  Endpoint
    # processes then start fresh rather than as forks of a process holding
    # the materialized stream, so their resident peaks are their own.
    multiprocessing.set_start_method("spawn", force=True)
    workload = WORKLOADS[args.workload]
    print("# host: %s" % json.dumps(fingerprint(), sort_keys=True))
    print("# reference_kernel_s before: %.4f" % reference_kernel())
    run = traced if args.trace else end_to_end
    result = None
    try:
        result = run(workload, args.seed, args.seconds)
    except Exception:
        # Printed and dropped here, so that its frames let go of the last
        # cluster before the helper processes are stopped.
        traceback.print_exc()
    finally:
        stop_children()
    if result is None:
        return 1
    print("# reference_kernel_s after: %.4f" % reference_kernel())
    print(json.dumps(result, sort_keys=True))
    return 0


def stop_children() -> None:
    """Stop and reap every process this run started.

    Each round closes its cluster, which joins the endpoint processes; any
    that outlived it are stopped here.  The spawn context's locks also
    start multiprocessing's resource tracker, a helper process that would
    otherwise only notice this process's exit after it: it is stopped and
    waited for too.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    # Closed clusters' locks unregister from the tracker when collected.
    gc.collect()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
