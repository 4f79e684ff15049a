"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (``perfbench/workloads.py``):
``join_closure``, ``bulk_closure``, ``session_stream``, ``verdict_corpus``.

Untraced (``--trace 0``): set-up (building the inputs, starting the
service where there is one, one warm-up op) runs ``SETUP_REPEATS`` times
and ``setup_s`` is its median.  The reference result is computed once,
untimed.  Then identical ops run for ``--seconds`` seconds, each after a
full ``gc.collect()`` and each checked against the reference.  The metrics
are the end-to-end ones of ``BENCHMARK.json``, with every time scaled to
reference host speed (see :func:`run_one`); the line before the result
gives the unscaled median op time and the reference task's time.

Traced (``--trace 1``): half the time runs untraced ops, the other half
runs ops with the wrappers of ``perfbench/boundaries.py`` installed.  The
metrics are the per-layer ones: medians over traced ops of each layer's
self time and counters, plus ``trace.overhead_ratio`` (traced over
untraced median op time).  The spans are written once, at the end, as a
Chrome trace to ``.perfbench/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed op is
one that raised or whose output did not match the reference; tracebacks
in the chase service's stderr count as failed ops too.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from tracer import Tracer, chrome_events, self_times, write_chrome_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Host-speed reference: :func:`reference_task` runs right before and
#: right after every op, and time metrics are scaled to the host speed
#: at which it takes this long (its median on the host of README.md).
REFERENCE_MS = 2.5

#: Per-layer span names and the metric their self time feeds.
SELF_TIME_METRICS = {
    "chase.discover": "chase.discover_s",
    "chase.round": "chase.apply_s",
    "backends.sqlite.open": "backends.sqlite.open_s",
    "backends.sqlite.add": "backends.sqlite.add_s",
    "backends.sqlite.lookup": "backends.sqlite.lookup_s",
    "service.session": "service.session_s",
    "service.request": "service.http_s",
    "termination.portfolio": "termination.portfolio_s",
    "termination.certificate": "termination.certificate_s",
    "termination.stratification": "termination.stratification_s",
    "termination.hierarchical": "termination.hierarchical_s",
    "termination.decider": "termination.decider_s",
    "guarded.decide": "guarded.decide_s",
    "sticky.decide": "sticky.decide_s",
    "runtime.gc": "runtime.gc_s",
    "op": "trace.unattributed_s",
}


def _bootstrap() -> None:
    """Import paths for the checkout's sources; no ``CHASE_*`` overrides."""
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "benchmarks").is_dir():
        sys.exit(f"perfbench: no repro sources under {ROOT}; run from a checkout")
    for name in [name for name in os.environ if name.startswith("CHASE_")]:
        del os.environ[name]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(HERE)]


def metric_units() -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def reference_task() -> int:
    """A fixed pure-Python job (no repro code): a small transitive closure.

    Its dict, set and tuple work resembles the interpreter work of the
    workloads, so host-speed swings slow it about as much as an op.
    """
    nodes = 200
    successors = {}
    for i in range(nodes):
        successors.setdefault(i, set()).add((i * 7 + 3) % nodes)
        if i % 3 == 0:
            successors[i].add((i + 1) % nodes)
    closure = {(a, b) for a, targets in successors.items() for b in targets}
    frontier = list(closure)
    while frontier:
        grown = []
        for a, b in frontier:
            for c in successors[b]:
                if (a, c) not in closure:
                    closure.add((a, c))
                    grown.append((a, c))
        frontier = grown
    return len(closure)


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_task()
    return time.perf_counter() - start


def run_one(workload, tracer=None) -> dict:
    """One levelled, timed, checked op.

    ``scale`` turns the op's seconds into seconds at reference host speed:
    :data:`REFERENCE_MS` over the mean of the reference task's times
    right before and right after the op.
    """
    gc.collect()
    before = reference_seconds()
    root = tracer.begin("op") if tracer is not None else None
    raw, start = None, time.perf_counter()
    try:
        raw = workload.op()
    except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
        traceback.print_exc(file=sys.stderr)
    finally:
        wall = time.perf_counter() - start
        if root is not None:
            tracer.end(root)
    record = {"wall": wall, "root": root, "ok": False, "facts": None}
    if tracer is not None:
        record["end"] = len(tracer.spans)
    reference = (before + reference_seconds()) / 2
    record["reference"] = reference
    record["scale"] = REFERENCE_MS / 1000 / reference
    if raw is not None:
        try:
            record["facts"] = workload.inspect(raw)
            record["ok"] = bool(workload.check(record["facts"]))
        except Exception:  # noqa: BLE001 - a result that cannot be read fails
            traceback.print_exc(file=sys.stderr)
    return record


def run_ops(workload, seconds: float, tracer=None) -> list:
    records = []
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        records.append(run_one(workload, tracer))
    return records


def _peak_rss_mb(workload) -> float:
    kb = workload.peak_rss_kb()
    if kb is None:
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024


def end_to_end(records, setups, peak_rss_mb, ok_ratio) -> dict:
    """Every end-to-end metric over the timed untraced ops.

    Times are at reference host speed (each op scaled by its ``scale``).
    """
    ok = [r for r in records if r["ok"]]
    if not ok:
        return {}
    op_s = statistics.median(r["wall"] * r["scale"] for r in ok)
    requests = [
        x * r["scale"] for r in ok for x in (r["facts"]["latencies"] or [r["wall"]])
    ]
    work = statistics.median(r["facts"]["work"] for r in ok)
    return {
        "setup_s": statistics.median(setups),
        "op_p50_ms": op_s * 1000,
        "request_p50_ms": statistics.median(requests) * 1000,
        "throughput_per_s": work / op_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": ok_ratio,
    }


def _server_attribution(server: dict, requests: list) -> dict:
    """Server-side self times and counters per client op.

    ``requests`` holds ``(start, end, op)`` for every client
    ``service.request`` span, sorted by start.  Each server root span and
    its subtree go to the request whose interval holds the root's start
    (one keep-alive connection, so requests never overlap); the result
    maps op to ``(self times, counters, seconds covered by server roots)``.
    """
    spans = server["spans"]
    root_counts = server["root_counts"]
    starts = [request[0] for request in requests]
    root_of, subtrees = [], defaultdict(list)
    for index, (_, _, end, parent) in enumerate(spans):
        root = index if parent is None else root_of[parent]
        root_of.append(root)
        if end is not None:
            subtrees[root].append(index)
    attributed = defaultdict(lambda: (Counter(), Counter(), [0.0]))
    for root, members in subtrees.items():
        _, start, end, _ = spans[root]
        if end is None:
            continue
        slot = bisect.bisect_right(starts, start) - 1
        if slot < 0 or start > requests[slot][1]:
            continue
        times, counts, covered = attributed[requests[slot][2]]
        times.update(self_times(spans, members))
        counts.update(root_counts.get(str(root), {}))
        covered[0] += end - start
    return attributed


def per_layer(workload, untraced, traced, tracer) -> dict:
    """Medians over traced ops of every per-layer metric."""
    ok = [r for r in traced if r["ok"]]
    if not ok:
        return {}
    spans = tracer.spans
    attributed = {}
    if workload.server_spans is not None:
        requests = sorted(
            (spans[i][1], spans[i][2], position)
            for position, r in enumerate(ok)
            for i in range(r["root"], r["end"])
            if spans[i][0] == "service.request"
        )
        attributed = _server_attribution(workload.server_spans, requests)
    values = defaultdict(list)
    for position, record in enumerate(ok):
        selfs = Counter(self_times(spans, range(record["root"], record["end"])))
        counts = Counter(tracer.root_counts.get(record["root"], {}))
        if position in attributed:
            times, server_counts, covered = attributed[position]
            selfs["service.request"] -= covered[0]
            selfs.update(times)
            counts.update(server_counts)
        wall = record["wall"]
        for span_name, metric in SELF_TIME_METRICS.items():
            values[metric].append(selfs.get(span_name, 0.0))
        discovered = counts["chase.triggers_discovered"]
        facts = record["facts"]
        values["chase.discover_share"].append(selfs.get("chase.discover", 0.0) / wall)
        values["chase.triggers_discovered"].append(discovered)
        values["chase.triggers_fired"].append(counts["chase.triggers_fired"])
        values["chase.fire_ratio"].append(
            counts["chase.triggers_fired"] / discovered if discovered else 0.0
        )
        values["chase.rounds"].append(counts["chase.rounds"])
        values["core.probes_per_trigger"].append(
            counts["core.probes"] / discovered if discovered else 0.0
        )
        values["backends.sqlite.bytes_per_atom"].append(facts.get("bytes_per_atom", 0.0))
        values["service.response_bytes"].append(facts.get("response_bytes", 0.0))
        values["termination.settled_before_decider_ratio"].append(
            facts.get("settled_cheaply", 0.0)
        )
        values["runtime.gc_collections"].append(counts["runtime.gc_collections"])
        values["runtime.reference_ms"].append(record["reference"] * 1000)
        values["trace.op_ms"].append(wall * 1000)
        values["trace.accounted_ratio"].append(sum(selfs.values()) / wall)
    metrics = {name: statistics.median(v) for name, v in values.items()}
    untraced_ok = [r["wall"] * r["scale"] for r in untraced if r["ok"]]
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["wall"] * r["scale"] for r in ok)
        / statistics.median(untraced_ok)
        if untraced_ok
        else 0.0
    )
    return metrics


def write_trace(workload, tracer) -> list:
    """Write the run's spans as a Chrome trace; returns schema problems."""
    from repro.obs.trace import validate_trace

    epoch = tracer.spans[0][1] if tracer.spans else 0.0
    events = chrome_events(tracer.spans, os.getpid(), epoch)
    if workload.server_spans is not None:
        events += chrome_events(workload.server_spans["spans"], workload.process.pid, epoch)
    path = WORK_DIR / f"trace-{workload.name}.json"
    write_chrome_trace(str(path), events)
    with open(path, encoding="utf-8") as handle:
        return [f"trace: {problem}" for problem in validate_trace(json.load(handle))]


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns the result object and every op record.

    Records carry ``phase``: ``"warm-up"``, ``"untraced"`` or ``"traced"``.
    """
    from boundaries import install
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    records, problems, setups = [], [], []
    repeats = 1 if trace else SETUP_REPEATS
    for repeat in range(repeats):
        gc.collect()
        start = time.perf_counter()
        workload.setup(seed, WORK_DIR)
        try:
            built = time.perf_counter() - start
            if repeat == 0:
                workload.reference()
            warm = run_one(workload)
            records.append(dict(warm, phase="warm-up"))
            setups.append((built + warm["wall"]) * warm["scale"])
            if repeat + 1 < repeats:
                problems += workload.close()
        except BaseException:
            workload.close()
            raise
    try:
        untraced = run_ops(workload, seconds / 2 if trace else seconds)
        peak = _peak_rss_mb(workload)
    finally:
        problems += workload.close()
    records += [dict(r, phase="untraced") for r in untraced]

    if trace:
        tracer = Tracer()
        install(tracer)
        try:
            workload.setup(seed, WORK_DIR, traced=True)
            workload.tracer = tracer
            try:
                records.append(dict(run_one(workload, tracer), phase="warm-up"))
                traced = run_ops(workload, seconds / 2, tracer)
            finally:
                problems += workload.close()
        finally:
            tracer.uninstall()
        records += [dict(r, phase="traced") for r in traced]
        problems += write_trace(workload, tracer)

    attempted = len(records)
    failed = min(sum(not r["ok"] for r in records) + len(problems), attempted)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if trace:
        metrics = per_layer(workload, untraced, traced, tracer)
    else:
        metrics = end_to_end(untraced, setups, peak, (attempted - failed) / attempted)
    units = metric_units()
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _bootstrap()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    WORK_DIR.mkdir(exist_ok=True)
    tempfile.tempdir = str(WORK_DIR)
    result, records = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    timed = [r for r in records if r["phase"] == "untraced" and r["ok"]]
    if timed:
        print(
            "unscaled: op_p50_ms=%.3f reference_ms=%.4f"
            % (
                statistics.median(r["wall"] for r in timed) * 1000,
                statistics.median(r["reference"] for r in timed) * 1000,
            )
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
