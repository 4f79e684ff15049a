"""Self-tests of the benchmark: steadiness, output checks, trace accounting.

Not collected by the repository's test suite (the file name does not
match ``test_*.py``), because it runs every workload for its full run
length.  Run it from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

It takes about four minutes on a 2-CPU host.
"""

from __future__ import annotations

import copy
import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._bootstrap()
run.WORK_DIR.mkdir(exist_ok=True)

from repro.core.atoms import Atom  # noqa: E402
from repro.core.terms import Constant  # noqa: E402
from repro.termination.verdict import Status, Verdict  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUN_SECONDS = BENCHMARK["run_seconds"]
OP_BOUND = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}["op_p50_ms"]
SEED = 7


def _counts(records):
    return [record["facts"]["counts"] for record in records]


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def full_run(request):
    """One untraced run of the full run length per workload."""
    result, records = run.measure(request.param, SEED, RUN_SECONDS, trace=False)
    return request.param, result, records


def test_run_is_correct(full_run):
    _, result, _ = full_run
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_counts_repeat_across_ops_and_runs(full_run):
    name, _, records = full_run
    counts = _counts(records)
    assert all(c == counts[0] for c in counts), "per-op counts differ within a run"
    _, again = run.measure(name, SEED, 0.01, trace=False)
    assert all(c == counts[0] for c in _counts(again)), "per-op counts differ across runs"


def test_no_drift_within_a_run(full_run):
    _, _, records = full_run
    walls = [r["wall"] * r["scale"] for r in records if r["phase"] == "untraced"]
    third = len(walls) // 3
    if third < 2:
        pytest.skip(f"only {len(walls)} ops in {RUN_SECONDS} s")
    first = statistics.median(walls[:third])
    last = statistics.median(walls[-third:])
    assert abs(last - first) <= OP_BOUND * first


def _corrupt_join(raw):
    raw.instance.add(Atom("F", [Constant("corrupt"), Constant("corrupt")]))
    return raw


def _corrupt_bulk(raw):
    raw.instance.add(Atom("R0", [Constant("corrupt")] * 3))
    return raw


def _corrupt_session(raw):
    raw = copy.deepcopy(raw)
    raw["atoms"] = raw["atoms"][1:]
    return raw


def _corrupt_verdicts(raw):
    verdicts, latencies = raw
    first = verdicts[0]
    flipped = (
        Status.NOT_ALL_TERMINATING
        if first.status == Status.ALL_TERMINATING
        else Status.ALL_TERMINATING
    )
    return [Verdict(flipped, method="corrupt")] + verdicts[1:], latencies


CORRUPT = {
    "join_closure": _corrupt_join,
    "bulk_closure": _corrupt_bulk,
    "session_stream": _corrupt_session,
    "verdict_corpus": _corrupt_verdicts,
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_result_is_a_failed_op(name):
    workload = WORKLOADS[name]()
    workload.setup(SEED, run.WORK_DIR)
    try:
        workload.reference()
        assert run.run_one(workload)["ok"]
        honest = workload.op
        workload.op = lambda: CORRUPT[name](honest())
        assert not run.run_one(workload)["ok"]
    finally:
        workload.close()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_accounts_for_op_time(name):
    result, _ = run.measure(name, SEED, 4, trace=True)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert abs(metrics["trace.accounted_ratio"] - 1) <= 0.10
    # The reported medians add up too: layer self times plus the
    # unattributed remainder against the traced op time.
    layer_seconds = sum(
        v for k, v in metrics.items() if k.endswith("_s") and not k.startswith("trace.")
    )
    op_seconds = metrics["trace.op_ms"] / 1000
    assert abs(layer_seconds + metrics["trace.unattributed_s"] - op_seconds) <= 0.10 * op_seconds
