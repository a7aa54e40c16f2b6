"""Self-tests of the benchmark, at tiny size.

    python3 -m pytest perfbench -q

They check the benchmark, not the program: every printed metric is
declared in ``BENCHMARK.json``, the trace's self times are consistent,
a wrong expected value is counted as a failed op rather than crashing
the run, and the counters that must repeat exactly do so across runs
and across both backends.
"""

import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["couple-cyclic", "couple-bulk", "prmi-pipelined",
             "resize-elastic"]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seconds="1"):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def _session(tmp_path, workload, *args):
    out = tmp_path / f"{workload}.pkl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "session.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--tiny", "--out", str(out),
         *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out, "rb") as fh:
        return pickle.load(fh)


def test_spec_matches_layers_table():
    import layers
    spec = _spec()
    per_layer = {m["name"]: (m["unit"], m["better"])
                 for m in spec["per_layer"]}
    assert per_layer == {k: v[:2] for k, v in layers.MOVES.items()}
    from run import E2E
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_are_declared(workload):
    spec = _spec()
    _, result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"]
                                      for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0

    out, result = _run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert "tracing overhead" in out

    trace = json.loads(
        (ROOT / ".perfbench_out" / f"trace-{workload}-seed7.json").read_text())
    events = trace["traceEvents"]
    assert events
    for ev in events:
        assert 0 <= ev["args"]["self_us"] <= ev["dur"] + 1e-3
    # per-layer self times inside ops plus "other" add up to op time
    table = trace["metadata"]["self_time"]
    op_us = trace["metadata"]["metrics"]["trace.op.us_per_op"]
    assert sum(row[1] for row in table) == pytest.approx(op_us, rel=1e-6)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_value_is_a_failed_op(tmp_path, workload):
    res = _session(tmp_path, workload, "--ops", "12", "--fault-op", "5")
    assert res["error"] is None
    assert res["failed"] == 1
    assert res["attempted"] == res["ops"] >= 12


#: Counters a fixed number of ops must reproduce exactly.
EXACT = {
    "couple-cyclic": ["timed:transport.messages_matched",
                      "total:plan.pair_plans"],
    "couple-bulk": ["timed:transport.messages_matched",
                    "total:plan.pair_plans"],
    "prmi-pipelined": ["timed:prmi.frames_sent", "timed:prmi.frame_requests"],
    "resize-elastic": ["timed:transport.messages_matched",
                       "timed:redist.migrated_bytes",
                       "total:plan.pair_plans"],
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_runs_and_backends(tmp_path, workload):
    seen = []
    for backend in ("threads", "procs", "threads", "procs"):
        res = _session(tmp_path, workload, "--ops", "40",
                       "--backend", backend)
        assert res["error"] is None and res["failed"] == 0
        seen.append({key: res[key.split(":")[0]].get(key.split(":")[1], 0)
                     for key in EXACT[workload]})
    assert all(s == seen[0] for s in seen), seen
    assert all(v > 0 for v in seen[0].values()), seen[0]
