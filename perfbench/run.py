"""The repository benchmark: M×N coupling, PRMI and live resize.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/`` must be beside this
directory; nothing is installed).  Workloads, defined in
:mod:`workloads` and recorded with their reasons in ``BENCHMARK.json``:

* ``couple-cyclic`` — threads backend, jobs ``atm`` (4 ranks) and
  ``ocn`` (6 ranks) exchange two 24,000-element float64 fields,
  element-cyclic on both sides, over persistent ``Coupler.open``
  channels; one op is a push of one field plus a pull of the other;
* ``couple-bulk`` — procs backend, default transport options, the same
  op between 2 and 3 ranks over 2 Mi-element (16 MiB) block fields:
  4 rank pairs per direction, messages of 2.7–5.3 MiB computed from the
  decomposition (bytes are computed, not measured on a wire);
* ``prmi-pipelined`` — procs backend, one caller rank keeping 64
  independent ``work(i, v)`` calls in flight through a batched
  ``InvocationPipeline`` to one ``ServerLoop`` callee rank; one op is
  one invocation;
* ``resize-elastic`` — threads backend, a 6-rank cohort resizes a live
  400,000-element block-cyclic array 4→6→4… with ``reconfigure``; one
  op is one resize.

The RMA (one-sided) and collective-rounds tiers are deliberately not
workloads yet: no default-configured user path reaches them, and adding
one is its own benchmark change.

``--trace 0`` runs :data:`SESSIONS` untraced sessions, each in a fresh
interpreter (cold schedule cache, as a user pays it), splitting the
time budget between them, and prints the end-to-end metrics.
``--trace 1`` runs one untraced and one traced session of half the
budget each, prints the per-layer metrics and a per-layer self-time
table, reports the tracing overhead and writes one Chrome trace-event
file under ``.perfbench_out/``.  The last line of standard output is
always one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: Untraced sessions per timed run; the run reports medians over them.
SESSIONS = 3
#: Floor of timed ops per run, over all sessions.
MIN_OPS = 200
#: A run returns within this many seconds, whatever its sessions do.
RUN_DEADLINE_S = 170

E2E = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p95": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


def host_facts(backend: str) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_rev": _git_rev(), "backend": backend}


def _git_rev() -> str:
    """The checkout's commit, read from ``.git`` without running git
    ("unknown" in an exported tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_session(workload: str, seed: int, seconds: float, index: int,
                deadline: float, *, trace: bool = False, extra=()) -> dict:
    """One session in a fresh interpreter, in its own process group so
    that every process it starts is stopped with it; returns its
    measurements, or an error if it fails or outlives ``deadline``."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"session-{os.getpid()}-{index}.pkl"
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--out", str(out), *extra]
    if trace:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        err = None
    try:
        _reap(proc)
        if err is None:
            return {"error": "session outlived the run's deadline",
                    "attempted": 1, "failed": 1}
        if proc.returncode != 0 or not out.exists():
            return {"error": f"session exited {proc.returncode}: "
                             f"{err.strip()[-2000:]}",
                    "attempted": 1, "failed": 1}
        with open(out, "rb") as fh:
            return pickle.load(fh)
    finally:
        out.unlink(missing_ok=True)


def _reap(proc, grace_s: float = 5.0) -> None:
    """Wait until every process of the session's group has ended,
    killing the group if the session is still running or leaves
    processes behind for longer than ``grace_s``."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()
    give_up = time.monotonic() + grace_s
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > give_up:
            os.killpg(proc.pid, signal.SIGKILL)
            give_up = float("inf")
        time.sleep(0.05)


def end_to_end(sessions: list[dict]) -> tuple[dict, int, int, int]:
    """Aggregate untraced sessions into the end-to-end metrics: medians
    over every session's windows for rate, p50 and CPU; the median over
    every session's tail blocks for the p95; medians over sessions for
    set-up time and memory.  Also returns the window, tail block and
    sample counts."""
    wins = [w for s in sessions for w in s["windows"]]
    tails = [t for s in sessions for t in s["tails"]]
    rate, p50, cpu = (statistics.median(col) for col in zip(*wins))
    return {
        "setup_s": statistics.median(s["setup_s"] for s in sessions),
        "ops_per_s": rate,
        "op_ms.p50": p50,
        "op_ms.p95": statistics.median(tails),
        "cpu_ms_per_op": cpu,
        "peak_rss_mb": statistics.median(s["rss_mb"] for s in sessions),
    }, len(wins), len(tails), sum(s["lat_ms"].size for s in sessions)


def wire_bytes_per_op(workload: str, session: dict) -> float:
    """Bytes an op puts on the wire: the coupling schedules' computed
    bytes, the resize's migrated bytes, the PRMI frames' bytes."""
    from workloads import CONFIG
    cfg = CONFIG[workload]
    if cfg["kind"] == "couple":
        return 2.0 * cfg["extent"] * 8
    key = ("redist.migrated_bytes" if cfg["kind"] == "resize"
           else "prmi.frame_bytes")
    return session["timed"].get(key, 0) / session["ops"]


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="reduced sizes (the benchmark's self-tests)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src'}; run from "
              f"the root of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import CONFIG
    if args.workload not in CONFIG:
        print(f"perfbench: unknown workload {args.workload!r} (have "
              f"{', '.join(CONFIG)})", file=sys.stderr)
        return 2

    host = host_facts(CONFIG[args.workload]["backend"])
    if args.trace:
        return _traced(args, host, deadline)

    per = args.seconds / SESSIONS
    extra = ["--min-ops", str(-(-MIN_OPS // SESSIONS))]
    if args.tiny:
        extra.append("--tiny")
    sessions = []
    for i in range(SESSIONS):
        sessions.append(run_session(args.workload, args.seed, per, i,
                                    deadline, extra=extra))
        if sessions[-1]["error"]:
            break
    errors = [s["error"] for s in sessions if s["error"]]
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    print(f"host: {json.dumps(host)}")
    for e in errors:
        print(f"session failed: {e}")
    good = [s for s in sessions if not s["error"]]
    if not good:
        _emit(False, attempted, failed, {})
        return 0
    if not all(s["windows"] for s in good) or \
            not any(s["tails"] for s in good):
        print("a session timed less than one window of ops, or the run "
              "less than one p95 block")
        _emit(False, attempted, failed, {})
        return 0
    metrics, nwin, ntail, samples = end_to_end(good)
    print(f"workload {args.workload}, seed {args.seed}: {len(good)} "
          f"session(s), {attempted} ops attempted, {failed} failed; "
          f"medians over {nwin} windows and {ntail} p95 blocks, {samples} "
          f"latency samples (all ranks' timed ops)")
    for name, unit in E2E.items():
        print(f"  {name:<16} {metrics[name]:>14.6g} {unit}")
    print(f"  {'ops_attempted':<16} {attempted:>14d}")
    print(f"  {'ops_failed':<16} {failed:>14d}")
    _emit(not errors and failed == 0, attempted, failed,
          {k: {"value": v, "unit": E2E[k]} for k, v in metrics.items()})
    return 0


def _traced(args, host, deadline: float) -> int:
    import layers
    from tracer import chrome_events, merge

    half = args.seconds / 2
    extra = ["--tiny"] if args.tiny else []
    plain = run_session(args.workload, args.seed, half, 0, deadline,
                        extra=extra)
    traced = run_session(args.workload, args.seed, half, 1, deadline,
                         trace=True, extra=extra)
    print(f"host: {json.dumps(host)}")
    sessions = [plain, traced]
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    errors = [s["error"] for s in sessions if s["error"]]
    for e in errors:
        print(f"session failed: {e}")
    if errors:
        _emit(False, attempted, failed, {})
        return 0

    plain_rate = plain["ops"] / plain["wall_s"]
    traced_rate = traced["ops"] / traced["wall_s"]
    agg = merge(traced["traces"])
    ops = traced["ops"]
    metrics = layers.compute(
        agg, traced["timed"], traced["total"], traced["peak_inflight"], ops,
        wire_bytes_per_op(args.workload, traced), plain_rate / traced_rate)

    print(f"workload {args.workload}, seed {args.seed}: traced session "
          f"{ops} ops; ops_per_s untraced {plain_rate:.6g}, traced "
          f"{traced_rate:.6g} (tracing overhead "
          f"{plain_rate / traced_rate:.3f}x)")
    table = layers.self_time_table(agg, ops)
    print(f"  {'layer':<22} {'in-op self us/op':>17} "
          f"{'other-thread us/op':>19} {'calls/op':>10}")
    for layer, in_op, bg, ncalls in table:
        print(f"  {layer:<22} {in_op:>17.3f} {bg:>19.3f} {ncalls:>10.2f}")
    op_us = metrics["trace.op.us_per_op"]
    print(f"  {'sum (= traced op time)':<22} "
          f"{sum(r[1] for r in table):>17.3f}   (op time {op_us:.3f})")
    print("  per-layer metrics (unit; moves end-to-end metric@workload):")
    for name, value in metrics.items():
        unit, _better, moves = layers.MOVES[name]
        print(f"    {name:<46} {value:>14.6g} {unit:<10} {moves}")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"traceEvents": chrome_events(traced["traces"],
                                                traced["t_launch"]),
                   "displayTimeUnit": "ms",
                   "metadata": {"workload": args.workload,
                                "seed": args.seed, "host": host,
                                "ops": ops, "metrics": metrics,
                                "self_time": table}}, fh)
    print(f"  trace: {path.relative_to(ROOT)}")
    _emit(failed == 0, attempted, failed,
          {k: {"value": v, "unit": layers.MOVES[k][0]}
           for k, v in metrics.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
