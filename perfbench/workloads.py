"""The benchmark's workloads: rank programs and the one-session launcher.

A *session* is one launch of the program through its public API
(``Coupler.open`` + ``push``/``pull``, ``InvocationPipeline`` against a
``ServerLoop``, ``highlevel.reconfigure``) in a fresh interpreter, so
every session pays schedule and plan compile cold, as a user does.  A
session runs:

1. set-up: launch, handshakes, schedule and plan compile, engine
   construction and the first (warm-up) op — ``setup_s`` ends when the
   slowest rank finishes it;
2. warm ops: a few untimed ops that bring pools, slots and plan caches
   to their steady state;
3. the timed phase: a closed loop of ops, each checked against the
   seed-derived ground truth outside the latency timer, until the time
   budget is spent.  Coupled jobs and resize cohorts must run the same
   number of ops: once its budget is spent the leading rank publishes a
   stop index in the ledger, :data:`STOP_MARGIN` ops beyond the furthest
   op any rank has started, which every rank reads before starting an
   op (the pairs of ``couple-cyclic`` form two independent components,
   so ranks may drift far apart).  PRMI callers are independent and run
   to their own deadline.

The timed phase is bracketed by ledger barriers, and the counters are
read between them, so counter deltas hold exactly the timed ops.  The
harness coordinates only through the ledger's shared memory, never
through the program's own messaging, so the counters are the
program's alone.

Every rank records each op's latency and end time, and its process's
CPU time every ``window`` ops; the session summarises each window of
``window`` ops per rank (rate, latency p50, CPU per op), and the run
reports medians over windows, which keeps a short slowdown of the host
from moving a whole run.  The p95 is taken per *tail block*, the fewest
consecutive windows that hold :data:`TAIL_SAMPLES` latency samples (all
ranks' ops), and the run reports the median over blocks: a stall of the
host then spoils the few blocks it falls in rather than the p95 of a
whole session.

Every workload is a closed loop driven by its own ranks; there are no
client threads beyond the ranks.  Field contents and request payloads
are integer-valued float64 derived from the seed, so sums are exact
and a stale, torn or misplaced step fails its check.
"""

from __future__ import annotations

import mmap
import os
import resource
import time
from collections import deque

import numpy as np

from repro import highlevel
from repro.cca.sidl import arg, method, port
from repro.dad import (
    Block,
    BlockCyclic,
    CartesianTemplate,
    Cyclic,
    DistArrayDescriptor,
    DistributedArray,
)
from repro.errors import SpmdError
from repro.prmi import (
    Batched,
    CalleeEndpoint,
    CallerEndpoint,
    InvocationPipeline,
    PolicyTable,
    ServerLoop,
)
from repro.schedule.builder import GLOBAL_CACHE
from repro.schedule.indexplan import PLAN_STATS
from repro.simmpi import run_coupled, run_spmd
from repro.simmpi.intercomm import default_nameservice
from repro.simmpi.procs import slot_stats
from repro.util.counters import (
    PRMI_STATS,
    REDIST_STATS,
    TRANSPORT_STATS,
)

from tracer import SETUP, TIMED

MIB = 1 << 20

#: Workload shapes.  ``m``/``n`` are the two sides' rank counts (the
#: problem's M and N), ``warm`` the untimed warm ops and ``window`` the
#: ops per rank in one summary window (about 0.3 s).
CONFIG = {
    "couple-cyclic": {"kind": "couple", "backend": "threads", "m": 4,
                      "n": 6, "extent": 24_000, "dist": "cyclic",
                      "warm": 40, "window": 200},
    "couple-bulk": {"kind": "couple", "backend": "procs", "m": 2, "n": 3,
                    "extent": 2 * MIB, "dist": "block", "warm": 6,
                    "window": 10},
    # one caller and one callee: two busy rank processes fit a two-core
    # host; more contend for its cores, and the run measures the scheduler
    "prmi-pipelined": {"kind": "prmi", "backend": "procs", "m": 1, "n": 1,
                       "vec": 64, "batch_max": 32, "delay_us": 1000,
                       "inflight": 64, "warm": 256, "window": 4096},
    "resize-elastic": {"kind": "resize", "backend": "threads", "m": 4,
                       "n": 6, "extent": 400_000, "block": 64, "warm": 4,
                       "window": 10},
}

#: Reduced sizes for the benchmark's self-tests.
TINY = {
    "couple-cyclic": {"extent": 2_400, "warm": 2, "window": 4},
    "couple-bulk": {"extent": 64 * 1024, "warm": 2, "window": 4},
    "prmi-pipelined": {"warm": 32, "window": 64},
    "resize-elastic": {"extent": 24_000, "warm": 2, "window": 4},
}

#: Every timed run measures at least this many ops in total.
MIN_OPS = 200
#: Latency samples in one p95 block, so that ten lie beyond its p95.
TAIL_SAMPLES = 200
#: Ops the stop index lies beyond the furthest op any rank has started
#: when it is published.
STOP_MARGIN = 2
#: Seconds without progress before the program's watchdog (and the
#: harness barrier) gives up, well inside a run's deadline.
DEADLOCK_TIMEOUT = 20.0

#: The tracer of a traced session (``None`` when timing untraced).  Set
#: before launch so forked procs ranks inherit it.
TRACER = None

PORT = port(
    "BenchPort",
    method("work", arg("i"), arg("v"), invocation="independent"),
)


# -- inputs ---------------------------------------------------------------------

def field_values(seed: int, field: str, extent: int) -> np.ndarray:
    """Seed-derived integer-valued float64 ground truth of one field."""
    salt = {"f1": 1, "f2": 2, "resize": 3}[field]
    rng = np.random.default_rng([seed, salt])
    a = int(rng.integers(1, 1 << 20))
    b = int(rng.integers(0, 1 << 20))
    g = np.arange(extent, dtype=np.int64)
    return ((g * a + b) % 1_048_573).astype(np.float64)


def request_vectors(seed: int, rank: int, count: int, vec: int) -> np.ndarray:
    """Seed-derived ``work`` payloads of one caller rank."""
    rng = np.random.default_rng([seed, 4, rank])
    return rng.integers(-1000, 1000, size=(count, vec)).astype(np.float64)


def _couple_descs(cfg):
    axis = Cyclic if cfg["dist"] == "cyclic" else Block
    return (DistArrayDescriptor(CartesianTemplate([axis(cfg["extent"],
                                                        cfg["m"])])),
            DistArrayDescriptor(CartesianTemplate([axis(cfg["extent"],
                                                        cfg["n"])])))


# -- measurement helpers -------------------------------------------------------

def cpu_s() -> float:
    """User+sys CPU seconds of this process (every thread)."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _parent_cpu_s() -> float:
    """User+sys CPU seconds of the parent process (the procs launcher)."""
    with open(f"/proc/{os.getppid()}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def counters(shared: bool, pools=()) -> dict[str, int]:
    """Flat snapshot of the program's counters: the process-global sets
    when ``shared`` (one reporter per process), plus the given channel
    buffer pools."""
    out: dict[str, int] = {}
    if shared:
        for prefix, ctr in (("transport", TRANSPORT_STATS),
                            ("prmi", PRMI_STATS), ("redist", REDIST_STATS),
                            ("plan", PLAN_STATS)):
            out.update({f"{prefix}.{k}": v
                        for k, v in ctr.snapshot().items()})
        out.update({f"slots.{k}": v for k, v in slot_stats().items()})
        out.update({f"cache.{k}": v for k, v in GLOBAL_CACHE.stats().items()})
    for pool in pools:
        for k, v in pool.stats.snapshot().items():
            out[f"pool.{k}"] = out.get(f"pool.{k}", 0) + v
    return out


def delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


_UNSET = np.iinfo(np.int64).max


class Ledger:
    """Harness state in anonymous shared memory (forked procs ranks
    share the mapping; threads ranks share the process): per-rank op
    counts, so a run that fails part-way still reports how far each rank
    got; barrier arrival words; and the timed phase's stop index."""

    def __init__(self, slots: int, stop: int | None):
        self._map = mmap.mmap(-1, 32 * (slots + 1))
        words = np.frombuffer(self._map, dtype=np.int64)
        self._stop = words[:1]
        self._stop[0] = _UNSET if stop is None else stop
        # per slot: attempted, ok, barrier phase, unused
        self._a = words[4:].reshape(-1, 4)

    def attempt(self, slot: int) -> None:
        self._a[slot, 0] += 1

    def ok(self, slot: int) -> None:
        self._a[slot, 1] += 1

    def sync(self, slot: int, phase: int, slots) -> None:
        """Barrier over ``slots`` (each slot writes only its own word)."""
        self._a[slot, 2] = phase
        idx = list(slots)
        give_up = time.monotonic() + DEADLOCK_TIMEOUT
        while (self._a[idx, 2] < phase).any():
            if time.monotonic() > give_up:
                raise RuntimeError(f"harness barrier {phase} timed out")
            time.sleep(2e-4)

    def stop_at(self) -> int:
        """Timed ops every rank runs (unbounded until published)."""
        return int(self._stop[0])

    def maybe_stop(self, done: int, deadline: float, min_ops: int) -> None:
        """Leader, after its ``done``-th timed op: once the budget is
        spent and the op floor met, publish the stop index.  A rank
        counts an op as attempted right after reading the stop index,
        so no rank can have started an op at or past the index."""
        if (self._stop[0] == _UNSET and done >= min_ops
                and time.perf_counter() >= deadline):
            self._stop[0] = int(self._a[:, 0].max()) + STOP_MARGIN

    def counts(self, slots, independent: bool) -> tuple[int, int]:
        """(attempted, failed) over the given slots.  Independent ranks
        (PRMI callers) each run their own ops; otherwise an op is
        attempted once any rank started it and counts as failed unless
        every rank completed it correctly."""
        rows = self._a[list(slots)]
        if independent:
            attempted = int(rows[:, 0].sum())
            return attempted, attempted - int(rows[:, 1].sum())
        attempted = int(rows[:, 0].max())
        return attempted, attempted - int(rows[:, 1].min())


class Recorder:
    """One rank's timed phase: each op's latency and end time, failed op
    indices, and this process's CPU time (plus the parent's, for the
    procs launcher) at the start of every window of ops."""

    def __init__(self, window: int, parent_cpu: bool):
        self.window = window
        self.parent_cpu = parent_cpu
        self.lat: list[float] = []
        self.te: list[float] = []
        self.failed: list[int] = []
        self.marks: list[float] = []
        self.pmarks: list[float] = []

    def mark(self) -> None:
        self.marks.append(cpu_s())
        if self.parent_cpu:
            self.pmarks.append(_parent_cpu_s())

    def start(self) -> float:
        self.mark()
        self.t_start = time.perf_counter()
        return self.t_start

    def record(self, j: int, dt: float, ok: bool) -> None:
        self.te.append(time.perf_counter())
        self.lat.append(dt)
        if not ok:
            self.failed.append(j)
        if len(self.lat) % self.window == 0:
            self.mark()

    def result(self) -> dict:
        return {"ops": len(self.lat), "lat": np.asarray(self.lat),
                "te": np.asarray(self.te), "failed": self.failed,
                "t_start": self.t_start, "marks": self.marks,
                "pmarks": self.pmarks}


def lockstep_phase(cfg, ledger, slot, slots, op, *, reporter, pools=()):
    """The timed phase of ranks that must run the same ops: ``op(j,
    last)`` runs timed op ``j`` and returns ``(latency, ok)``.  Returns
    the recorder and the counter deltas over exactly the timed ops."""
    tr = TRACER
    leader = slot == min(slots)
    ledger.sync(slot, 1, slots)
    c0 = counters(reporter, pools)
    ledger.sync(slot, 2, slots)
    rec = Recorder(cfg["window"], cfg["backend"] == "procs" and leader)
    deadline = rec.start() + cfg["budget"]
    j = 0
    while j < ledger.stop_at():
        if tr is not None:
            tr.set_op(j, TIMED)
        ledger.attempt(slot)
        dt, ok = op(j, j == ledger.stop_at() - 1)
        rec.record(j, dt, ok)
        if ok:
            ledger.ok(slot)
        j += 1
        if leader:
            ledger.maybe_stop(j, deadline, cfg["min_ops"])
    if tr is not None:
        tr.set_op(-1, SETUP)
    ledger.sync(slot, 3, slots)
    return rec, delta(counters(reporter, pools), c0)


def _rank_result(tr, cfg, **fields) -> dict:
    fields["rss_kb"] = peak_rss_kb()
    if tr is not None and cfg["backend"] == "procs":
        fields["trace"] = tr.collect()
    return fields


# -- coupling: atm <-> ocn exchanging two fields -----------------------------

def couple_rank(comm, side, cfg, ledger, slot_base):
    """One rank of job ``atm`` or ``ocn``.  One op is ``atm`` push f1 +
    pull f2, mirrored by ``ocn`` pull f1 + push f2."""
    tr = TRACER
    me = comm.rank
    slot = slot_base + me
    reporter = cfg["backend"] == "procs" or slot == 0
    if tr is not None:
        tr.bind(f"{side}:{me}")
    start_counters = counters(reporter)
    atm = side == "atm"
    mine = _couple_descs(cfg)[0 if atm else 1]
    out_name, in_name = ("f1", "f2") if atm else ("f2", "f1")
    prod = DistributedArray.from_global(
        mine, me, field_values(cfg["seed"], out_name, cfg["extent"]))
    base = prod.flat_local().copy()
    expect = DistributedArray.from_global(
        mine, me, field_values(cfg["seed"], in_name, cfg["extent"])
    ).flat_local().copy()
    exp_sum, nloc = float(expect.sum()), expect.size

    ns = default_nameservice
    c1 = highlevel.Coupler("bench-f1", ns)
    c2 = highlevel.Coupler("bench-f2", ns)
    if atm:
        out_ch = c1.open(comm, "source", prod)
        in_ch = c2.open(comm, "destination", mine)
    else:
        in_ch = c1.open(comm, "destination", mine)
        out_ch = c2.open(comm, "source", prod)
    flat_out = prod.flat_local()

    def transfer():
        if atm:
            out_ch.push()
            return in_ch.pull()
        got = in_ch.pull()
        out_ch.push()
        return got

    def op(k, timed=False, wrong=False, last=False):
        np.add(base, k, out=flat_out)          # the producer's new step
        t0 = time.perf_counter()
        got = tr.op_span(transfer) if (tr is not None and timed) \
            else transfer()
        dt = time.perf_counter() - t0
        flat = got.flat_local()
        ok = float(flat.sum()) == exp_sum + k * nloc + wrong
        if ok and last:
            ok = bool(np.array_equal(flat, expect + k))
        return dt, ok

    for k in range(cfg["warm"] + 1):
        if not op(k)[1]:
            raise RuntimeError(f"{side} rank {me}: untimed op {k} failed "
                               f"its check")
        if k == 0:
            ready = time.perf_counter()

    first = cfg["warm"] + 1
    rec, timed = lockstep_phase(
        cfg, ledger, slot, range(cfg["m"] + cfg["n"]),
        lambda j, last: op(first + j, True, j == cfg["fault_op"], last),
        reporter=reporter, pools=(out_ch.pool,))
    return _rank_result(
        tr, cfg, ready=ready, timed=timed,
        total=delta(counters(reporter, (out_ch.pool,)), start_counters),
        **rec.result())


# -- PRMI: pipelined independent invocations --------------------------------

def _work_body(i, v):
    return float(v.sum()) + i


class _Work:
    """The callee's ``work`` implementation.  Warm calls carry a negative
    ``i``; the first timed call starts this callee's timed phase (CPU
    and counter baselines) and every ``window``-th marks a window."""

    def __init__(self, tr, cfg, reporter):
        self._tr = tr
        self._reporter = reporter
        self._window = cfg["window"]
        self.marks: list[float] = []
        self.c0 = None

    def work(self, i, v):
        if i >= 0 and i % self._window == 0:
            self.marks.append(cpu_s())
            if self.c0 is None:
                self.c0 = counters(self._reporter)
                if self._tr is not None:
                    self._tr.mark_timed()
        if self._tr is not None:
            return self._tr.span("prmi.endpoint", "method", _work_body, i, v)
        return _work_body(i, v)


def callee_rank(comm, cfg, ledger, slot_base):
    tr = TRACER
    reporter = cfg["backend"] == "procs"
    if tr is not None:
        tr.bind(f"callee:{comm.rank}")
    start_counters = counters(reporter)
    inter = default_nameservice.accept("bench-prmi", comm)
    impl = _Work(tr, cfg, reporter)
    ServerLoop(CalleeEndpoint(comm, inter, PORT, impl)).serve_forever()
    impl.marks.append(cpu_s())
    end = counters(reporter)
    return _rank_result(tr, cfg, marks=impl.marks,
                        timed=delta(end, impl.c0 or end),
                        total=delta(end, start_counters))


def caller_rank(comm, cfg, ledger, slot_base):
    """One caller rank: keeps ``inflight`` independent ``work(i, v)``
    calls outstanding and submits the next when the oldest returns.
    One op is one invocation."""
    tr = TRACER
    me = comm.rank
    slot = slot_base + me
    callers = range(slot_base, slot_base + cfg["m"])
    procs = cfg["backend"] == "procs"
    reporter = procs or me == 0
    if tr is not None:
        tr.bind(f"caller:{me}")
    start_counters = counters(reporter)
    inter = default_nameservice.connect("bench-prmi", comm)
    pipe = InvocationPipeline(
        CallerEndpoint(comm, inter, PORT),
        policies=PolicyTable(default=Batched(batch_max=cfg["batch_max"],
                                             delay_us=cfg["delay_us"])),
        # the loop below bounds what is outstanding; the pipeline's own
        # window is set wide enough never to bind
        inflight_max=4 * cfg["inflight"], overflow="block")
    callee = me % cfg["n"]
    vecs = request_vectors(cfg["seed"], me, 256, cfg["vec"])
    sums = [float(v.sum()) for v in vecs]
    nvec = len(vecs)

    def expected(i):
        return sums[i % nvec] + i

    if pipe.submit("work", callee, i=-1, v=vecs[-1]).result() != expected(-1):
        raise RuntimeError(f"caller rank {me}: warm-up op failed its check")
    ready = time.perf_counter()
    warm = [(i, pipe.submit("work", callee, i=i, v=vecs[i % nvec]))
            for i in range(-2, -2 - cfg["warm"], -1)]
    for i, fut in warm:
        if fut.result() != expected(i):
            raise RuntimeError(f"caller rank {me}: warm op {i} failed its "
                               f"check")

    rec = Recorder(cfg["window"], procs and me == 0)
    inflight: deque = deque()
    fault_op = cfg["fault_op"] if me == 0 else None

    def settle():
        i, t0, fut = inflight.popleft()
        try:
            ok = fut.result() == expected(i) + (i == fault_op)
        except Exception:   # noqa: BLE001 - a refused call is a failed op
            ok = False
        rec.record(i, time.perf_counter() - t0, ok)
        if ok:
            ledger.ok(slot)

    def step(i):
        if len(inflight) >= cfg["inflight"]:
            settle()
        ledger.attempt(slot)
        inflight.append((i, time.perf_counter(),
                         pipe.submit("work", callee, i=i, v=vecs[i % nvec])))

    ledger.sync(slot, 1, callers)
    c0 = counters(reporter)
    ledger.sync(slot, 2, callers)
    deadline = rec.start() + cfg["budget"]
    fixed = cfg["ops"]
    i = 0
    while (i < fixed) if fixed is not None else \
            (time.perf_counter() < deadline or i < cfg["min_ops"]):
        if tr is not None:
            tr.set_op(i, TIMED)
            tr.op_span(step, i)
        else:
            step(i)
        i += 1
    while inflight:
        if tr is not None:
            tr.set_op(i, TIMED)
            tr.op_span(settle)
            i += 1
        else:
            settle()
    if tr is not None:
        tr.set_op(-1, SETUP)
    ledger.sync(slot, 3, callers)
    timed = delta(counters(reporter), c0)
    pipe.close()
    return _rank_result(
        tr, cfg, ready=ready, timed=timed,
        total=delta(counters(reporter), start_counters), **rec.result())


# -- live resize: one cohort, 4 -> 6 -> 4 ... ----------------------------------

def resize_rank(comm, cfg, ledger, slot_base):
    """One rank of the resizing cohort.  One op is one
    ``reconfigure``; before each, every holding rank adds 1 to its
    patch (the application's step), so after op ``k`` the array is
    ground truth + ``k + 1``."""
    tr = TRACER
    me = comm.rank
    slot = slot_base + me
    reporter = cfg["backend"] == "procs" or me == 0
    if tr is not None:
        tr.bind(f"cohort:{me}")
    start_counters = counters(reporter)
    e, blk = cfg["extent"], cfg["block"]
    small = DistArrayDescriptor(CartesianTemplate([BlockCyclic(e, cfg["m"],
                                                               blk)]))
    big = DistArrayDescriptor(CartesianTemplate([BlockCyclic(e, cfg["n"],
                                                             blk)]))
    truth = field_values(cfg["seed"], "resize", e)
    expect = {
        id(d): (DistributedArray.from_global(d, me, truth).flat_local().copy()
                if me < d.nranks else None)
        for d in (small, big)}
    state = [DistributedArray.from_global(small, me, truth)
             if me < small.nranks else None]
    del truth

    def resize(target):
        state[0] = highlevel.reconfigure(comm, state[0], target)

    def op(k, timed=False, wrong=False):
        target = big if k % 2 == 0 else small
        if state[0] is not None:
            flat = state[0].flat_local()
            np.add(flat, 1, out=flat)
        t0 = time.perf_counter()
        if tr is not None and timed:
            tr.op_span(resize, target)
        else:
            resize(target)
        dt = time.perf_counter() - t0
        want = expect[id(target)]
        if want is None:
            return dt, state[0] is None
        ok = state[0] is not None and bool(np.array_equal(
            state[0].flat_local() - want,
            np.full(want.size, float(k + 1 + wrong))))
        return dt, ok

    for k in range(2 + cfg["warm"]):      # warm-up: both directions first
        if not op(k)[1]:
            raise RuntimeError(f"cohort rank {me}: untimed resize {k} "
                               f"failed its check")
        if k == 1:
            ready = time.perf_counter()

    first = 2 + cfg["warm"]
    rec, timed = lockstep_phase(
        cfg, ledger, slot, range(cfg["n"]),
        lambda j, last: op(first + j, True, j == cfg["fault_op"]),
        reporter=reporter)
    return _rank_result(
        tr, cfg, ready=ready, timed=timed,
        total=delta(counters(reporter), start_counters), **rec.result())


# -- one session ---------------------------------------------------------------

def session_config(workload: str, seed: int, seconds: float, *,
                   min_ops: int = MIN_OPS, ops=None, fault_op=None,
                   backend=None, tiny=False) -> dict:
    """One session's settings: the workload's shape plus its seed, time
    budget, op floor and (for the self-tests) a fixed op count, an op
    whose expected value is deliberately wrong, a backend override and
    the reduced size."""
    cfg = dict(CONFIG[workload])
    if tiny:
        cfg.update(TINY[workload])
    cfg.update(workload=workload, seed=seed, budget=float(seconds), ops=ops,
               fault_op=fault_op, min_ops=min_ops,
               backend=backend or cfg["backend"])
    return cfg


def _jobs(cfg, ledger):
    """``(job name, ranks, program, args)`` plus the ledger slots of the
    ranks whose ops are counted."""
    m, n = cfg["m"], cfg["n"]
    if cfg["kind"] == "couple":
        return ([("atm", m, couple_rank, ("atm", cfg, ledger, 0)),
                 ("ocn", n, couple_rank, ("ocn", cfg, ledger, m))],
                range(m + n))
    if cfg["kind"] == "prmi":
        return ([("callee", n, callee_rank, (cfg, ledger, 0)),
                 ("caller", m, caller_rank, (cfg, ledger, n))],
                range(n, n + m))
    return [("cohort", n, resize_rank, (cfg, ledger, 0))], range(n)


def windows(cfg, ranks: list[dict]) -> list[tuple[float, float, float]]:
    """Per window of ``window`` ops per rank: (ops/s, latency p50 ms,
    CPU ms per op).  Window boundaries are when the slowest rank
    finished the window's last op; CPU is the process's (threads) or the
    sum over every rank process plus the launching process (procs)."""
    w = cfg["window"]
    timed = [r for r in ranks if "lat" in r]
    independent = cfg["kind"] == "prmi"
    procs = cfg["backend"] == "procs"
    count = min(r["ops"] for r in timed) // w
    leader = timed[0]
    out = []
    for k in range(count):
        lo, hi = k * w, (k + 1) * w
        b0 = max(r["t_start"] if lo == 0 else r["te"][lo - 1] for r in timed)
        b1 = max(r["te"][hi - 1] for r in timed)
        ops = w * (len(timed) if independent else 1)
        lat = np.concatenate([r["lat"][lo:hi] for r in timed]) * 1e3
        if procs:
            cpu = sum(r["marks"][k + 1] - r["marks"][k] for r in ranks
                      if len(r["marks"]) > k + 1)
            cpu += leader["pmarks"][k + 1] - leader["pmarks"][k]
        else:
            cpu = leader["marks"][k + 1] - leader["marks"][k]
        out.append((ops / (b1 - b0), float(np.percentile(lat, 50)),
                    1e3 * cpu / ops))
    return out


def tail_blocks(cfg, ranks: list[dict]) -> list[float]:
    """Latency p95 (ms) of each tail block: the fewest whole windows
    whose ops, over every timed rank, give :data:`TAIL_SAMPLES`
    samples."""
    timed = [r for r in ranks if "lat" in r]
    w = cfg["window"]
    size = w * -(-TAIL_SAMPLES // (w * len(timed)))
    count = min(r["ops"] for r in timed) // size
    return [float(np.percentile(np.concatenate(
        [r["lat"][k * size:(k + 1) * size] for r in timed]), 95)) * 1e3
        for k in range(count)]


def run_session(cfg: dict, tracer=None) -> dict:
    """Launch the workload once; return the session's measurements (or
    its partial counts and the error, if a rank failed)."""
    global TRACER
    TRACER = tracer
    if tracer is not None:
        tracer.install()
        tracer.bind("launcher")
    ledger = Ledger(cfg["m"] + cfg["n"], cfg["ops"])
    jobs, counted = _jobs(cfg, ledger)
    before = counters(True)
    t_launch = time.perf_counter()
    try:
        if cfg["kind"] == "resize":
            name, nranks, fn, args = jobs[0]
            results = {name: run_spmd(nranks, fn, *args,
                                      backend=cfg["backend"],
                                      deadlock_timeout=DEADLOCK_TIMEOUT)}
        else:
            results = run_coupled(jobs, backend=cfg["backend"],
                                  deadlock_timeout=DEADLOCK_TIMEOUT)
    except SpmdError as exc:
        attempted, failed = ledger.counts(counted,
                                          independent=cfg["kind"] == "prmi")
        return {"error": f"{type(exc).__name__}: {exc}",
                "attempted": max(1, attempted), "failed": max(1, failed)}
    finally:
        TRACER = None
    ranks = [r for rs in results.values() for r in rs]
    timed = [r for r in ranks if "lat" in r]
    procs = cfg["backend"] == "procs"

    if cfg["kind"] == "prmi":
        ops = sum(r["ops"] for r in timed)
        failed = sum(len(r["failed"]) for r in timed)
    else:
        ops = timed[0]["ops"]
        failed = len({j for r in timed for j in r["failed"]})

    timed_ctr: dict[str, int] = {}
    total_ctr: dict[str, int] = {}
    for r in ranks:
        for src, dst in ((r["timed"], timed_ctr), (r["total"], total_ctr)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    if procs:
        rss_mb = (peak_rss_kb() + sum(r["rss_kb"] for r in ranks)) / 1024
        peak_inflight = max(r["total"].get("prmi.peak_inflight", 0)
                            for r in ranks)
    else:
        # process-global counters over the whole session, read once here
        # (the per-rank totals of the other ranks hold only pool stats)
        total_ctr.update(delta(counters(True), before))
        rss_mb = peak_rss_kb() / 1024
        peak_inflight = total_ctr.get("prmi.peak_inflight", 0)

    traces = []
    if tracer is not None:
        traces = [tracer.collect()]
        traces += [r["trace"] for r in ranks if "trace" in r]
    return {
        "error": None,
        "setup_s": max(r["ready"] for r in timed) - t_launch,
        "ops": ops,
        "attempted": ops,
        "failed": failed,
        "wall_s": (max(r["te"][-1] for r in timed)
                   - min(r["t_start"] for r in timed)),
        "windows": windows(cfg, ranks),
        "tails": tail_blocks(cfg, ranks),
        "lat_ms": np.concatenate([r["lat"] for r in timed]) * 1e3,
        "rss_mb": rss_mb,
        "timed": timed_ctr,
        "total": total_ctr,
        "peak_inflight": peak_inflight,
        "traces": traces,
        "t_launch": t_launch,
    }
