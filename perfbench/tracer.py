"""Span tracing installed from outside the program under test.

The traced run wraps the public entry points of each layer (see
:data:`TARGETS`) with timing wrappers *from the benchmark's files*: the
program itself carries no tracing code.  Class attributes and module
functions are patched in the session process before launch, so forked
procs-backend ranks inherit the wrappers.

Each span records layer, name, start, end, parent span, rank and op id.
Spans live in per-thread buffers: every thread aggregates
``(layer, name, phase, in_op) -> [calls, total_s, self_s]`` online and
keeps the full span records of the set-up phase and of the first
:data:`KEEP_OPS` timed ops (the rest are aggregated only, which bounds
memory on long runs).  Self time is a span's duration minus the time
its direct children cover; spans nest on one thread's stack, so the
children never overlap and self time is never negative.  The root span
of each timed op is ``bench.op``: its self time is the op's ``other``
(time no wrapped layer accounts for).
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time

#: Timed ops whose individual spans are kept for the trace file.
KEEP_OPS = 8
#: Set-up spans kept per thread for the trace file.
KEEP_SETUP = 20000

SETUP, TIMED = "setup", "timed"

#: (layer, span name, dotted owner, attribute).  The owner is a class
#: (methods are patched on the class) or a module (the function is
#: replaced in every loaded ``repro`` module that imported it by name).
TARGETS = [
    ("highlevel", "push", "repro.highlevel.Channel", "push"),
    ("highlevel", "pull", "repro.highlevel.Channel", "pull"),
    ("highlevel", "reconfigure", "repro.highlevel", "reconfigure"),
    ("schedule.builder", "cache_get", "repro.schedule.builder.ScheduleCache",
     "get"),
    ("schedule.builder", "build", "repro.schedule.builder",
     "build_region_schedule"),
    ("schedule.plan", "send_plan", "repro.schedule.plan.CommSchedule",
     "send_plan"),
    ("schedule.plan", "recv_plan", "repro.schedule.plan.CommSchedule",
     "recv_plan"),
    ("schedule.indexplan", "gather", "repro.schedule.indexplan.PairPlan",
     "gather"),
    ("schedule.indexplan", "gather", "repro.schedule.indexplan.PairPlan",
     "gather_into"),
    ("schedule.indexplan", "scatter", "repro.schedule.indexplan.PairPlan",
     "scatter"),
    ("schedule.bufpool", "loan", "repro.schedule.bufpool.BufferPool", "loan"),
    ("schedule.executor", "send_step",
     "repro.schedule.executor.PersistentSender", "step"),
    ("schedule.executor", "recv_step",
     "repro.schedule.executor.PersistentReceiver", "step"),
    ("schedule.executor", "execute_intra", "repro.schedule.executor",
     "execute_intra"),
    ("schedule.delta", "apply_local", "repro.schedule.delta.DeltaSchedule",
     "apply_local"),
    ("schedule.delta", "compile", "repro.schedule.delta", "compile_delta"),
    ("simmpi.intercomm", "send", "repro.simmpi.intercomm.Intercommunicator",
     "send"),
    ("simmpi.intercomm", "prepost_recv",
     "repro.simmpi.intercomm.Intercommunicator", "prepost_recv"),
    ("simmpi.communicator", "send",
     "repro.simmpi.communicator.Communicator", "send"),
    ("simmpi.communicator", "barrier",
     "repro.simmpi.communicator.Communicator", "barrier"),
    ("simmpi.communicator", "bcast",
     "repro.simmpi.communicator.Communicator", "bcast"),
    ("simmpi.matching", "deliver", "repro.simmpi.matching.Mailbox",
     "deliver"),
    ("simmpi.matching", "wait", "repro.simmpi.matching.Mailbox",
     "wait_match"),
    ("simmpi.matching", "wait", "repro.simmpi.matching.Mailbox",
     "wait_match_any"),
    ("simmpi.matching", "wait", "repro.simmpi.matching.PrepostSlot", "wait"),
    ("simmpi.runner", "progress", "repro.simmpi.runner.Job", "_bump"),
    ("simmpi.runner", "progress", "repro.simmpi.matching.Mailbox",
     "note_progress"),
    ("simmpi.runner", "progress", "repro.simmpi.shm.SharedState", "bump"),
    ("simmpi.runner", "block_state", "repro.simmpi.runner.Job",
     "_set_block_state"),
    ("simmpi.runner", "block_state", "repro.simmpi.matching.Mailbox",
     "set_block_desc"),
    ("simmpi.runner", "block_state", "repro.simmpi.shm.SharedState",
     "set_blocked"),
    ("simmpi.shm", "encode", "repro.simmpi.shm", "encode_payload"),
    ("simmpi.shm", "decode", "repro.simmpi.shm", "decode_payload"),
    ("prmi.frames", "encode", "repro.prmi.frames", "encode_frame"),
    ("prmi.frames", "decode", "repro.prmi.frames", "decode_frame"),
    ("prmi.serving", "submit", "repro.prmi.serving.InvocationPipeline",
     "submit"),
    ("prmi.serving", "poll", "repro.prmi.serving.InvocationPipeline", "poll"),
    ("prmi.serving", "result_wait", "repro.prmi.serving.InvocationFuture",
     "result"),
    # serve_forever (what callee ranks run) dispatches each ingress
    # event through _handle; serve_events is the same loop, bounded.
    ("prmi.serving", "serve", "repro.prmi.serving.ServerLoop", "_handle"),
    ("prmi.serving", "serve", "repro.prmi.serving.ServerLoop",
     "serve_events"),
    ("prmi.endpoint", "execute_local", "repro.prmi.endpoint.CalleeEndpoint",
     "execute_local"),
    ("util.counters", "add", "repro.util.counters.Counters", "add"),
    ("dad", "local_regions", "repro.dad.descriptor.DistArrayDescriptor",
     "local_regions"),
    ("dad", "allocate", "repro.dad.darray.DistributedArray", "allocate"),
    ("dad", "adopt", "repro.dad.darray.DistributedArray", "adopt"),
]


class _Buffer:
    """One thread's spans: the open-span stack, the online aggregate
    and the kept span records."""

    __slots__ = ("tid", "rank", "op", "phase", "in_op", "stack", "agg",
                 "spans", "next_id", "kept_setup")

    def __init__(self, tid: int):
        self.tid = tid
        self.rank = None
        self.op = -2             # follows the process until bound
        self.phase = SETUP
        self.in_op = False
        self.stack: list[list] = []     # [span id, child time]
        self.agg: dict[tuple, list] = {}
        self.spans: list[tuple] = []
        self.next_id = 0
        self.kept_setup = 0


class Tracer:
    """Per-thread span buffers plus the wrappers that fill them.

    ``bind(rank)`` labels the calling thread (a rank's main thread);
    threads that never bind (the procs pump thread) inherit the label,
    op and phase the process last bound.
    """

    def __init__(self) -> None:
        self._installed = False
        self._forget()
        # a forked procs rank starts with no spans of its parent's
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self.rank = None
        self.op = -1
        self.phase = SETUP

    # -- context -------------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.get_ident())
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def bind(self, rank) -> None:
        """Label this thread's spans with ``rank`` (set-up phase)."""
        buf = self._buffer()
        buf.rank = self.rank = rank
        buf.op = -1
        buf.phase = SETUP

    def set_op(self, op: int, phase: str) -> None:
        """Current op id and phase of this thread (and of the process,
        for threads that never bound)."""
        buf = self._buffer()
        buf.op = self.op = op
        buf.phase = self.phase = phase

    def mark_timed(self) -> None:
        """Switch this process to the timed phase without an op id (a
        callee rank serving requests)."""
        self.phase = TIMED
        buf = self._buffer()
        buf.phase = TIMED

    # -- spans ---------------------------------------------------------------

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        buf = self._buffer()
        if buf.op == -2:                  # unbound thread: follow process
            rank, op, phase = self.rank, self.op, self.phase
        else:
            rank, op, phase = buf.rank, buf.op, buf.phase
        stack = buf.stack
        parent = stack[-1][0] if stack else -1
        sid = buf.next_id
        buf.next_id = sid + 1
        frame = [sid, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            self_s = dur - frame[1]
            if stack:
                stack[-1][1] += dur
            key = (layer, name, phase, buf.in_op)
            a = buf.agg.get(key)
            if a is None:
                buf.agg[key] = [1, dur, self_s]
            else:
                a[0] += 1
                a[1] += dur
                a[2] += self_s
            if phase == TIMED:
                keep = 0 <= op < KEEP_OPS
            else:
                keep = buf.kept_setup < KEEP_SETUP
                buf.kept_setup += keep
            if keep:
                buf.spans.append((sid, parent, layer, name, t0, t1, self_s,
                                  op, rank))

    def op_span(self, fn, *args):
        """The root span of one timed op (``bench.op``); its self time
        is the op's ``other``."""
        buf = self._buffer()
        buf.in_op = True
        try:
            return self.span("bench", "op", fn, *args)
        finally:
            buf.in_op = False

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Patch every target (once per tracer, for the process's life)."""
        if self._installed:
            return
        self._installed = True
        import importlib
        for layer, name, owner_path, attr in TARGETS:
            owner = _resolve(importlib, owner_path)
            if isinstance(owner, type):
                setattr(owner, attr,
                        self._wrap(layer, name, owner.__dict__[attr]))
            else:
                raw = getattr(owner, attr)
                _replace_everywhere(raw, self._wrap(layer, name, raw))
        # the process-wide cache captured the builder as a default
        # argument at class-definition time
        from repro.schedule import builder
        builder.GLOBAL_CACHE._builder = self._wrap(
            "schedule.builder", "build", builder.GLOBAL_CACHE._builder)

    def _wrap(self, layer, name, raw):
        if isinstance(raw, (classmethod, staticmethod)):
            kind = type(raw)
            return kind(self._wrap(layer, name, raw.__func__))
        span = self.span

        @functools.wraps(raw)
        def traced(*args, **kwargs):
            return span(layer, name, raw, *args, **kwargs)
        return traced

    # -- export ----------------------------------------------------------------

    def collect(self) -> dict:
        """This process's buffers in picklable form (a procs rank
        returns this through its result)."""
        with self._lock:
            bufs = list(self._buffers)
        return {"pid": os.getpid(),
                "threads": [{"tid": b.tid, "rank": b.rank,
                             "agg": {"|".join(map(str, k)): v
                                     for k, v in b.agg.items()},
                             "spans": b.spans} for b in bufs]}


def _replace_everywhere(raw, wrapped) -> None:
    """Replace ``raw`` in every loaded ``repro`` module that holds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for key, val in list(vars(mod).items()):
            if val is raw:
                setattr(mod, key, wrapped)


def _resolve(importlib, path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


def merge(collections: list[dict]) -> dict:
    """Sum the per-thread aggregates of several processes into
    ``{(layer, name, phase, in_op): [calls, total_s, self_s]}``."""
    out: dict[tuple, list] = {}
    for coll in collections:
        for th in coll["threads"]:
            for k, v in th["agg"].items():
                layer, name, phase, in_op = k.split("|")
                key = (layer, name, phase, in_op == "True")
                acc = out.setdefault(key, [0, 0.0, 0.0])
                acc[0] += v[0]
                acc[1] += v[1]
                acc[2] += v[2]
    return out


def chrome_events(collections: list[dict], t_origin: float) -> list[dict]:
    """Kept spans as Chrome trace-event ``X`` records (µs since the
    session's launch call)."""
    events = []
    for coll in collections:
        pid = coll["pid"]
        for th in coll["threads"]:
            for (sid, parent, layer, name, t0, t1, self_s, op,
                 rank) in th["spans"]:
                events.append({
                    "name": f"{layer}.{name}", "cat": layer, "ph": "X",
                    "ts": round((t0 - t_origin) * 1e6, 3),
                    "dur": round((t1 - t0) * 1e6, 3),
                    "pid": pid, "tid": th["tid"],
                    "args": {"span": sid, "parent": parent, "rank": rank,
                             "op": op, "self_us": round(self_s * 1e6, 3)},
                })
    return events
