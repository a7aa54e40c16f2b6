"""Per-layer metrics of a traced session.

Each metric is computed from the spans the tracer recorded around a
layer's public entry points and from the program's own counters,
returned by every rank.  Unless its name says otherwise a metric is a
rate per op of the timed phase, summed over every rank and thread
(``us_per_op`` counts a span's whole duration, ``self_us_per_op`` its
self time); ``ms/session`` metrics are set-up totals of the traced
session.  Span times are wall time: on the threads backend the ranks
share one interpreter lock, so a rank's span also counts the time it
waited for the lock, and summing over ranks can exceed the op time of
any one of them.

``MOVES`` records, before any optimisation is measured, which
end-to-end metric each layer metric should move and on which workload;
a layer a workload never enters reads 0 there.
"""

from __future__ import annotations

from tracer import SETUP, TIMED

US, MS = 1e6, 1e3

#: name -> (unit, better, moves: end-to-end metric @ workloads)
MOVES = {
    "highlevel.push.us_per_op": ("us/op", "lower", "op_ms.p50@couple-*"),
    "highlevel.pull.us_per_op": ("us/op", "lower", "op_ms.p50@couple-*"),
    "highlevel.reconfigure.us_per_op":
        ("us/op", "lower", "op_ms.p50@resize-elastic"),
    "schedule.builder.compile_ms":
        ("ms/session", "lower", "setup_s@couple-cyclic,resize-elastic"),
    "schedule.builder.cache_hit_ratio":
        ("ratio", "higher", "setup_s@couple-cyclic,resize-elastic"),
    "schedule.plan.compile_ms":
        ("ms/session", "lower", "setup_s@couple-cyclic"),
    "schedule.plan.rank_plans": ("count", "lower", "setup_s@couple-cyclic"),
    "schedule.plan.pair_plans": ("count", "lower", "setup_s@couple-cyclic"),
    "schedule.indexplan.gather.us_per_op":
        ("us/op", "lower", "op_ms.p50@couple-cyclic,couple-bulk"),
    "schedule.indexplan.gather.calls_per_op":
        ("count/op", "lower", "op_ms.p50@couple-cyclic,couple-bulk"),
    "schedule.indexplan.scatter.us_per_op":
        ("us/op", "lower", "op_ms.p50@couple-cyclic,couple-bulk"),
    "schedule.indexplan.scatter.calls_per_op":
        ("count/op", "lower", "op_ms.p50@couple-cyclic,couple-bulk"),
    "schedule.bufpool.loan.calls_per_op":
        ("count/op", "lower", "cpu_ms_per_op,peak_rss_mb@couple-cyclic"),
    "schedule.bufpool.allocations_per_op":
        ("count/op", "lower", "cpu_ms_per_op,peak_rss_mb@couple-cyclic"),
    "schedule.executor.send_step.self_us_per_op":
        ("us/op", "lower", "ops_per_s@couple-cyclic"),
    "schedule.executor.recv_step.self_us_per_op":
        ("us/op", "lower", "ops_per_s@couple-cyclic"),
    "schedule.executor.execute_intra.self_us_per_op":
        ("us/op", "lower", "ops_per_s@resize-elastic"),
    "schedule.delta.apply_local.us_per_op":
        ("us/op", "lower", "op_ms.p50@resize-elastic"),
    "schedule.delta.compile.us_per_op":
        ("us/op", "lower", "op_ms.p50@resize-elastic"),
    "schedule.delta.migrated_bytes_per_op":
        ("B/op", "lower", "op_ms.p50@resize-elastic"),
    "schedule.delta.kept_bytes_per_op":
        ("B/op", "higher", "op_ms.p50@resize-elastic"),
    "schedule.delta.pairs_reused": ("count", "higher",
                                    "op_ms.p50@resize-elastic"),
    "simmpi.intercomm.send.self_us_per_op":
        ("us/op", "lower", "ops_per_s@couple-cyclic"),
    "simmpi.intercomm.send.calls_per_op":
        ("count/op", "lower", "ops_per_s@couple-cyclic"),
    "simmpi.intercomm.prepost_recv.calls_per_op":
        ("count/op", "lower", "ops_per_s@couple-cyclic"),
    "simmpi.communicator.send.self_us_per_op":
        ("us/op", "lower", "op_ms.p50@resize-elastic"),
    "simmpi.communicator.send.calls_per_op":
        ("count/op", "lower", "op_ms.p50@resize-elastic"),
    "simmpi.communicator.barrier.us_per_op":
        ("us/op", "lower", "op_ms.p50@resize-elastic"),
    "simmpi.communicator.bcast.us_per_op":
        ("us/op", "lower", "op_ms.p50@resize-elastic"),
    "simmpi.matching.deliver.self_us_per_op":
        ("us/op", "lower", "op_ms.p50@couple-cyclic,prmi-pipelined"),
    "simmpi.matching.wait.us_per_op":
        ("us/op", "lower", "op_ms.p50@couple-cyclic,prmi-pipelined"),
    "simmpi.matching.messages_matched_per_op":
        ("count/op", "lower", "op_ms.p50@couple-cyclic,prmi-pipelined"),
    "simmpi.matching.rendezvous_waits_per_op":
        ("count/op", "lower", "op_ms.p50@couple-cyclic,prmi-pipelined"),
    "simmpi.matching.direct_deliveries_per_op":
        ("count/op", "higher", "op_ms.p50@couple-cyclic,prmi-pipelined"),
    "simmpi.runner.progress.calls_per_op":
        ("count/op", "lower", "cpu_ms_per_op,ops_per_s@couple-cyclic"),
    "simmpi.runner.progress.us_per_op":
        ("us/op", "lower", "cpu_ms_per_op,ops_per_s@couple-cyclic"),
    "simmpi.runner.block_state.calls_per_op":
        ("count/op", "lower", "cpu_ms_per_op,ops_per_s@couple-cyclic"),
    "simmpi.shm.encode.us_per_op":
        ("us/op", "lower", "ops_per_s,cpu_ms_per_op@couple-bulk"),
    "simmpi.shm.decode.us_per_op":
        ("us/op", "lower", "ops_per_s,cpu_ms_per_op@couple-bulk"),
    "simmpi.shm.slot_byte_ratio":
        ("ratio", "higher", "ops_per_s,cpu_ms_per_op@couple-bulk"),
    "simmpi.shm.oversize_per_op":
        ("count/op", "lower", "ops_per_s,cpu_ms_per_op@couple-bulk"),
    "simmpi.shm.ring_full_per_op":
        ("count/op", "lower", "op_ms.p50@prmi-pipelined"),
    "simmpi.shm.slot_allocations_per_op":
        ("count/op", "lower", "ops_per_s,cpu_ms_per_op@couple-bulk"),
    "simmpi.payload.copies_per_wire_byte":
        ("ratio", "lower", "ops_per_s,peak_rss_mb@couple-bulk"),
    "simmpi.payload.alloc_bytes_per_op":
        ("B/op", "lower", "ops_per_s,peak_rss_mb@couple-bulk"),
    "prmi.frames.encode.us_per_op":
        ("us/op", "lower", "ops_per_s@prmi-pipelined"),
    "prmi.frames.decode.us_per_op":
        ("us/op", "lower", "ops_per_s@prmi-pipelined"),
    "prmi.frames.occupancy": ("ratio", "higher", "ops_per_s@prmi-pipelined"),
    "prmi.serving.submit.self_us_per_op":
        ("us/op", "lower", "op_ms.p50,ops_per_s@prmi-pipelined"),
    "prmi.serving.poll.self_us_per_op":
        ("us/op", "lower", "op_ms.p50,ops_per_s@prmi-pipelined"),
    "prmi.serving.serve.self_us_per_op":
        ("us/op", "lower", "op_ms.p50,ops_per_s@prmi-pipelined"),
    "prmi.serving.result_wait.us_per_op":
        ("us/op", "lower", "op_ms.p50,ops_per_s@prmi-pipelined"),
    "prmi.serving.flush_full_per_frame":
        ("ratio", "higher", "op_ms.p50,ops_per_s@prmi-pipelined"),
    "prmi.serving.flush_deadline_per_frame":
        ("ratio", "lower", "op_ms.p50,ops_per_s@prmi-pipelined"),
    "prmi.serving.flush_forced_per_frame":
        ("ratio", "lower", "op_ms.p50,ops_per_s@prmi-pipelined"),
    "prmi.serving.overloads_per_op":
        ("count/op", "lower", "op_ms.p50,ops_per_s@prmi-pipelined"),
    "prmi.serving.peak_inflight": ("count", "lower",
                                   "op_ms.p50,ops_per_s@prmi-pipelined"),
    "prmi.endpoint.execute_local.self_us_per_op":
        ("us/op", "lower", "ops_per_s@prmi-pipelined"),
    "prmi.endpoint.method.us_per_op":
        ("us/op", "lower", "ops_per_s@prmi-pipelined"),
    "util.counters.add.calls_per_op":
        ("count/op", "lower", "cpu_ms_per_op@couple-cyclic,prmi-pipelined"),
    "util.counters.add.us_per_op":
        ("us/op", "lower", "cpu_ms_per_op@couple-cyclic,prmi-pipelined"),
    "dad.local_regions.ms_setup":
        ("ms/session", "lower", "setup_s@couple-cyclic"),
    "dad.allocate.us_per_op": ("us/op", "lower", "op_ms.p50@resize-elastic"),
    "dad.adopt.us_per_op": ("us/op", "lower", "op_ms.p50@resize-elastic"),
    "trace.op.us_per_op": ("us/op", "lower", "op_ms.p50@all"),
    "trace.other.us_per_op": ("us/op", "lower", "op_ms.p50@all"),
    "trace.overhead_ratio": ("ratio", "lower", "none: tracing cost"),
}


class _Spans:
    """Sums over the merged aggregate of one traced session."""

    def __init__(self, agg: dict):
        self.agg = agg

    def get(self, layer, name, field, phase=TIMED) -> float:
        idx = {"calls": 0, "total": 1, "self": 2}[field]
        return sum(v[idx] for (lay, nam, ph, _), v in self.agg.items()
                   if lay == layer and nam == name and ph == phase)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def compute(agg: dict, timed: dict, total: dict, peak_inflight: int,
            ops: int, wire_bytes_per_op: float,
            overhead_ratio: float) -> dict:
    """Every per-layer metric of :data:`MOVES`, by name."""
    s = _Spans(agg)
    per = 1.0 / ops

    def us(layer, name, field="total"):
        return s.get(layer, name, field) * US * per

    def calls(layer, name):
        return s.get(layer, name, "calls") * per

    def setup_ms(layer, name):
        return s.get(layer, name, "total", phase=SETUP) * MS

    def c(key):
        return timed.get(key, 0) * per

    frames = timed.get("prmi.frames_sent", 0)
    slot_b = timed.get("transport.shm_slot_bytes", 0)
    inline_b = timed.get("transport.shm_inline_bytes", 0)
    hits, misses = total.get("cache.hits", 0), total.get("cache.misses", 0)
    m = {
        "highlevel.push.us_per_op": us("highlevel", "push"),
        "highlevel.pull.us_per_op": us("highlevel", "pull"),
        "highlevel.reconfigure.us_per_op": us("highlevel", "reconfigure"),
        "schedule.builder.compile_ms": setup_ms("schedule.builder", "build"),
        "schedule.builder.cache_hit_ratio": _ratio(hits, hits + misses),
        "schedule.plan.compile_ms": (setup_ms("schedule.plan", "send_plan")
                                     + setup_ms("schedule.plan",
                                                "recv_plan")),
        "schedule.plan.rank_plans": float(total.get("plan.rank_plans", 0)),
        "schedule.plan.pair_plans": float(total.get("plan.pair_plans", 0)),
        "schedule.indexplan.gather.us_per_op":
            us("schedule.indexplan", "gather"),
        "schedule.indexplan.gather.calls_per_op":
            calls("schedule.indexplan", "gather"),
        "schedule.indexplan.scatter.us_per_op":
            us("schedule.indexplan", "scatter"),
        "schedule.indexplan.scatter.calls_per_op":
            calls("schedule.indexplan", "scatter"),
        "schedule.bufpool.loan.calls_per_op":
            calls("schedule.bufpool", "loan"),
        "schedule.bufpool.allocations_per_op": c("pool.allocations"),
        "schedule.executor.send_step.self_us_per_op":
            us("schedule.executor", "send_step", "self"),
        "schedule.executor.recv_step.self_us_per_op":
            us("schedule.executor", "recv_step", "self"),
        "schedule.executor.execute_intra.self_us_per_op":
            us("schedule.executor", "execute_intra", "self"),
        "schedule.delta.apply_local.us_per_op":
            us("schedule.delta", "apply_local"),
        "schedule.delta.compile.us_per_op": us("schedule.delta", "compile"),
        "schedule.delta.migrated_bytes_per_op": c("redist.migrated_bytes"),
        "schedule.delta.kept_bytes_per_op": c("redist.kept_bytes"),
        "schedule.delta.pairs_reused":
            float(total.get("redist.pairs_reused", 0)),
        "simmpi.intercomm.send.self_us_per_op":
            us("simmpi.intercomm", "send", "self"),
        "simmpi.intercomm.send.calls_per_op":
            calls("simmpi.intercomm", "send"),
        "simmpi.intercomm.prepost_recv.calls_per_op":
            calls("simmpi.intercomm", "prepost_recv"),
        "simmpi.communicator.send.self_us_per_op":
            us("simmpi.communicator", "send", "self"),
        "simmpi.communicator.send.calls_per_op":
            calls("simmpi.communicator", "send"),
        "simmpi.communicator.barrier.us_per_op":
            us("simmpi.communicator", "barrier"),
        "simmpi.communicator.bcast.us_per_op":
            us("simmpi.communicator", "bcast"),
        "simmpi.matching.deliver.self_us_per_op":
            us("simmpi.matching", "deliver", "self"),
        "simmpi.matching.wait.us_per_op": us("simmpi.matching", "wait"),
        "simmpi.matching.messages_matched_per_op":
            c("transport.messages_matched"),
        "simmpi.matching.rendezvous_waits_per_op":
            c("transport.rendezvous_waits"),
        "simmpi.matching.direct_deliveries_per_op":
            c("transport.direct_deliveries"),
        "simmpi.runner.progress.calls_per_op":
            calls("simmpi.runner", "progress"),
        "simmpi.runner.progress.us_per_op": us("simmpi.runner", "progress"),
        "simmpi.runner.block_state.calls_per_op":
            calls("simmpi.runner", "block_state"),
        "simmpi.shm.encode.us_per_op": us("simmpi.shm", "encode"),
        "simmpi.shm.decode.us_per_op": us("simmpi.shm", "decode"),
        "simmpi.shm.slot_byte_ratio": _ratio(slot_b, slot_b + inline_b),
        "simmpi.shm.oversize_per_op": c("slots.oversize"),
        "simmpi.shm.ring_full_per_op": c("slots.ring_full"),
        "simmpi.shm.slot_allocations_per_op": c("slots.allocations"),
        "simmpi.payload.copies_per_wire_byte": _ratio(
            c("transport.bytes_copied"), wire_bytes_per_op),
        "simmpi.payload.alloc_bytes_per_op": c("transport.alloc_bytes"),
        "prmi.frames.encode.us_per_op": us("prmi.frames", "encode"),
        "prmi.frames.decode.us_per_op": us("prmi.frames", "decode"),
        "prmi.frames.occupancy": _ratio(timed.get("prmi.frame_requests", 0),
                                        frames),
        "prmi.serving.submit.self_us_per_op":
            us("prmi.serving", "submit", "self"),
        "prmi.serving.poll.self_us_per_op":
            us("prmi.serving", "poll", "self"),
        "prmi.serving.serve.self_us_per_op":
            us("prmi.serving", "serve", "self"),
        "prmi.serving.result_wait.us_per_op":
            us("prmi.serving", "result_wait"),
        "prmi.serving.flush_full_per_frame":
            _ratio(timed.get("prmi.flush_full", 0), frames),
        "prmi.serving.flush_deadline_per_frame":
            _ratio(timed.get("prmi.flush_deadline", 0), frames),
        "prmi.serving.flush_forced_per_frame":
            _ratio(timed.get("prmi.flush_forced", 0), frames),
        "prmi.serving.overloads_per_op": c("prmi.overloads"),
        "prmi.serving.peak_inflight": float(peak_inflight),
        "prmi.endpoint.execute_local.self_us_per_op":
            us("prmi.endpoint", "execute_local", "self"),
        "prmi.endpoint.method.us_per_op": us("prmi.endpoint", "method"),
        "util.counters.add.calls_per_op": calls("util.counters", "add"),
        "util.counters.add.us_per_op": us("util.counters", "add"),
        "dad.local_regions.ms_setup": setup_ms("dad", "local_regions"),
        "dad.allocate.us_per_op": us("dad", "allocate"),
        "dad.adopt.us_per_op": us("dad", "adopt"),
        "trace.op.us_per_op": us("bench", "op"),
        "trace.other.us_per_op": us("bench", "op", "self"),
        "trace.overhead_ratio": overhead_ratio,
    }
    return m


def self_time_table(agg: dict, ops: int) -> list[tuple[str, float, float,
                                                       float]]:
    """Per layer: self time inside ops, self time outside ops (other
    threads: callee ranks, procs pump threads) and calls, all per op of
    the timed phase.  The ``other`` row is the ops' uncovered time, so
    the in-op column sums to the traced op time."""
    rows: dict[str, list[float]] = {}
    for (layer, _name, phase, in_op), (n, _tot, self_s) in agg.items():
        if phase != TIMED:
            continue
        key = "other" if layer == "bench" else layer
        row = rows.setdefault(key, [0.0, 0.0, 0.0])
        row[0 if in_op else 1] += self_s * US / ops
        if layer != "bench":
            row[2] += n / ops
    return sorted(((k, *v) for k, v in rows.items()),
                  key=lambda r: -(r[1] + r[2]))
