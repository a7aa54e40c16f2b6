"""The procs execution backend: ranks as processes, payloads in shared
memory.

Everything here runs the *same* rank functions the threads backend runs
— the point of the Transport abstraction is that matching semantics,
collectives, intercommunicators and the persistent engines are backend
invariants.  The procs-only mechanics (slot rings, inline fallbacks,
cross-process watchdog and abort propagation, broker rendezvous) get
targeted coverage.
"""

import os
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dad import (
    CartesianTemplate,
    Cyclic,
    DistArrayDescriptor,
    DistributedArray,
)
from repro.errors import CommunicatorError, DeadlockError, SpmdError
from repro.highlevel import Coupler
from repro.schedule import build_region_schedule
from repro.simmpi import run_coupled, run_spmd
from repro.simmpi import payload
from repro.simmpi.intercomm import default_nameservice
from repro.simmpi.transport import resolve_backend
from repro.util.counters import TRANSPORT_STATS

BACKENDS = ["threads", "procs"]


def _ring(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    data = np.arange(5000, dtype=np.float64) * (comm.rank + 1)
    comm.send(data, right, tag=3)
    got = comm.recv(left, tag=3)
    return float(got.sum()) + comm.allreduce(comm.rank)


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_ring_exchange_identical_across_backends(backend):
    assert run_spmd(3, _ring, backend=backend) == run_spmd(3, _ring)


def test_procs_ranks_are_real_processes():
    pids = run_spmd(3, lambda comm: os.getpid(), backend="procs")
    assert len(set(pids)) == 3
    assert os.getpid() not in pids


def test_backend_env_var_selects_procs(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "procs")
    assert resolve_backend(None) == "procs"
    pids = run_spmd(2, lambda comm: os.getpid())
    assert os.getpid() not in pids
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("fibers")


def _collectives(comm):
    root_val = comm.bcast({"shape": (4, 5)} if comm.rank == 0 else None)
    gathered = comm.gather(comm.rank * 10)
    counts = [comm.rank + 1] * comm.size
    buf = np.full(sum(counts), float(comm.rank))
    swapped = comm.alltoallv(buf, counts)
    total = comm.allreduce(float(swapped.sum()))
    return root_val, gathered, total


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_collectives_identical_across_backends(backend):
    assert (run_spmd(3, _collectives, backend=backend)
            == run_spmd(3, _collectives))


def _value_semantics(comm):
    if comm.rank == 0:
        arr = np.ones(4000)          # > inline threshold: slot path
        comm.send(arr, 1, tag=1)
        arr[:] = -1.0                # mutate after send
        small = np.ones(4)           # <= inline threshold
        comm.send(small, 1, tag=2)
        small[:] = -1.0
        obj = {"k": [1, 2]}
        comm.send(obj, 1, tag=3)
        obj["k"].append(3)
        return None
    a = comm.recv(0, tag=1)
    b = comm.recv(0, tag=2)
    c = comm.recv(0, tag=3)
    return float(a.sum()), float(b.sum()), c


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_send_isolates_payloads(backend):
    """Mutating any payload after send must never reach the receiver —
    on procs the slot/pickle write is the isolating copy, on threads the
    defensive copy is."""
    out = run_spmd(2, _value_semantics, backend=backend)
    assert out[1] == (4000.0, 4.0, {"k": [1, 2]})


def _oversize(comm):
    from repro.simmpi.procs import slot_stats
    peer = 1 - comm.rank
    data = np.arange(4096, dtype=np.float64) + comm.rank  # 32 KiB = 8 slots
    comm.send(data, peer, tag=9)
    got = comm.recv(peer, tag=9)
    return got, slot_stats()


def test_procs_oversize_payload_streams_through_ring():
    """A payload larger than a slot streams through the sender's ring —
    here 4x the whole ring, so the sender must wait for the receiver's
    pump to recycle slots mid-message — with no per-message allocation."""
    out = run_spmd(2, _oversize, backend="procs",
                   transport_opts={"slot_bytes": 4096,
                                   "slots_per_endpoint": 2})
    for rank, (got, stats) in enumerate(out):
        want = np.arange(4096, dtype=np.float64) + (1 - rank)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert stats["oversize"] >= 1
        assert stats["allocations"] == 0
        assert stats.get("stream_waits", 0) >= 1


#: Property-test ring: 2 slots of 4 KiB per sending endpoint.
_PROP_SLOT, _PROP_DEPTH = 4096, 2
_PROP_RING = _PROP_SLOT * _PROP_DEPTH


def _make_payload(kind: str, nbytes: int, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "bytes":
        return rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes()
    if kind == "dict":
        return {"seed": seed, "blob": rng.bytes(nbytes), "n": [nbytes]}
    if kind == "0d":
        return np.array(rng.standard_normal(), dtype=np.float64)
    if kind == "strided":
        # every other element of a C-order block: non-contiguous
        base = rng.standard_normal(2 * max(nbytes // 8, 1))
        return base.reshape(-1, 2)[:, 0]
    dtype = np.dtype(kind)
    n = nbytes // dtype.itemsize
    if dtype.kind == "c":
        return (rng.standard_normal(n)
                + 1j * rng.standard_normal(n)).astype(dtype)
    if dtype.kind == "i":
        return rng.integers(-128, 128, n).astype(dtype)
    return rng.standard_normal(n).astype(dtype)


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    return type(a) is type(b) and a == b


def _stream_storm(comm, plans):
    """Ranks 0 and 1 each send their plan's payloads to rank 2, every
    one followed by a small message on the same (context, tag); rank 2
    drains both streams from ANY_SOURCE and returns what it got, per
    source, in arrival order."""
    if comm.rank < 2:
        for i, (kind, nbytes, seed) in enumerate(plans[comm.rank]):
            comm.send(_make_payload(kind, nbytes, seed), 2, tag=5)
            comm.send(("small", comm.rank, i), 2, tag=5)
        return None
    got = {0: [], 1: []}
    for _ in range(2 * (len(plans[0]) + len(plans[1]))):
        val, st = comm.recv(tag=5, return_status=True)
        got[st.source].append(val)
    return got


_PAYLOAD = st.tuples(
    st.sampled_from(["int8", "float32", "complex128", "strided", "0d",
                     "bytes", "dict"]),
    st.integers(0, 3 * _PROP_RING),
    st.integers(0, 2**16))


@settings(max_examples=12, deadline=None)
@given(plans=st.tuples(st.lists(_PAYLOAD, min_size=1, max_size=4),
                       st.lists(_PAYLOAD, min_size=1, max_size=4)))
def test_procs_streaming_property_two_senders_one_receiver(plans):
    """Two senders stream payloads of 0..3x the ring at one receiver at
    once, interleaved with small messages on the same (context, tag):
    every payload arrives byte-identical and each source's messages
    arrive in send order."""
    out = run_spmd(3, _stream_storm, plans, backend="procs",
                   transport_opts={"slot_bytes": _PROP_SLOT,
                                   "slots_per_endpoint": _PROP_DEPTH})
    got = out[2]
    for src in (0, 1):
        want = []
        for i, (kind, nbytes, seed) in enumerate(plans[src]):
            want += [_make_payload(kind, nbytes, seed), ("small", src, i)]
        assert len(got[src]) == len(want)
        for a, b in zip(want, got[src]):
            assert _same(a, b)


def _raise_mid_stream(comm):
    if comm.rank == 0:
        comm.send(np.ones(8192), 1, tag=1)            # 64 KiB
        comm.send(np.ones(1 << 22), 1, tag=2)         # 32 MiB, 8 KiB ring
        return None
    comm.recv(0, tag=1)
    raise ValueError("receiver exploded")


def test_procs_receiver_crash_fails_blocked_stream_fast():
    """A receiver that raises while its peer is mid-stream, blocked on
    a full ring, is reported as that crash — promptly, not as a
    watchdog deadlock after the stall timeout."""
    t0 = time.monotonic()
    with pytest.raises(SpmdError) as ei:
        run_spmd(2, _raise_mid_stream, backend="procs",
                 transport_opts={"slot_bytes": 4096,
                                 "slots_per_endpoint": 2})
    elapsed = time.monotonic() - t0
    failures = ei.value.failures
    assert isinstance(failures[1], ValueError)
    assert "exploded" in str(failures[1])
    assert isinstance(failures[0], DeadlockError)
    assert "stream_send" in str(failures[0])
    assert "rank 1 raised ValueError" in str(failures[0])
    assert "watchdog" not in str(ei.value)
    assert elapsed < 2.0


def test_segment_pool_ring_exhaustion_and_reuse():
    from repro.simmpi.shm import SegmentPool
    pool = SegmentPool(1, slot_bytes=128, slots_per_endpoint=2)
    try:
        a = pool.acquire(0)
        b = pool.acquire(0)
        assert a is not None and b is not None and a != b
        assert pool.acquire(0) is None          # ring full -> fallback
        assert pool.stats.get("ring_full") == 1
        pool.release(a)
        assert pool.acquire(0) == a             # slots recycle in place
        view = pool.slot_view(a, 16)
        view[:] = 42
        assert (pool.slot_view(a, 16) == 42).all()
    finally:
        pool.close()
        pool.unlink()


def test_segment_pool_acquire_run_takes_contiguous_free_slots():
    from repro.simmpi.shm import SegmentPool
    pool = SegmentPool(2, slot_bytes=128, slots_per_endpoint=4)
    try:
        assert pool.acquire_run(1, 3) == (4, 3)   # endpoint 1's ring
        assert pool.acquire_run(1, 3) == (7, 1)   # cut at the ring end
        assert pool.acquire_run(1, 1) is None     # ring full
        assert pool.stats.get("ring_full") == 0   # only acquire counts it
        pool.release(5)
        assert pool.acquire_run(1, 2) == (5, 1)   # 6 still busy
        view = pool.slot_view(4, 3 * 128, run=3)
        view[:] = 7
        assert (pool.slot_view(6, 128) == 7).all()
        with pytest.raises(ValueError, match="does not fit"):
            pool.slot_view(4, 3 * 128 + 1, run=3)
    finally:
        pool.close()
        pool.unlink()


def _steady_state(comm):
    from repro.simmpi.procs import slot_stats
    peer = 1 - comm.rank
    data = np.arange(8192, dtype=np.float64)  # 64 KB: slot-ring path
    for _ in range(2):                         # warm-up
        comm.send(data, peer, tag=4)
        comm.recv(peer, tag=4)
    before = slot_stats()
    for _ in range(10):
        comm.send(data, peer, tag=4)
        comm.recv(peer, tag=4)
    after = slot_stats()
    return (after["allocations"] - before.get("allocations", 0),
            after["reuses"] - before["reuses"])


def test_procs_zero_steady_state_slot_allocations():
    """The PR 3 guarantee, ported: once the ring is warm, a steady
    send/recv loop draws every payload from recycled slots."""
    for allocs, reuses in run_spmd(2, _steady_state, backend="procs"):
        assert allocs == 0
        assert reuses == 10


def _crasher(comm):
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    comm.recv(1, tag=99)  # would block forever without abort propagation


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_crash_aborts_blocked_peers(backend):
    with pytest.raises(SpmdError) as ei:
        run_spmd(3, _crasher, backend=backend, deadlock_timeout=3.0)
    failures = ei.value.failures
    assert isinstance(failures[1], ValueError)
    assert "exploded" in str(failures[1])
    for r in (0, 2):  # aborted, not hung
        assert isinstance(failures[r], DeadlockError)


def _mutual_deadlock(comm):
    comm.recv((comm.rank + 1) % comm.size, tag=1)


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_watchdog_detects_cross_process_deadlock(backend):
    with pytest.raises(SpmdError) as ei:
        run_spmd(2, _mutual_deadlock, backend=backend,
                 deadlock_timeout=1.0)
    for exc in ei.value.failures.values():
        assert isinstance(exc, DeadlockError)
        assert "watchdog" in str(exc)


def _raw_sender(comm):
    comm.send(payload.Raw(object()), 1 - comm.rank, tag=1)


def test_procs_rejects_raw_payloads_across_processes():
    with pytest.raises(SpmdError) as ei:
        run_spmd(2, _raw_sender, backend="procs", deadlock_timeout=3.0)
    assert any(isinstance(e, CommunicatorError)
               and "process-local" in str(e)
               for e in ei.value.failures.values())


# -- run_coupled failure paths (both backends) -------------------------------


def _coupled_crasher(comm):
    raise ValueError("producer died before coupling")


def _coupled_blocker(comm):
    comm.recv(0, tag=5, timeout=30)


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_coupled_crash_aborts_peer_job_and_names_ranks(backend):
    """One job crashing while its peer blocks in a receive must abort
    both jobs, and the SpmdError must name failures '{job} rank {r}'
    with the originating exception surfaced."""
    with pytest.raises(SpmdError) as ei:
        run_coupled([("alpha", 1, _coupled_crasher, ()),
                     ("beta", 1, _coupled_blocker, ())],
                    deadlock_timeout=3.0, backend=backend)
    failures = ei.value.failures
    assert set(failures) == {"alpha rank 0", "beta rank 0"}
    assert isinstance(failures["alpha rank 0"], ValueError)
    assert "producer died" in str(failures["alpha rank 0"])
    assert isinstance(failures["beta rank 0"], DeadlockError)
    assert "alpha rank 0" in str(ei.value)


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_coupled_cross_job_deadlock_dump_names_jobs(backend):
    def stuck(comm):
        comm.recv(0, tag=1)

    with pytest.raises(SpmdError) as ei:
        run_coupled([("left", 1, stuck, ()), ("right", 1, stuck, ())],
                    deadlock_timeout=1.0, backend=backend)
    dumps = [e.blocked for e in ei.value.failures.values()
             if isinstance(e, DeadlockError)]
    assert dumps
    for blocked in dumps:
        assert set(blocked) == {"left rank 0", "right rank 0"}


def test_spmd_error_formats_string_and_int_keys():
    err = SpmdError({"alpha rank 1": ValueError("x"), 0: KeyError("y")})
    msg = str(err)
    assert "alpha rank 1: ValueError" in msg
    assert "rank 0: KeyError" in msg


# -- coupled persistent channels over the procs backend ----------------------

_EXT = 3600
_SRC_DESC = DistArrayDescriptor(CartesianTemplate([Cyclic(_EXT, 2)]))
_DST_DESC = DistArrayDescriptor(CartesianTemplate([Cyclic(_EXT, 3)]))
_GLOBAL = np.arange(float(_EXT))


def _producer(comm):
    coupler = Coupler("procs-chan", default_nameservice)
    da = DistributedArray.from_global(_SRC_DESC, comm.rank, _GLOBAL)
    chan = coupler.open(comm, "source", da)
    for _ in range(3):
        chan.push()
    return chan.pool_stats.get("allocations", 0)


def _consumer(comm):
    coupler = Coupler("procs-chan", default_nameservice)
    chan = coupler.open(comm, "destination", _DST_DESC)
    for _ in range(3):
        out = chan.pull()
    return out


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_persistent_channel_byte_identical_across_backends(backend):
    """highlevel.Channel selects the backend transparently: rendezvous
    through the broker, payloads through the slot rings, pooled packs
    stay allocation-free."""
    res = run_coupled([("prod", 2, _producer, ()),
                       ("cons", 3, _consumer, ())],
                      deadlock_timeout=30.0, backend=backend)
    np.testing.assert_array_equal(
        DistributedArray.assemble(res["cons"]), _GLOBAL)
    assert res["prod"] == [0, 0]               # zero pool allocations


def _engine_producer(comm, steps):
    inter = default_nameservice.accept("procs-direct", comm)
    da = DistributedArray.from_global(_SRC_DESC, comm.rank, _GLOBAL)
    tx = build_region_schedule(_SRC_DESC, _DST_DESC).persistent_sender(
        inter, da, tag=61)
    for _ in range(steps):
        for d in range(_DST_DESC.nranks):      # wait until every consumer
            inter.recv(d, tag=62)              # has preposted its slots
        tx.step()


def _engine_consumer(comm, steps):
    inter = default_nameservice.connect("procs-direct", comm)
    da = DistributedArray.allocate(_DST_DESC, comm.rank)
    rx = build_region_schedule(_SRC_DESC, _DST_DESC).persistent_receiver(
        inter, da, tag=61)
    d0 = TRANSPORT_STATS.get("direct_deliveries")
    for _ in range(steps):
        rx.arm()
        for s in range(_SRC_DESC.nranks):
            inter.send(None, s, tag=62)
        rx.complete(timeout=30)
    return da, TRANSPORT_STATS.get("direct_deliveries") - d0


@pytest.mark.parametrize("backend", BACKENDS,
                         ids=[f"backend-{b}" for b in BACKENDS])
def test_prepost_direct_delivery_across_backends(backend):
    """With arm-before-send ordering made explicit (consumers signal
    after preposting), every payload must land straight in destination
    memory — on procs that means scattering directly out of the shared
    slot, never staging through the mailbox queue."""
    res = run_coupled([("prod", 2, _engine_producer, (2,)),
                       ("cons", 3, _engine_consumer, (2,))],
                      deadlock_timeout=30.0, backend=backend)
    parts = [p for p, _ in res["cons"]]
    np.testing.assert_array_equal(
        DistributedArray.assemble(parts), _GLOBAL)
    for _, direct in res["cons"]:
        assert direct > 0                      # preposts actually hit


def test_distributed_array_pickle_preserves_consolidation():
    """The procs backend ships DistributedArrays between processes;
    pickling must rebuild patch views aliasing one consolidated base."""
    da = DistributedArray.from_global(_SRC_DESC, 0, _GLOBAL)
    clone = pickle.loads(pickle.dumps(da))
    np.testing.assert_array_equal(clone.flat_local(), da.flat_local())
    base = clone.flat_local()
    base[:] = -7.0
    for view in clone.patches.values():
        assert (view == -7.0).all()            # views alias the base


def _rendezvous_pair(comm, side):
    if side == "acc":
        inter = default_nameservice.accept("procs-rdv", comm)
        inter.send(np.full(100, float(comm.rank)), comm.rank, tag=2)
        return float(inter.recv(comm.rank, tag=3).sum())
    inter = default_nameservice.connect("procs-rdv", comm)
    got = inter.recv(comm.rank, tag=2)
    inter.send(got * 2, comm.rank, tag=3)
    return float(got.sum())


def test_procs_nameservice_rendezvous_both_directions():
    res = run_coupled(
        [("acc", 2, _rendezvous_pair, ("acc",)),
         ("conn", 2, _rendezvous_pair, ("conn",))],
        deadlock_timeout=10.0, backend="procs")
    assert res["conn"] == [0.0, 100.0]
    assert res["acc"] == [0.0, 200.0]


# -- one-sided RMA tier over the procs backend -------------------------------


def _rma_producer(comm, steps, crash_rank=None):
    coupler = Coupler("procs-rma", default_nameservice)
    da = DistributedArray.from_global(_SRC_DESC, comm.rank, _GLOBAL)
    chan = coupler.open(comm, "source", da, one_sided=True)
    stats0 = dict(TRANSPORT_STATS.snapshot())
    for s in range(1, steps + 1):
        if crash_rank is not None and comm.rank == crash_rank:
            raise RuntimeError("producer died mid-epoch")
        da.fill(float(s))
        chan.push()
    mode = chan.mode
    chan.close()
    delta = {k: v - stats0.get(k, 0)
             for k, v in TRANSPORT_STATS.snapshot().items()}
    return mode, delta


def _rma_consumer(comm, steps):
    coupler = Coupler("procs-rma", default_nameservice)
    chan = coupler.open(comm, "destination", _DST_DESC, one_sided=True)
    generations = []
    for _ in range(steps):
        da = chan.pull()
        values = da.flat_local()
        # seqlock property: between fence(k) and epoch_open(k+1) the
        # array is generation k in full — never a mix of generations.
        assert np.all(values == values[0]), "torn read across epochs"
        generations.append(float(values[0]))
    mode = chan.mode
    chan.close()
    return mode, generations, chan.array


def test_rma_channel_byte_identical_and_message_free():
    """The tentpole acceptance path: a one-sided persistent channel on
    real processes — every pull observes exactly one generation (no
    torn reads), steady-state steps match zero messages, and the data
    plane is carried entirely by puts."""
    steps = 3
    res = run_coupled([("prod", 2, _rma_producer, (steps,)),
                       ("cons", 3, _rma_consumer, (steps,))],
                      deadlock_timeout=30.0, backend="procs")
    assert [m for m, _ in res["prod"]] == ["rma", "rma"]
    assert [m for m, _, _ in res["cons"]] == ["rma"] * 3
    # lockstep epochs: pull s observes exactly generation s
    for _, generations, _ in res["cons"]:
        assert generations == [float(s) for s in range(1, steps + 1)]
    # the evacuated arrays still assemble to the final generation
    parts = [arr for _, _, arr in res["cons"]]
    np.testing.assert_array_equal(
        DistributedArray.assemble(parts), np.full(_EXT, float(steps)))
    for _, delta in res["prod"]:
        pairs = sum(1 for _ in range(_DST_DESC.nranks))  # 3 peers/rank
        assert delta.get("rma_puts", 0) == steps * pairs
        # after the bootstrap handles, the data plane matches nothing:
        # per steady-state step the producer matches 0 messages
        assert delta.get("messages_matched", 0) <= pairs + 1


def test_rma_crash_mid_epoch_propagates_abort():
    """A producer dying before its put must not hang the consumers'
    fences: the domain abort reaches the spinning ranks and surfaces
    as the watchdog's deadlock report, not a silent stall."""
    with pytest.raises(SpmdError) as ei:
        run_coupled([("prod", 2, _rma_producer, (2, 1)),
                     ("cons", 3, _rma_consumer, (2,))],
                    deadlock_timeout=8.0, backend="procs")
    failures = ei.value.failures
    assert any("producer died mid-epoch" in str(e)
               for e in failures.values())
    # every consumer unblocked with an error instead of spinning forever
    cons_keys = [k for k in failures if str(k).startswith("cons")]
    assert cons_keys


# -- transport counters and tunables -----------------------------------------


def test_matching_counters_track_rendezvous_cost():
    """messages_matched counts every envelope hand-off; rendezvous_waits
    counts only receives that actually blocked — the two-sided costs the
    one-sided tier exists to delete."""
    from repro.simmpi import run_spmd as _run

    def main(comm):
        m0 = TRANSPORT_STATS.get("messages_matched")
        w0 = TRANSPORT_STATS.get("rendezvous_waits")
        if comm.rank == 0:
            comm.recv(source=1)                 # blocks: nothing in flight
        else:
            comm.send(np.zeros(8), dest=0)
        comm.barrier()
        return (TRANSPORT_STATS.get("messages_matched") - m0,
                TRANSPORT_STATS.get("rendezvous_waits") - w0)

    matched, waited = _run(2, main)[0]          # rank 0: the receiver
    assert matched >= 1
    assert waited >= 1


def test_inline_max_env_validation(monkeypatch):
    from repro.simmpi.shm import _inline_max_from_env

    assert _inline_max_from_env() == 2048       # documented default
    monkeypatch.setenv("REPRO_SHM_INLINE_MAX", "4096")
    assert _inline_max_from_env() == 4096
    monkeypatch.setenv("REPRO_SHM_INLINE_MAX", "0")
    assert _inline_max_from_env() == 0          # 0 = never inline
    monkeypatch.setenv("REPRO_SHM_INLINE_MAX", "-1")
    with pytest.raises(ValueError):
        _inline_max_from_env()
    monkeypatch.setenv("REPRO_SHM_INLINE_MAX", "lots")
    with pytest.raises(ValueError):
        _inline_max_from_env()


def test_slot_view_rejects_oversized_payload():
    from repro.simmpi.shm import SegmentPool

    pool = SegmentPool(1, slot_bytes=128, slots_per_endpoint=2)
    try:
        slot = pool.acquire(0)
        with pytest.raises(ValueError, match="does not fit"):
            pool.slot_view(slot, 129)
        assert pool.slot_view(slot, 128).nbytes == 128
    finally:
        pool.close()
        pool.unlink()


def test_window_segment_geometry_checks():
    from repro.simmpi.shm import WindowSegment

    seg = WindowSegment(256, 2)
    try:
        with pytest.raises(ValueError, match="writers"):
            WindowSegment.attach(seg.name, 256, 3).close()
        with pytest.raises(ValueError, match="geometry"):
            WindowSegment.attach(seg.name, 10_000, 2).close()
        peer = WindowSegment.attach(seg.name, 256, 2)
        peer.data[:] = 7
        assert (seg.data == 7).all()            # same physical pages
        seg.set_epoch(3)
        assert peer.epoch() == 3
        peer.set_done(1, 3)
        assert seg.done(1) == 3 and seg.min_done() == 0
        peer.close()
    finally:
        seg.close()
        seg.unlink()
