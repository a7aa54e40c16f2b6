"""Shared-memory primitives of the procs backend.

Two fixed-layout ``multiprocessing.shared_memory`` segments per domain
(a domain = all ranks of a ``run_spmd`` job, or all ranks of every job
of a ``run_coupled`` launch):

* :class:`SegmentPool` — the payload plane.  One segment holds
  ``endpoints * slots_per_endpoint`` fixed-size slots plus a one-byte
  ownership flag per slot.  Slots are **statically partitioned by
  sending endpoint**, so slot allocation is a lock-free local scan of
  the sender's own ring: the sender flips a slot's flag ``FREE -> BUSY``
  before writing payload bytes into it, the receiver flips it back
  after consuming.  The control message announcing the slot travels
  through an OS pipe (:class:`multiprocessing.queues.Queue`), which
  orders the flag/payload writes before the receiver's reads.  A
  payload larger than one slot is **streamed**: the sender takes a
  *run* of contiguous free slots (:meth:`SegmentPool.acquire_run`),
  copies the next byte range into it and announces it with one
  ``CHUNK`` control message, repeating — and waiting for the receiver
  to recycle slots when the ring is full — until the whole payload has
  passed; the receiver copies each run into a reassembly buffer and
  releases its slots at once, so a message of any size needs only the
  fixed ring.  Only a payload that fits one slot but finds the ring
  full degrades to shipping inline through the control queue (counted
  — steady-state benchmarks assert the fallback never fires).  The
  accounting mirrors :class:`repro.schedule.bufpool.BufferPool`:
  ``loans`` / ``reuses`` (slot grants) vs ``allocations`` (inline
  fallbacks — the only path that allocates per message); ``oversize``
  counts streamed messages and ``stream_waits`` the times a stream
  blocked on a full ring.

* :class:`SharedState` — the watchdog plane.  A per-endpoint progress
  counter, run-state byte (running / blocked / finished) and a short
  blocked-on description, plus a domain-wide abort flag and reason.
  Each per-endpoint field has exactly one writer (the owning rank
  process); the abort record is written by the supervisor only.  The
  supervisor applies the same stall rule as the threads watchdog: the
  domain is deadlocked when every unfinished endpoint is blocked and
  the progress sum has not moved for the timeout.

Wire format of the control messages (pickled by the queue):
``(MSG, context, source, tag, nbytes, kind, meta, slot, inline)`` where
``kind`` is ``ND`` (array: meta = (dtype-str, shape)), ``BYTES``,
``PICKLE`` or ``OBJ`` (small immutable scalars shipped inline), and
``slot`` is the segment slot index or ``-1`` for inline payloads; and,
per run of a streamed payload,
``(CHUNK, context, source, tag, nbytes, kind, meta, slot, run, offset,
total)`` announcing bytes ``[offset, offset + run * slot_bytes)`` (cut
at ``total``, the payload's wire size) in the ``run`` slots starting at
``slot``.  The runs of one message reach the receiver's queue in offset
order, with no other message of the same sender between them; the
sending endpoint is the owner of ``slot``.
Under ``REPRO_TSAN=1`` either form carries one extra trailing field,
the sanitizer's wire token (a tuple of per-slot tokens for ``CHUNK``).
"""

from __future__ import annotations

import itertools
import os
import pickle
import sys
import threading
from multiprocessing import shared_memory
from typing import Any, Optional

import numpy as np

from repro.simmpi import sanitize as _san
from repro.util.counters import Counters, TRANSPORT_STATS

__all__ = ["SegmentPool", "SharedState", "WindowSegment",
           "encode_payload", "decode_payload"]

# control-message verbs
MSG = "MSG"
CHUNK = "CHUNK"
ABORT = "ABORT"
RDV_REPLY = "RDV_REPLY"
STOP = "STOP"

# payload kinds
ND = "nd"
BYTES = "by"
PICKLE = "pk"
OBJ = "ob"


def _inline_max_from_env(default: int = 2048) -> int:
    """Resolve ``REPRO_SHM_INLINE_MAX`` (bytes, >= 0) or ``default``."""
    raw = os.environ.get("REPRO_SHM_INLINE_MAX")
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SHM_INLINE_MAX must be an integer byte count, "
            f"got {raw!r}") from None
    if value < 0:
        raise ValueError(
            f"REPRO_SHM_INLINE_MAX must be >= 0, got {value}")
    return value


#: Payloads at most this many bytes ride inline in the control message
#: even when a slot is free — a pipe write beats a slot round-trip for
#: tiny protocol traffic (barrier tokens, handshakes, scalar reduces).
#: Override with ``REPRO_SHM_INLINE_MAX`` (bytes; 0 disables inlining
#: of anything but slot-ring overflow).
INLINE_MAX = _inline_max_from_env()

_FREE = 0
_BUSY = 1


class SegmentPool:
    """Fixed-size payload slots in one shared segment, partitioned by
    sending endpoint.

    Created once in the supervisor process (which owns the segment's
    lifetime and unlinks it at teardown); rank processes inherit the
    handle across ``fork`` and build their NumPy views lazily.
    """

    def __init__(self, endpoints: int, *, slot_bytes: int = 1 << 18,
                 slots_per_endpoint: int = 8):
        if slot_bytes <= 0 or slots_per_endpoint <= 0:
            raise ValueError("slot_bytes and slots_per_endpoint must be > 0")
        self.endpoints = endpoints
        # round slots up to 64 bytes so every slot start is aligned for
        # any dtype view the receiver reinterprets it as
        self.slot_bytes = (int(slot_bytes) + 63) & ~63
        self.slots_per_endpoint = int(slots_per_endpoint)
        self.nslots = endpoints * self.slots_per_endpoint
        # flags live at the front, 64-byte aligned payload area after;
        # under REPRO_TSAN a shadow plane (per-slot holder token +
        # generation counter) rides at the tail of the same segment so
        # forked peers share one copy of the sanitizer's slot state.
        self._data_off = (self.nslots + 63) & ~63
        self._tsan_off = self._data_off + self.nslots * self.slot_bytes
        shadow = 8 * self.nslots if _san.enabled() else 0
        self._shm = shared_memory.SharedMemory(
            create=True, size=self._tsan_off + shadow)
        self._flags = np.ndarray(self.nslots, dtype=np.uint8,
                                 buffer=self._shm.buf)
        self._flags[:] = _FREE  # verify: allow(V109) - pre-publication init
        if shadow:
            self._tsan_holder = np.ndarray(
                self.nslots, dtype=np.int32, buffer=self._shm.buf,
                offset=self._tsan_off)
            self._tsan_gen = np.ndarray(
                self.nslots, dtype=np.uint32, buffer=self._shm.buf,
                offset=self._tsan_off + 4 * self.nslots)
            self._tsan_holder[:] = 0
            self._tsan_gen[:] = 0
        else:
            self._tsan_holder = self._tsan_gen = None
        #: per-process slot accounting (bufpool-style names)
        self.stats = Counters()

    # -- sender side -------------------------------------------------------

    def acquire(self, endpoint: int) -> Optional[int]:
        """A free slot owned by ``endpoint``, flagged BUSY — or ``None``
        (counted as ``ring_full``) when the endpoint's whole ring is
        still in flight."""
        run = self.acquire_run(endpoint, 1)
        if run is None:
            self.stats.add("ring_full")
            return None
        return run[0]

    def acquire_run(self, endpoint: int,
                    want: int) -> Optional[tuple[int, int]]:
        """The first free slot owned by ``endpoint`` plus up to
        ``want - 1`` contiguous free successors, each flagged BUSY —
        ``(first, count)`` with ``1 <= count <= want``, or ``None`` when
        the endpoint's whole ring is still in flight.  A run never
        wraps past the end of the ring, so its slots form one
        contiguous byte range (see :meth:`slot_view`)."""
        lo = endpoint * self.slots_per_endpoint
        hi = lo + self.slots_per_endpoint
        self.stats.add("loans")
        for s in range(lo, hi):
            if self._flags[s] == _FREE:
                n = 0
                while n < want and s + n < hi and self._flags[s + n] == _FREE:
                    self._take(s + n)
                    n += 1
                return s, n
        return None

    def _take(self, slot: int) -> None:
        self._flags[slot] = _BUSY
        san = _san.ACTIVE
        if san is not None and self._tsan_holder is not None:
            san.slot_acquired(self, slot)
        self.stats.add("reuses")
        # gauges are per process: acquire charges the sender's process,
        # release credits the receiver's — each side's peak_* reflects
        # the slots it held/consumed.
        TRANSPORT_STATS.gauge_add("slot_bytes", self.slot_bytes)
        TRANSPORT_STATS.gauge_add("resident_bytes", self.slot_bytes)

    def release(self, slot: int) -> None:
        """Receiver side: mark ``slot`` consumed (reusable by its owner)."""
        san = _san.ACTIVE
        if san is not None and self._tsan_holder is not None:
            # shadow holder must clear before the flag flips, so a
            # racing acquire of a half-released slot sees it held
            san.slot_released(self, slot)
        self._flags[slot] = _FREE
        self.stats.add("releases")
        TRANSPORT_STATS.gauge_add("slot_bytes", -self.slot_bytes)
        TRANSPORT_STATS.gauge_add("resident_bytes", -self.slot_bytes)

    def slot_view(self, slot: int, nbytes: int,
                  dtype: Any = None, *, run: int = 1) -> np.ndarray:
        """A uint8 view of the first ``nbytes`` of the payload area of
        ``slot`` — or of the ``run`` contiguous slots starting there,
        as granted by :meth:`acquire_run`.

        ``dtype`` declares how the caller will reinterpret the bytes;
        passing it validates that the payload is a whole number of
        elements and that the slot start satisfies the dtype's
        alignment, instead of letting a sender/receiver dtype mismatch
        silently reinterpret bytes.
        """
        if nbytes > run * self.slot_bytes:
            raise ValueError(
                f"payload of {nbytes} bytes does not fit in {run} "
                f"{self.slot_bytes}-byte slot(s) — a payload larger than "
                f"its slots must be streamed across the ring in runs")
        off = self._data_off + slot * self.slot_bytes
        if dtype is not None:
            dt = np.dtype(dtype)
            if dt.itemsize and nbytes % dt.itemsize:
                raise ValueError(
                    f"slot {slot}: payload of {nbytes} bytes is not a "
                    f"whole number of {dt} elements (itemsize "
                    f"{dt.itemsize}) — sender/receiver dtype mismatch")
            align = dt.alignment or 1
            if off % align:
                raise ValueError(
                    f"slot {slot}: payload offset {off} is not "
                    f"{align}-byte aligned for dtype {dt}")
        return np.ndarray(nbytes, dtype=np.uint8,
                          buffer=self._shm.buf, offset=off)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._flags = None
        self._tsan_holder = self._tsan_gen = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray views in teardown
            pass

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double teardown
            pass


# -- one-sided RMA windows ---------------------------------------------------


class WindowSegment:
    """One rank's RMA window: its persistent-channel destination buffer
    exposed in a dedicated shared segment, plus the epoch header that
    replaces per-message rendezvous.

    Layout::

        epoch    u64            # generation counter, owner-written
        nwriters u64            # sanity field, fixed at creation
        done     u64[nwriters]  # per-writer commit counters
        <pad to 64 bytes>
        payload  u8[nbytes]     # the owner's flat recv buffer

    Seqlock-style protocol: the owner opens exposure epoch ``k`` by
    storing ``epoch = k``; writer ``i`` spins until ``epoch >= k``,
    scatters its bytes straight into the payload area, then stores
    ``done[i] = k``; the owner's fence spins until ``min(done) >= k``.
    Every field has exactly one writer (epoch: owner; ``done[i]``:
    writer ``i``), all counters are aligned 8-byte stores, and the GIL's
    acquire/release semantics plus x86-TSO ordering make the payload
    writes visible before the ``done`` store that publishes them — the
    same single-writer discipline as :class:`SharedState`.

    The owner creates the segment and is responsible for ``unlink``;
    writers attach by name and only ever ``close``.

    ``close`` deliberately does **not** unmap immediately.  NumPy
    releases its ``Py_buffer`` on ``shm.buf`` as soon as a view's data
    pointer is captured (keeping only an object reference), so
    ``SharedMemory.close()`` sees zero exports and happily munmaps
    pages that application arrays — a :meth:`~repro.dad.darray.
    DistributedArray.rebase`-d destination array lives *inside* the
    payload — still address; the next read is a segfault.  ``close``
    therefore drops this object's header views and retires the mapping
    into :data:`RETIRED_WINDOWS`, a generation-counted free list that
    reclaims it as soon as no live view can reference the pages (every
    derived view — header fields, dtype views, rebased arrays — holds
    a reference chain back to the payload root, so root refcount decay
    is the proof).  The ``retired_segments`` / ``retired_bytes``
    TRANSPORT_STATS gauges track what is parked awaiting reclamation.
    """

    _HDR_ALIGN = 64

    def __init__(self, nbytes: int, nwriters: int, *,
                 _attach_name: Optional[str] = None):
        if nbytes <= 0 or nwriters <= 0:
            raise ValueError("window needs nbytes > 0 and nwriters > 0")
        # opportunistic reclamation: every new window sweeps the free
        # list, so retired residue is bounded by *live* views, not by
        # how many channels the process has ever opened
        RETIRED_WINDOWS.sweep()
        self.nbytes = int(nbytes)
        self.nwriters = int(nwriters)
        hdr = 8 + 8 + 8 * self.nwriters
        self._data_off = (hdr + self._HDR_ALIGN - 1) & ~(self._HDR_ALIGN - 1)
        size = self._data_off + self.nbytes
        self.owner = _attach_name is None
        if self.owner:
            self._shm = shared_memory.SharedMemory(create=True, size=size)
        else:
            # NOTE: attaching registers the name with the resource
            # tracker again.  That is fine here: procs ranks fork from
            # the supervisor, so every process shares ONE tracker whose
            # name cache is a set — the duplicate register is idempotent
            # and the owner's unlink clears the single entry.
            self._shm = shared_memory.SharedMemory(name=_attach_name)
            if self._shm.size < size:
                raise ValueError(
                    f"window segment {_attach_name!r} is {self._shm.size} "
                    f"bytes, need {size} — geometry mismatch with owner")
        buf = self._shm.buf
        self._epoch = np.ndarray(1, dtype=np.uint64, buffer=buf)
        self._nwriters = np.ndarray(1, dtype=np.uint64, buffer=buf, offset=8)
        self._done = np.ndarray(self.nwriters, dtype=np.uint64,
                                buffer=buf, offset=16)
        self.data = np.ndarray(self.nbytes, dtype=np.uint8,
                               buffer=buf, offset=self._data_off)
        if self.owner:
            self._epoch[0] = 0
            self._nwriters[0] = self.nwriters
            self._done[:] = 0
        elif int(self._nwriters[0]) != self.nwriters:
            raise ValueError(
                f"window segment {_attach_name!r} has "
                f"{int(self._nwriters[0])} writers, expected {self.nwriters}")

    @classmethod
    def attach(cls, name: str, nbytes: int, nwriters: int) -> "WindowSegment":
        """Map an existing window by segment name (writer side)."""
        return cls(nbytes, nwriters, _attach_name=name)

    @property
    def name(self) -> str:
        return self._shm.name

    # -- epoch header (single writer per field) ------------------------------

    def epoch(self) -> int:
        return int(self._epoch[0])

    def set_epoch(self, value: int) -> None:
        self._epoch[0] = np.uint64(value)

    def done(self, writer: int) -> int:
        return int(self._done[writer])

    def set_done(self, writer: int, value: int) -> None:
        self._done[writer] = np.uint64(value)

    def min_done(self) -> int:
        return int(self._done.min())

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop the header views and retire the mapping into the
        generation-counted free list (see the class docstring)."""
        if getattr(self, "_closed", False):
            return
        self._closed = True
        root, self.data = self.data, None
        self._epoch = self._nwriters = self._done = None
        RETIRED_WINDOWS.retire(self._shm, self._shm.size, root)

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double teardown
            pass


class _RetiredWindows:
    """Generation-counted free list of closed window mappings.

    :meth:`WindowSegment.close` cannot unmap while application arrays
    still view the payload, but parking mappings forever (the PR-6
    behaviour) leaks a whole segment per closed channel.  Each retired
    entry gets a monotonically increasing generation and keeps the
    window's payload-root array alive; :meth:`sweep` reclaims every
    entry whose root is no longer referenced from anywhere else —
    every live view of the segment (header fields excepted, which
    ``close`` already dropped; dtype views; rebased destination
    arrays) holds a reference chain back to that root, so refcount
    decay to the free list's own reference proves no live view can
    address the pages.  Sweeps run on every retire and on every new
    window construction, and are explicitly callable; the
    ``retired_segments`` / ``retired_bytes`` gauges (with ``peak_``
    high-water twins) expose the parked residue.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._gen = itertools.count(1)
        #: generation -> (mapping, nbytes, payload-root view)
        self._entries: dict[int, tuple] = {}

    def retire(self, mapping, nbytes: int, root) -> int:
        with self._lock:
            gen = next(self._gen)
            self._entries[gen] = (mapping, nbytes, root)
        TRANSPORT_STATS.gauge_add("retired_segments", 1)
        TRANSPORT_STATS.gauge_add("retired_bytes", nbytes)
        self.sweep()
        return gen

    def sweep(self) -> int:
        """Unmap every retired mapping with no outside reference to its
        payload root; returns how many were reclaimed."""
        freed = 0
        with self._lock:
            for gen in sorted(self._entries):
                mapping, nbytes, _root = self._entries[gen]
                # Baseline refcount 3: the entry tuple, the ``_root``
                # local just unpacked, and getrefcount's own argument.
                # Anything above that is a live outside view.
                if _root is not None and sys.getrefcount(_root) > 3:
                    continue
                try:
                    mapping.close()
                except BufferError:  # pragma: no cover - exported view
                    continue         # keep the entry; retry next sweep
                del self._entries[gen]
                TRANSPORT_STATS.gauge_add("retired_segments", -1)
                TRANSPORT_STATS.gauge_add("retired_bytes", -nbytes)
                freed += 1
        return freed

    def pending(self) -> int:
        with self._lock:
            return len(self._entries)


#: Closed-window mappings awaiting reclamation (one per process).
RETIRED_WINDOWS = _RetiredWindows()


# -- watchdog state ----------------------------------------------------------

STATE_RUNNING = 0
STATE_BLOCKED = 1
STATE_FINISHED = 2

_DESC_BYTES = 120
_REASON_BYTES = 480


class SharedState:
    """Cross-process watchdog struct: per-endpoint progress counters and
    blocked-state table, plus the domain abort record.

    Layout per endpoint: ``progress u64 | state u8 | desc char[120]``.
    Domain header: ``abort u8 | reason char[480]``.
    """

    def __init__(self, endpoints: int):
        self.endpoints = endpoints
        size = (8 * endpoints) + endpoints + (_DESC_BYTES * endpoints) \
            + 1 + _REASON_BYTES
        size = (size + 63) & ~63
        self._shm = shared_memory.SharedMemory(create=True, size=size)
        buf = self._shm.buf
        off = 0
        self.progress = np.ndarray(endpoints, dtype=np.uint64,
                                   buffer=buf, offset=off)
        off += 8 * endpoints
        self.state = np.ndarray(endpoints, dtype=np.uint8,
                                buffer=buf, offset=off)
        off += endpoints
        self._descs = np.ndarray((endpoints, _DESC_BYTES), dtype=np.uint8,
                                 buffer=buf, offset=off)
        off += _DESC_BYTES * endpoints
        self._abort = np.ndarray(1, dtype=np.uint8, buffer=buf, offset=off)
        off += 1
        self._reason = np.ndarray(_REASON_BYTES, dtype=np.uint8,
                                  buffer=buf, offset=off)
        self.progress[:] = 0
        self.state[:] = STATE_RUNNING  # verify: allow(V109) - init
        self._descs[:] = 0
        self._abort[0] = 0
        self._reason[:] = 0

    # -- rank side (single writer per endpoint) ----------------------------

    def bump(self, endpoint: int) -> None:
        san = _san.ACTIVE
        if san is not None:
            san.state_write(endpoint, f"state.bump(endpoint={endpoint})")
        self.progress[endpoint] += np.uint64(1)

    def set_blocked(self, endpoint: int, desc: Optional[str]) -> None:
        san = _san.ACTIVE
        if san is not None:
            san.state_write(endpoint,
                            f"state.set_blocked(endpoint={endpoint})")
        if self.state[endpoint] == STATE_FINISHED:
            return
        if desc is None:
            self.state[endpoint] = STATE_RUNNING
            return
        raw = desc.encode("utf-8", "replace")[:_DESC_BYTES]
        self._descs[endpoint, :len(raw)] = np.frombuffer(raw, dtype=np.uint8)
        self._descs[endpoint, len(raw):] = 0
        self.state[endpoint] = STATE_BLOCKED

    def set_finished(self, endpoint: int) -> None:
        san = _san.ACTIVE
        if san is not None:
            san.state_write(endpoint,
                            f"state.set_finished(endpoint={endpoint})")
        self.state[endpoint] = STATE_FINISHED

    # -- supervisor side ---------------------------------------------------

    def desc(self, endpoint: int) -> str:
        raw = bytes(self._descs[endpoint])
        return raw.split(b"\0", 1)[0].decode("utf-8", "replace") or "?"

    def total_progress(self) -> int:
        return int(self.progress.sum())

    def stalled(self) -> Optional[dict[int, str]]:
        """Blocked dump if no unfinished endpoint is runnable (mirrors
        :meth:`repro.simmpi.runner.Job.stalled`)."""
        state = self.state.copy()
        unfinished = np.flatnonzero(state != STATE_FINISHED)
        if np.all(state[unfinished] == STATE_BLOCKED):
            return {int(e): self.desc(int(e)) for e in unfinished}
        return None

    def set_abort(self, reason: str) -> None:
        san = _san.ACTIVE
        if san is not None:
            san.state_write(None, "state.set_abort")
        raw = reason.encode("utf-8", "replace")[:_REASON_BYTES]
        self._reason[:len(raw)] = np.frombuffer(raw, dtype=np.uint8)
        self._reason[len(raw):] = 0
        self._abort[0] = 1

    def aborted(self) -> bool:
        return bool(self._abort[0])

    def abort_reason(self) -> str:
        raw = bytes(self._reason)
        return raw.split(b"\0", 1)[0].decode("utf-8", "replace")

    def close(self) -> None:
        self.progress = self.state = self._descs = None
        self._abort = self._reason = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover
            pass

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass


# -- payload encode/decode ---------------------------------------------------


def encode_payload(obj: Any) -> tuple[str, Any, Optional[np.ndarray], Any]:
    """Classify one wire payload for the procs transport.

    Returns ``(kind, meta, buf, inline)``: ``buf`` is a flat uint8 view
    of the bytes to place in a slot (or ship inline when small / no slot
    is free), ``inline`` the ready-to-pickle object for slot-less kinds.
    """
    if isinstance(obj, np.ndarray):
        arr = obj
        return ND, (arr.dtype.str, arr.shape), arr, None
    if isinstance(obj, (bytes, bytearray)):
        raw = np.frombuffer(bytes(obj), dtype=np.uint8)
        return BYTES, None, raw, None
    if obj is None or isinstance(obj, (bool, int, float, complex, str)):
        return OBJ, None, None, obj
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return PICKLE, None, np.frombuffer(blob, dtype=np.uint8), None


def decode_payload(kind: str, meta: Any, raw: np.ndarray | bytes | None,
                   inline: Any) -> Any:
    """Rebuild the receiver-side payload.

    For ``ND`` the result is a (possibly read-only) view over ``raw`` —
    the mailbox consumes it synchronously as a lent view, so scattering
    straight out of a shared slot needs no staging copy.
    """
    if kind == OBJ:
        return inline
    if raw is None:
        raise ValueError(f"kind {kind!r} needs payload bytes")
    if kind == ND:
        dtype_str, shape = meta
        buf = raw if isinstance(raw, np.ndarray) else \
            np.frombuffer(raw, dtype=np.uint8)
        return buf.view(np.dtype(dtype_str)).reshape(shape)
    if kind == BYTES:
        return bytes(raw if not isinstance(raw, np.ndarray)
                     else raw.tobytes())
    if kind == PICKLE:
        blob = raw.tobytes() if isinstance(raw, np.ndarray) else bytes(raw)
        return pickle.loads(blob)
    raise ValueError(f"unknown payload kind {kind!r}")
