"""Bounded model checking of the lock-free shared-memory protocols.

The procs backend's data plane rests on two tiny lock-free protocols
(:mod:`repro.simmpi.shm`): the **slot ring** — senders acquire a FREE
slot, fill it, publish the index over the control queue, the receiving
pump consumes and releases it — and the **seqlock window** — an owner
opens exposure epochs that license remote puts, writers commit, the
owner fences and reads.  :mod:`repro.simmpi.sanitize` checks these
disciplines *dynamically* (on real executions, ``REPRO_TSAN=1``); this
module is the *static* half of the proof obligation: each protocol is
extracted into an explicit-state model and the commgraph search engine
(:func:`repro.verify.commgraph.explore_states`) exhaustively explores
every interleaving at a bounded scope (2–3 writers, ring depth 2, two
epochs), proving

* **no lost wakeups** — every interleaving of the shipped protocol
  runs to completion (no reachable stuck state),
* **no ABA slot reuse** — a consumer never reads a slot generation the
  ring has moved past,
* **no unexposed-epoch puts / torn reads** — writes land only inside
  an open exposure epoch and owner reads only after its fence.

The proof is only as good as the model, so every property ships with a
**seeded-bug mutant** — a one-transition corruption of the protocol
(skip the BUSY check, release before the read, skip ``wait_open``, …)
— and :func:`check_protocols` asserts each mutant *fires*: the search
returns a violation of the expected class (or a stuck state), with a
transition-by-transition counterexample witness.  A model in which the
bugs of interest are invisible would pass the clean proofs vacuously;
the mutant matrix rules that out.

:func:`sanitizer_selfcheck` closes the loop on the dynamic half: it
drives the :class:`~repro.simmpi.sanitize.Sanitizer` hooks directly
through one clean protocol round (expecting zero reports) and through
each seeded corruption (expecting exactly the report class the model
checker predicts), without touching real shared memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.simmpi import sanitize
from repro.verify.commgraph import Exploration, explore_states

__all__ = [
    "ModelResult",
    "SLOT_MUTANTS",
    "CHUNK_MUTANTS",
    "EPOCH_MUTANTS",
    "slot_ring_model",
    "epoch_model",
    "check_protocols",
    "check_streaming",
    "sanitizer_selfcheck",
]

#: Seeded slot-ring bugs and the outcome each must produce.
SLOT_MUTANTS = {
    "acquire_skips_busy": "violation:" + sanitize.UNSYNC_WRITE,
    "release_before_consume": "violation:" + sanitize.SLOT_REUSE,
    "skip_release": "stuck",
}

#: Seeded bugs of the streamed (multi-run) slot ring, checked with
#: ``chunks > depth``: holding a message's runs until it is whole needs
#: more slots than the ring has, so sender and pump wait on each other.
CHUNK_MUTANTS = {
    "hold_until_assembled": "stuck",
}

#: Seeded epoch-protocol bugs and the outcome each must produce.
EPOCH_MUTANTS = {
    "skip_wait": "violation:" + sanitize.UNSYNC_WRITE,
    "read_before_fence": "violation:" + sanitize.TORN_READ,
    "skip_commit": "stuck",
}


@dataclass
class ModelResult:
    """One model run: a clean proof or a mutant-fires demonstration."""

    model: str                 #: ``slot_ring`` or ``epoch``
    scope: str                 #: bound description, e.g. ``W=2 D=2 M=3``
    mutant: Optional[str]      #: seeded bug, ``None`` for the shipped protocol
    expect: str                #: ``clean`` / ``stuck`` / ``violation:<kind>``
    exploration: Exploration

    @property
    def outcome(self) -> str:
        ex = self.exploration
        if ex.violation is not None:
            return "violation:" + ex.message.split(":", 1)[0]
        if ex.stuck is not None:
            return "stuck"
        return "clean"

    @property
    def passed(self) -> bool:
        return self.outcome == self.expect

    @property
    def label(self) -> str:
        return f"{self.model}[{self.scope}]" + (
            f" mutant={self.mutant}" if self.mutant else "")


def slot_ring_model(writers: int = 2, depth: int = 2, messages: int = 2,
                    mutant: Optional[str] = None, *,
                    chunks: int = 1) -> Exploration:
    """Explicit-state model of the :class:`~repro.simmpi.shm.SegmentPool`
    slot ring: ``writers`` senders each pushing ``messages`` payloads
    through one consumer's ring of ``depth`` slots.

    State: per-slot FREE/BUSY flags and generation counters, the FIFO
    control queue of published ``(slot, generation, writer, last)``
    entries, each writer's ``(remaining, runs sent, held-slot)``, the
    consumer's ``(consumed, in-flight read)`` and the slots it keeps
    per writer while reassembling.  Transitions mirror the runtime
    verbs — acquire (lowest FREE slot, flip BUSY, bump generation),
    publish (enqueue), pop, read (generation must match) and release
    (flag back to FREE).  A transition that breaks the discipline
    carries an error tag the safety check reports; see
    :data:`SLOT_MUTANTS` for the seeded corruptions.

    ``chunks > 1`` models streamed payloads: each message is ``chunks``
    runs (one slot each, the worst case for ring turnover), the writer
    *blocks* in acquire while the ring is full — no transition until a
    slot frees — and the consumer releases every run as soon as it has
    copied it, delivering the message with its last run.  See
    :data:`CHUNK_MUTANTS`.
    """
    if (mutant is not None and mutant not in SLOT_MUTANTS
            and mutant not in CHUNK_MUTANTS):
        raise ValueError(f"unknown slot-ring mutant {mutant!r}")
    total = writers * messages
    init = (
        (0,) * depth,                     # flags: 0 FREE / 1 BUSY
        (0,) * depth,                     # per-slot generation
        (),                               # control queue of published runs
        ((messages, 0, -1),) * writers,   # writer (remaining, runs, held)
        0,                                # messages consumed
        None,                             # consumer in-flight queue entry
        ((),) * writers,                  # slots kept while reassembling
        "",                               # safety-violation tag
    )

    def successors(state):
        flags, gens, queue, ws, consumed, reading, kept, err = state
        out = []
        for w, (remaining, runs, held) in enumerate(ws):
            if held < 0 and remaining > 0:
                if mutant == "acquire_skips_busy":
                    # the corrupted scan ignores the BUSY flag, so it
                    # claims the lowest slot unconditionally
                    candidates = [0]
                else:
                    # empty when the ring is full: the writer blocks
                    candidates = [s for s in range(depth) if flags[s] == 0][:1]
                for s in candidates:
                    nerr = err
                    if any(h == s for _, _, h in ws) or (
                            flags[s] != 0 and mutant == "acquire_skips_busy"):
                        nerr = (f"{sanitize.UNSYNC_WRITE}: writer {w} "
                                f"acquires slot {s} while it is still "
                                f"held — two actors filling one payload "
                                f"slot")
                    nflags = tuple(1 if i == s else f
                                   for i, f in enumerate(flags))
                    ngens = tuple(g + 1 if i == s else g
                                  for i, g in enumerate(gens))
                    nws = tuple((r, c, s) if i == w else (r, c, h)
                                for i, (r, c, h) in enumerate(ws))
                    out.append((f"writer {w}: acquire(slot={s})",
                                (nflags, ngens, queue, nws, consumed,
                                 reading, kept, nerr)))
            elif held >= 0:
                last = runs + 1 == chunks
                nw = (remaining - 1, 0, -1) if last else \
                    (remaining, runs + 1, -1)
                nws = tuple(nw if i == w else x for i, x in enumerate(ws))
                out.append((f"writer {w}: publish(slot={held}, "
                            f"gen={gens[held]}, run={runs})",
                            (flags, gens,
                             queue + ((held, gens[held], w, last),),
                             nws, consumed, reading, kept, err)))
        if reading is None and queue:
            slot, gen = queue[0][:2]
            nflags = flags
            if mutant == "release_before_consume":
                # the corrupted pump frees the slot before reading it
                nflags = tuple(0 if i == slot else f
                               for i, f in enumerate(flags))
            out.append((f"consumer: pop(slot={slot}, gen={gen})",
                        (nflags, gens, queue[1:], ws, consumed,
                         queue[0], kept, err)))
        elif reading is not None:
            slot, gen, w, last = reading
            nerr = err
            if gens[slot] != gen:
                nerr = (f"{sanitize.SLOT_REUSE}: consumer reads slot "
                        f"{slot} at generation {gens[slot]} but the "
                        f"control message published generation {gen} — "
                        f"ABA reuse, torn payload")
            free = (slot,)
            nkept = kept
            if mutant == "skip_release":
                free = ()
            elif mutant == "hold_until_assembled":
                # the corrupted pump keeps every run of a message until
                # the message is whole
                free = kept[w] + (slot,) if last else ()
                nkept = tuple((() if last else k + (slot,)) if i == w
                              else k for i, k in enumerate(kept))
            nflags = tuple(0 if i in free else f
                           for i, f in enumerate(flags))
            out.append((f"consumer: read+release(slot={slot})"
                        + (" deliver" if last else ""),
                        (nflags, gens, queue, ws,
                         consumed + (1 if last else 0), None, nkept,
                         nerr)))
        return out

    def is_final(state):
        _, _, queue, ws, consumed, reading, _, _ = state
        return (consumed == total and not queue and reading is None
                and all(r == 0 and h < 0 for r, _, h in ws))

    return explore_states(init, successors, is_final,
                          check=lambda state: state[-1])


def epoch_model(writers: int = 2, epochs: int = 2,
                mutant: Optional[str] = None) -> Exploration:
    """Explicit-state model of the :class:`~repro.simmpi.rma` epoch
    seqlock: one owner opening/fencing/reading ``epochs`` exposure
    epochs over ``writers`` remote writers doing wait/put/commit.

    The owner's fence is enabled only once ``min(done) >= k`` and a
    writer's put only after its wait observed ``epoch >= k`` — exactly
    the runtime spins.  Safety: a put with ``epoch < k`` is an
    unexposed-epoch write; an owner read with ``min(done) < epoch`` is
    a torn seqlock read.  See :data:`EPOCH_MUTANTS`.
    """
    if mutant is not None and mutant not in EPOCH_MUTANTS:
        raise ValueError(f"unknown epoch mutant {mutant!r}")
    owner_ops = []
    for k in range(1, epochs + 1):
        owner_ops.append(("open", k))
        if mutant != "read_before_fence":
            owner_ops.append(("fence", k))
        owner_ops.append(("read", k))
    writer_ops = []
    for k in range(1, epochs + 1):
        if mutant != "skip_wait":
            writer_ops.append(("wait", k))
        writer_ops.append(("put", k))
        if mutant != "skip_commit":
            writer_ops.append(("commit", k))

    init = (0, (0,) * writers, 0, (0,) * writers, "")

    def successors(state):
        epoch, done, opc, wpcs, err = state
        out = []
        if opc < len(owner_ops):
            kind, k = owner_ops[opc]
            if kind == "open":
                out.append((f"owner: epoch_open({k})",
                            (k, done, opc + 1, wpcs, err)))
            elif kind == "fence":
                if min(done) >= k:
                    out.append((f"owner: fence({k})",
                                (epoch, done, opc + 1, wpcs, err)))
            else:  # read
                nerr = err
                if min(done) < epoch:
                    nerr = (f"{sanitize.TORN_READ}: owner reads "
                            f"generation {k} with min(done)="
                            f"{min(done)} < epoch {epoch} — writers "
                            f"may still be scattering")
                out.append((f"owner: read({k})",
                            (epoch, done, opc + 1, wpcs, nerr)))
        for w in range(writers):
            pc = wpcs[w]
            if pc >= len(writer_ops):
                continue
            kind, k = writer_ops[pc]
            adv = tuple(pc + 1 if i == w else c for i, c in enumerate(wpcs))
            if kind == "wait":
                if epoch >= k:
                    out.append((f"writer {w}: wait_open({k})",
                                (epoch, done, opc, adv, err)))
            elif kind == "put":
                nerr = err
                if epoch < k:
                    nerr = (f"{sanitize.UNSYNC_WRITE}: writer {w} put "
                            f"lands in unexposed epoch {k} (window "
                            f"exposes epoch {epoch}) — wait_open "
                            f"skipped")
                out.append((f"writer {w}: put({k})",
                            (epoch, done, opc, adv, nerr)))
            else:  # commit
                ndone = tuple(k if i == w else d for i, d in enumerate(done))
                out.append((f"writer {w}: commit({k})",
                            (epoch, ndone, opc, adv, err)))
        return out

    def is_final(state):
        _, _, opc, wpcs, _ = state
        return (opc == len(owner_ops)
                and all(pc == len(writer_ops) for pc in wpcs))

    return explore_states(init, successors, is_final,
                          check=lambda state: state[-1])


#: Clean-proof scopes (the ISSUE's bounded scope: 2–3 writers, depth 2).
_SLOT_SCOPES = ((2, 2, 3), (3, 2, 2))
_EPOCH_SCOPES = ((2, 2), (3, 2))


def check_protocols() -> list[ModelResult]:
    """The full matrix: clean proofs at every bounded scope plus one
    fires-as-expected run per seeded mutant.  ``all(r.passed ...)`` is
    the theorem."""
    out: list[ModelResult] = []
    for w, d, m in _SLOT_SCOPES:
        out.append(ModelResult(
            "slot_ring", f"W={w} D={d} M={m}", None, "clean",
            slot_ring_model(w, d, m)))
    for w, e in _EPOCH_SCOPES:
        out.append(ModelResult(
            "epoch", f"W={w} E={e}", None, "clean", epoch_model(w, e)))
    for mutant, expect in SLOT_MUTANTS.items():
        out.append(ModelResult(
            "slot_ring", "W=2 D=2 M=2", mutant, expect,
            slot_ring_model(2, 2, 2, mutant=mutant)))
    for mutant, expect in EPOCH_MUTANTS.items():
        out.append(ModelResult(
            "epoch", "W=2 E=2", mutant, expect,
            epoch_model(2, 2, mutant=mutant)))
    return out


#: Streamed-ring scope: runs per message exceed the ring depth.
_CHUNK_SCOPE = (2, 2, 2, 3)


def check_streaming() -> list[ModelResult]:
    """The streamed slot ring (``chunks > depth``): a clean proof —
    no stuck state although every message needs more runs than the
    ring has slots — plus one fires-as-expected run per
    :data:`CHUNK_MUTANTS` entry."""
    w, d, m, c = _CHUNK_SCOPE
    scope = f"W={w} D={d} M={m} C={c}"
    out = [ModelResult("slot_ring", scope, None, "clean",
                       slot_ring_model(w, d, m, chunks=c))]
    for mutant, expect in CHUNK_MUTANTS.items():
        out.append(ModelResult(
            "slot_ring", scope, mutant, expect,
            slot_ring_model(w, d, m, mutant=mutant, chunks=c)))
    return out


# -- dynamic-half self-check ----------------------------------------------


class _FakePool:
    """Just the shadow plane the sanitizer's slot hooks touch."""

    def __init__(self, nslots: int = 2):
        self._tsan_holder = [0] * nslots
        self._tsan_gen = [0] * nslots


class _FakeSeg:
    """Just the epoch/done header surface the window hooks read."""

    def __init__(self, nwriters: int = 1):
        self.name = "selfcheck"
        self.nwriters = nwriters
        self._epoch = 0
        self._done_ctrs = [0] * nwriters

    def epoch(self) -> int:
        return self._epoch

    def set_epoch(self, k: int) -> None:
        self._epoch = k

    def done(self, w: int) -> int:
        return self._done_ctrs[w]

    def set_done(self, w: int, k: int) -> None:
        self._done_ctrs[w] = k

    def min_done(self) -> int:
        return min(self._done_ctrs)


def sanitizer_selfcheck() -> list[str]:
    """Drive the live sanitizer hooks through one clean protocol round
    and each seeded corruption; returns failure descriptions (empty =
    the dynamic checks agree with the model checker).

    Runs against in-process fakes of the shadow plane and the window
    header, so it needs no shared memory and is safe anywhere
    ``verify race`` runs.
    """
    failures: list[str] = []
    was = sanitize.set_tsan(True)
    san = sanitize.ACTIVE
    assert san is not None
    san.clear()

    def expect(label: str, kinds: list[str]) -> None:
        got = [r.kind for r in san.race_reports]
        if got != kinds:
            failures.append(f"{label}: expected reports {kinds}, got {got}")
        san.clear()

    try:
        # clean slot round: acquire -> publish -> consume -> release
        pool = _FakePool()
        san.slot_acquired(pool, 0)
        token = san.slot_publish(pool, 0)
        san.slot_consume(pool, 0, token)
        san.slot_released(pool, 0)
        # clean epoch round: open -> wait -> put -> commit -> fence -> read
        seg = _FakeSeg()
        san.win_open(seg, 1)
        seg.set_epoch(1)
        san.win_wait_open(seg, 1)
        san.win_put(seg, 0)
        san.win_commit(seg, 0, 1)
        seg.set_done(0, 1)
        san.win_fence(seg, 1)
        san.win_read(seg)
        expect("clean protocol round", [])

        # seeded: acquire of a still-held slot (acquire_skips_busy)
        pool = _FakePool()
        san.slot_acquired(pool, 0)
        san.slot_acquired(pool, 0)
        expect("slot reuse on acquire", [sanitize.SLOT_REUSE])

        # seeded: consume after the ring moved on (release_before_consume)
        pool = _FakePool()
        san.slot_acquired(pool, 0)
        token = san.slot_publish(pool, 0)
        san.slot_released(pool, 0)
        san.slot_acquired(pool, 0)     # re-acquire bumps the generation
        san.slot_consume(pool, 0, token)
        expect("ABA consume", [sanitize.SLOT_REUSE])

        # seeded: publish without holding (unsynchronized write)
        pool = _FakePool()
        san.slot_publish(pool, 0)
        expect("publish without acquire", [sanitize.UNSYNC_WRITE])

        # seeded: put into an unexposed epoch (skip_wait)
        seg = _FakeSeg()
        san.win_put(seg, 0)
        expect("unexposed-epoch put", [sanitize.UNSYNC_WRITE])

        # seeded: owner read inside an open epoch (read_before_fence)
        seg = _FakeSeg()
        san.win_open(seg, 1)
        seg.set_epoch(1)
        san.win_read(seg)
        expect("torn seqlock read", [sanitize.TORN_READ])
    finally:
        san.clear()
        sanitize.set_tsan(was)
    return failures
