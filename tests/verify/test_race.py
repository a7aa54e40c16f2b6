"""Bounded model checker for the lock-free protocols (repro.verify.race).

Three layers: the generic explicit-state search engine
(``explore_states``), the two protocol models (clean proofs at every
bounded scope, every seeded mutant firing with a witness trace), and
the dynamic-half selfcheck that replays the same corruptions through
the live sanitizer hooks.
"""

import pytest

from repro.simmpi import sanitize
from repro.verify.commgraph import explore_states
from repro.verify.race import (
    CHUNK_MUTANTS,
    EPOCH_MUTANTS,
    SLOT_MUTANTS,
    check_protocols,
    check_streaming,
    epoch_model,
    sanitizer_selfcheck,
    slot_ring_model,
)

# -- explore_states engine ----------------------------------------------------


def test_explore_states_clean_run():
    # counter 0..3, one transition per step: clean, no violation/stuck
    ex = explore_states(
        0,
        lambda s: [(f"inc->{s + 1}", s + 1)] if s < 3 else [],
        lambda s: s == 3,
    )
    assert ex.ok
    assert ex.stuck is None and ex.violation is None
    assert ex.states == 4


def test_explore_states_reports_stuck_with_trace():
    # state 2 has no successors and is not final -> stuck
    ex = explore_states(
        0,
        lambda s: [(f"inc->{s + 1}", s + 1)] if s < 2 else [],
        lambda s: s == 3,
    )
    assert not ex.ok
    assert ex.stuck == 2
    assert ex.trace == ["inc->1", "inc->2"]
    assert "inc->1" in ex.witness()


def test_explore_states_check_fires_violation():
    ex = explore_states(
        0,
        lambda s: [(f"inc->{s + 1}", s + 1)] if s < 3 else [],
        lambda s: s == 3,
        check=lambda s: "boom: state two" if s == 2 else "",
    )
    assert not ex.ok
    assert ex.violation == 2
    assert ex.message == "boom: state two"
    assert len(ex.trace) == 2


def test_explore_states_state_cap():
    with pytest.raises(RuntimeError, match="state"):
        explore_states(
            0,
            lambda s: [("inc", s + 1)],
            lambda s: False,
            max_states=16,
        )


# -- slot-ring model ----------------------------------------------------------


def test_slot_ring_clean_at_bounded_scopes():
    for writers, depth, messages in ((2, 2, 2), (2, 2, 3), (3, 2, 2)):
        ex = slot_ring_model(writers, depth, messages)
        assert ex.ok, ex.witness()
        assert ex.states > 10


@pytest.mark.parametrize("mutant,expect", sorted(SLOT_MUTANTS.items()))
def test_slot_ring_mutants_fire(mutant, expect):
    ex = slot_ring_model(2, 2, 2, mutant=mutant)
    assert not ex.ok
    if expect == "stuck":
        assert ex.stuck is not None
    else:
        kind = expect.split(":", 1)[1]
        assert ex.violation is not None
        assert ex.message.startswith(kind)
    # every counterexample carries a non-empty transition witness
    assert ex.trace
    assert ex.witness()


def test_slot_ring_rejects_unknown_mutant():
    with pytest.raises(ValueError, match="unknown slot-ring mutant"):
        slot_ring_model(mutant="off_by_one")


def test_streamed_slot_ring_clean_with_more_runs_than_slots():
    for chunks in (2, 3):
        ex = slot_ring_model(2, 2, 2, chunks=chunks)
        assert ex.ok, ex.witness()
        assert ex.stuck is None


@pytest.mark.parametrize("chunks", [3, 4])
def test_hold_until_assembled_sticks_when_runs_exceed_depth(chunks):
    ex = slot_ring_model(2, 2, 2, mutant="hold_until_assembled",
                         chunks=chunks)
    assert ex.stuck is not None
    assert ex.trace and ex.witness()


def test_hold_until_assembled_is_harmless_for_single_run_messages():
    # the seeded bug only bites once a message needs several runs
    assert slot_ring_model(2, 2, 2, mutant="hold_until_assembled").ok


def test_check_streaming_matrix_all_pass():
    results = check_streaming()
    assert len(results) == 1 + len(CHUNK_MUTANTS)
    for r in results:
        assert r.passed, f"{r.label}: expected {r.expect}, got {r.outcome}"
        assert "C=3" in r.label


# -- epoch model --------------------------------------------------------------


def test_epoch_clean_at_bounded_scopes():
    for writers, epochs in ((1, 1), (2, 2), (3, 2)):
        ex = epoch_model(writers, epochs)
        assert ex.ok, ex.witness()


@pytest.mark.parametrize("mutant,expect", sorted(EPOCH_MUTANTS.items()))
def test_epoch_mutants_fire(mutant, expect):
    ex = epoch_model(2, 2, mutant=mutant)
    assert not ex.ok
    if expect == "stuck":
        assert ex.stuck is not None
    else:
        kind = expect.split(":", 1)[1]
        assert ex.violation is not None
        assert ex.message.startswith(kind)
    assert ex.trace


def test_epoch_rejects_unknown_mutant():
    with pytest.raises(ValueError, match="unknown epoch mutant"):
        epoch_model(mutant="fence_twice")


# -- the full matrix ----------------------------------------------------------


def test_check_protocols_matrix_all_pass():
    results = check_protocols()
    # clean proofs at two scopes per protocol + one run per mutant
    assert len(results) == 4 + len(SLOT_MUTANTS) + len(EPOCH_MUTANTS)
    for r in results:
        assert r.passed, f"{r.label}: expected {r.expect}, got {r.outcome}"
    cleans = [r for r in results if r.mutant is None]
    assert all(r.exploration.ok for r in cleans)
    mutants = [r for r in results if r.mutant is not None]
    assert all(not r.exploration.ok for r in mutants)
    assert all(r.exploration.trace for r in mutants)


def test_model_result_labels_are_informative():
    results = check_protocols()
    labels = {r.label for r in results}
    assert any("slot_ring" in x and "mutant=" not in x for x in labels)
    assert any("mutant=skip_wait" in x for x in labels)


# -- dynamic-half selfcheck ---------------------------------------------------


def test_sanitizer_selfcheck_is_clean():
    assert sanitizer_selfcheck() == []


def test_sanitizer_selfcheck_restores_prior_tsan_state():
    was = sanitize.enabled()
    sanitizer_selfcheck()
    assert sanitize.enabled() == was
