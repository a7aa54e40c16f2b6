"""``python -m repro.verify`` — the static-analysis CLI and CI gate.

Subcommands::

    schedule    prove every builder kind against the all-pairs oracle
    commgraph   deadlock-check the Fig. 5 programs and shipping models
    race        bounded model checks of the slot-ring and epoch
                protocols (clean proofs + seeded-mutant matrix) plus
                the live race-sanitizer self-check
    lint        run the ownership lint pack (default target: src/)
    all         everything above

Each subcommand exits nonzero on any failed proof, unexpected verdict,
or lint violation, so the CI steps are plain invocations.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import VerificationError


def _schedule_cases():
    from repro.dad import (
        Block,
        BlockCyclic,
        CartesianTemplate,
        Collapsed,
        Cyclic,
        DistArrayDescriptor,
        ExplicitTemplate,
        GeneralizedBlock,
    )
    from repro.dad.template import block_template
    from repro.util.regions import Region

    def cart(*axes):
        return DistArrayDescriptor(CartesianTemplate(list(axes)))

    explicit = DistArrayDescriptor(ExplicitTemplate((8, 12), [
        (0, Region((0, 0), (5, 7))),
        (1, Region((0, 7), (5, 12))),
        (2, Region((5, 0), (8, 12))),
    ]))
    return [
        ("block", cart(Block(64, 4)), cart(Block(64, 6))),
        ("block-2d",
         DistArrayDescriptor(block_template((12, 18), (2, 2))),
         DistArrayDescriptor(block_template((12, 18), (3, 2)))),
        ("cyclic", cart(Cyclic(48, 3)), cart(Block(48, 4))),
        ("cyclic-rev", cart(Block(48, 4)), cart(Cyclic(48, 3))),
        ("block-cyclic", cart(BlockCyclic(60, 4, 5)),
         cart(BlockCyclic(60, 3, 4))),
        ("generalized-block", cart(GeneralizedBlock(40, [5, 15, 20])),
         cart(Block(40, 4))),
        ("mixed-2d", cart(Block(10, 2), Cyclic(12, 3)),
         cart(Cyclic(10, 2), Block(12, 2))),
        ("collapsed", cart(Collapsed(9), Block(16, 4)),
         cart(Block(9, 3), Collapsed(16))),
        ("explicit", explicit,
         DistArrayDescriptor(block_template((8, 12), (2, 2)))),
    ]


def _delta_cases():
    from repro.dad import (
        Block,
        BlockCyclic,
        CartesianTemplate,
        Cyclic,
        DistArrayDescriptor,
        GeneralizedBlock,
    )

    def cart(*axes):
        return DistArrayDescriptor(CartesianTemplate(list(axes)))

    return [
        ("block 8->10", cart(Block(64, 8)), cart(Block(64, 10))),
        ("block 10->8 (shrink)", cart(Block(64, 10)), cart(Block(64, 8))),
        ("cyclic 8->10", cart(Cyclic(80, 8)), cart(Cyclic(80, 10))),
        ("block-cyclic 8->10", cart(BlockCyclic(96, 8, 4)),
         cart(BlockCyclic(96, 10, 4))),
        ("gb tail-split 8->10", cart(GeneralizedBlock(80, [10] * 8)),
         cart(GeneralizedBlock(80, [10] * 7 + [4, 3, 3]))),
        ("same-size blk->cyc", cart(Block(48, 6)), cart(Cyclic(48, 6))),
    ]


def cmd_schedule(_args) -> int:
    from repro.schedule.builder import build_region_schedule
    from repro.verify.schedule import (verify_against_oracle,
                                       verify_collective_plan)

    failures = 0
    print("schedule proofs (fast-path builders vs all-pairs oracle)")
    print(f"{'case':<18} {'builder':<10} {'items':>6} {'pairs':>6} "
          f"{'fast':>5} {'elems':>7}  verdict")
    for name, src, dst in _schedule_cases():
        for builder, force in (("fast-path", False), ("sweep", True)):
            sched = build_region_schedule(src, dst, force_general=force)
            try:
                proof = verify_against_oracle(sched, src, dst)
                verdict = "proved"
            except VerificationError as exc:
                failures += 1
                verdict = f"FAILED: {exc}"
                proof = None
            items = len(sched.items)
            pairs = proof.pairs if proof else 0
            fast = proof.fastpath_pairs if proof else 0
            elems = proof.elements if proof else 0
            print(f"{name:<18} {builder:<10} {items:>6} {pairs:>6} "
                  f"{fast:>5} {elems:>7}  {verdict}")
        # Collective round plan: byte conservation, chunk tiling and
        # the per-round memory bound on top of the full oracle proof
        # (small cap so every case actually chunks into rounds).
        sched = build_region_schedule(src, dst)
        try:
            proof = verify_collective_plan(sched, src, dst,
                                           round_bytes=256)
            coll = sched.collective_plan(8, 256)
            verdict = (f"proved ({coll.nrounds} rounds, "
                       f"ceiling {coll.resident_ceiling()}B)")
            elems = proof.elements
        except VerificationError as exc:
            failures += 1
            verdict = f"FAILED: {exc}"
            elems = 0
        print(f"{name:<18} {'collective':<10} {len(sched.items):>6} "
              f"{sched.pair_count:>6} {'-':>5} {elems:>7}  {verdict}")
    checks = ("completeness, disjointness, ownership, conservation, "
              "plan consistency, oracle routing; collective rows add "
              "chunk tiling, round byte conservation, memory bound")
    print(f"checks per case: {checks}")

    # Delta-vs-full equivalence: delta schedule ∘ old ownership must
    # reproduce the full rebuild exactly, over grow / shrink /
    # same-size resizes of every structured template kind, plus a
    # warm-start soundness proof — a coupling schedule is fully
    # compiled, its destination side is resized through the cache, and
    # every plan of the warm-started schedule (verbatim-reused pairs
    # included) is re-proved against the fallback gather.
    from repro.dad import DistArrayDescriptor
    from repro.dad.template import block_template
    from repro.schedule.builder import ScheduleCache
    from repro.schedule.delta import compile_delta
    from repro.util.counters import REDIST_STATS
    from repro.verify.schedule import (verify_delta_equivalence,
                                       verify_schedule)

    print()
    print("delta-schedule proofs (resize m->m' vs full rebuild)")
    print(f"{'case':<22} {'moved':>7} {'kept':>7} {'ident':>5} "
          f"{'reused':>6} {'recomp':>6}  verdict")
    for name, old, new in _delta_cases():
        try:
            delta = compile_delta(old, new)
            verify_delta_equivalence(old, new, delta=delta)
            src0 = DistArrayDescriptor(
                block_template(old.shape, (4,) * len(old.shape)))
            cache = ScheduleCache()
            s1 = cache.get(src0, old)
            for r in range(src0.nranks):
                s1.send_plan(r, src0.local_regions(r))
            for r in range(old.nranks):
                s1.recv_plan(r, old.local_regions(r))
            before = REDIST_STATS.snapshot()
            warm = cache.get(src0, new)
            after = REDIST_STATS.snapshot()
            reused = (after.get("pairs_reused", 0)
                      - before.get("pairs_reused", 0))
            recompiled = (after.get("pairs_recompiled", 0)
                          - before.get("pairs_recompiled", 0))
            verify_schedule(warm, src0, new)
            verdict = "proved"
        except VerificationError as exc:
            failures += 1
            verdict = f"FAILED: {exc}"
            delta = None
            reused = recompiled = 0
        moved = delta.moved_elements if delta else 0
        kept = delta.kept_elements if delta else 0
        ident = len(delta.identity_ranks) if delta else 0
        print(f"{name:<22} {moved:>7} {kept:>7} {ident:>5} "
              f"{reused:>6} {recompiled:>6}  {verdict}")
    print("checks per delta case: partition, minimality, identity "
          "ranks, local repack consistency, warm-started plan "
          "consistency (reused pairs re-proved)")
    print("schedule: " + ("FAIL" if failures else "OK"))
    return 1 if failures else 0


def _commgraph_cases():
    from repro.dad import Block, CartesianTemplate, Cyclic, \
        DistArrayDescriptor
    from repro.dca.engine import DeliveryPolicy
    from repro.schedule.builder import build_region_schedule
    from repro.verify.commgraph import (
        CommProgram,
        fig5_model,
        prmi_batch_deadlock_model,
        prmi_pipeline_model,
        prmi_serving_model,
        rma_channel_model,
        transfer_model,
    )

    def desc(axis):
        return DistArrayDescriptor(CartesianTemplate([axis]))

    quickstart = build_region_schedule(desc(Block(64, 4)), desc(Block(64, 6)))
    cyclic = build_region_schedule(desc(Block(48, 4)), desc(Cyclic(48, 3)))

    # A coupled Channel exchange scripted in a consistent order: both
    # jobs push before pulling, so every receive has a send in flight.
    exchange = CommProgram()
    left = exchange.procs("left", 2)
    right = exchange.procs("right", 2)
    for a, b in zip(left, right):
        exchange.send(a, b, tag=151)
        exchange.send(b, a, tag=152)
        exchange.recv(b, a, tag=151)
        exchange.recv(a, b, tag=152)

    # The same exchange scripted pull-before-push on both sides: the
    # classic head-to-head receive cycle a static check must flag.
    head_to_head = CommProgram()
    lp = head_to_head.proc("left", 0)
    rp = head_to_head.proc("right", 0)
    head_to_head.recv(lp, rp, tag=151)
    head_to_head.send(lp, rp, tag=152)
    head_to_head.recv(rp, lp, tag=152)
    head_to_head.send(rp, lp, tag=151)

    return [
        ("fig5-eager", fig5_model(DeliveryPolicy.EAGER), True),
        ("fig5-barrier", fig5_model(DeliveryPolicy.BARRIER), False),
        ("transfer-quickstart", transfer_model(quickstart), False),
        ("transfer-cyclic", transfer_model(cyclic), False),
        ("coupler-exchange", exchange, False),
        ("pull-before-push", head_to_head, True),
        # One-sided tier: a well-ordered RMA channel is clean; the
        # put-before-token misuse trips the epoch cycle the runtime
        # watchdog would report as rma_put/recv stalls (see
        # tests/simmpi/test_procs_backend.py for the live twin).
        ("rma-channel", rma_channel_model(steps=3), False),
        ("rma-epoch-misuse", rma_channel_model(misuse=True), True),
        # Serving tier: the shipped batched / pipelined protocols are
        # clean; withholding replies to batch them (no deadline) against
        # a caller blocked on its first future is the cycle the flush
        # deadline and one-reply-frame-per-request-frame rule prevent.
        ("prmi-batched-serving", prmi_serving_model(callers=3), False),
        ("prmi-pipelined", prmi_pipeline_model(depth=4), False),
        ("prmi-batch-no-deadline", prmi_batch_deadlock_model(), True),
    ]


def _epoch_cases():
    from repro.verify.commgraph import CommProgram, rma_channel_model

    # Structurally broken one-sided programs: more puts than the owner
    # ever licenses, and a read inside the open epoch (torn read).
    unexposed = CommProgram()
    w = unexposed.proc("prod", 0)
    o = unexposed.proc("cons", 0)
    win = unexposed.window(o, "field")
    unexposed.put(w, win)

    torn = CommProgram()
    w2 = torn.proc("prod", 0)
    o2 = torn.proc("cons", 0)
    win2 = torn.window(o2, "field")
    torn.epoch_open(win2)
    torn.read(win2)
    torn.fence(win2, (w2,))
    torn.put(w2, win2)

    return [
        ("rma-channel", rma_channel_model(steps=3), 0),
        ("rma-unexposed-put", unexposed, 1),
        ("rma-torn-read", torn, 1),
    ]


def cmd_commgraph(_args) -> int:
    from repro.verify.commgraph import would_deadlock

    failures = 0
    print("communication-graph deadlock analysis")
    for name, program, expect_deadlock in _commgraph_cases():
        diag = would_deadlock(program)
        got = diag is not None
        ok = got == expect_deadlock
        if not ok:
            failures += 1
        verdict = ("would deadlock" if got else "deadlock-free")
        expected = ("deadlock" if expect_deadlock else "clean")
        print(f"  {name:<22} {verdict:<16} (expected {expected})"
              + ("" if ok else "  MISMATCH"))
        if diag is not None and expect_deadlock:
            for key in sorted(diag.blocked):
                print(f"      {key}: {diag.blocked[key]}")
            for cyc in diag.cycles:
                print("      wait cycle: " + " -> ".join(cyc + cyc[:1]))
            print(f"      kind: {diag.kind}")
    print("epoch-consistency (structural, one-sided tier)")
    for name, program, expect in _epoch_cases():
        violations = program.epoch_violations()
        ok = len(violations) == expect
        if not ok:
            failures += 1
        print(f"  {name:<22} {len(violations)} violation(s) "
              f"(expected {expect})" + ("" if ok else "  MISMATCH"))
        for v in violations:
            print(f"      {v}")
    print("commgraph: " + ("FAIL" if failures else "OK"))
    return 1 if failures else 0


def cmd_race(_args) -> int:
    from repro.verify.race import (check_protocols, check_streaming,
                                   sanitizer_selfcheck)

    failures = 0
    print("race protocol proofs (bounded explicit-state model checks)")
    print(f"  {'model':<42} {'states':>7} {'expect':>38} verdict")
    for r in check_protocols() + check_streaming():
        if not r.passed:
            failures += 1
        print(f"  {r.label:<42} {r.exploration.states:>7} "
              f"{r.expect:>38} "
              + ("proved" if r.passed else f"FAILED (got {r.outcome})"))
        if r.mutant and r.passed and r.exploration.trace:
            # the counterexample witness: the interleaving that trips
            # the seeded bug, straight from the search's parent map
            last = r.exploration.trace[-1]
            print(f"      witness ({len(r.exploration.trace)} steps, "
                  f"last: {last})")
        if not r.passed and not r.exploration.ok:
            print(r.exploration.witness())
    print("  properties: no lost wakeups (every interleaving "
          "completes, streamed messages included), no ABA slot reuse, "
          "no unexposed-epoch puts, no torn seqlock reads")
    selfcheck = sanitizer_selfcheck()
    for msg in selfcheck:
        failures += 1
        print(f"  sanitizer selfcheck MISMATCH: {msg}")
    print(f"  sanitizer selfcheck (live hooks, clean round + 5 seeded "
          f"corruptions): " + ("OK" if not selfcheck else "FAIL"))
    print("race: " + ("FAIL" if failures else "OK"))
    return 1 if failures else 0


def cmd_lint(args) -> int:
    from repro.verify.lint import RULES, lint_paths

    paths = args.paths or ["src/"]
    violations = lint_paths(paths)
    for v in violations:
        print(v)
    print(f"lint: {len(violations)} violation(s) over {', '.join(paths)} "
          f"({len(RULES)} rules)")
    return 1 if violations else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="static schedule proofs, deadlock detection, and "
                    "the ownership lint pack")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("schedule", help="prove builders against the oracle")
    sub.add_parser("commgraph", help="deadlock-check communication models")
    sub.add_parser("race", help="model-check the lock-free shared-memory "
                   "protocols and self-check the race sanitizer")
    lint = sub.add_parser("lint", help="run the ownership lint pack")
    lint.add_argument("paths", nargs="*", help="files or directories "
                      "(default: src/)")
    sub.add_parser("all", help="run every analyzer")
    args = parser.parse_args(argv)

    if args.command == "schedule":
        return cmd_schedule(args)
    if args.command == "commgraph":
        return cmd_commgraph(args)
    if args.command == "race":
        return cmd_race(args)
    if args.command == "lint":
        return cmd_lint(args)
    rc = cmd_schedule(args)
    rc |= cmd_commgraph(args)
    rc |= cmd_race(args)
    args.paths = []
    rc |= cmd_lint(args)
    return rc


if __name__ == "__main__":
    sys.exit(main())
