"""One benchmark session in a fresh interpreter.

``run.py`` starts one of these per session so that every session pays
set-up cold (empty schedule cache, no compiled plans).  The raw
measurements are pickled to ``--out``.

    python3 perfbench/session.py --workload NAME --seed N --seconds S \\
        --out FILE [--trace] [--min-ops K] [--ops K] [--fault-op J] \\
        [--backend threads|procs] [--tiny]
"""

import argparse
import pickle
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--min-ops", type=int, default=None)
    ap.add_argument("--ops", type=int, default=None)
    ap.add_argument("--fault-op", type=int, default=None)
    ap.add_argument("--backend", default=None)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    import workloads
    from tracer import Tracer

    kw = {} if args.min_ops is None else {"min_ops": args.min_ops}
    cfg = workloads.session_config(
        args.workload, args.seed, args.seconds, ops=args.ops,
        fault_op=args.fault_op, backend=args.backend, tiny=args.tiny, **kw)
    result = workloads.run_session(cfg, Tracer() if args.trace else None)
    with open(args.out, "wb") as fh:
        pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)


if __name__ == "__main__":
    main()
