"""Fingerprint the benchmark's oracle workloads: one line per operation.

Each line holds the workload, seed, round and operation kind, the
``repr`` of the workload's record of the result, and the checker's
verdict (``ok``, or why the operation failed).  A change meant to move
no number is checked by one ``cmp`` of two runs, one with ``--root``
naming a checkout of the parent commit:

    python3 scripts/oracle_records.py --seeds 0 9001 --rounds 3 > new.txt
    python3 scripts/oracle_records.py --seeds 0 9001 --rounds 3 --root ../parent > old.txt
    cmp old.txt new.txt

``--root`` is the checkout whose ``src/`` and ``perfbench/`` are imported
(default: the one holding this script).  The workloads, their inputs and
their checkers are ``perfbench/workloads.py``'s, run in this process.
"""

import argparse
import sys
from pathlib import Path

ORACLES = ("oracle-box", "oracle-pullback")


def main(argv=None):
    ap = argparse.ArgumentParser(description="Print one record line per oracle operation.")
    ap.add_argument("--workload", choices=ORACLES + ("all",), default="all")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--rounds", type=int, default=1, help="rounds 0 .. ROUNDS-1 of each seed")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import cartanarea
    import workloads

    if not Path(cartanarea.__file__).resolve().is_relative_to(root / "src"):
        sys.exit(f"error: imported cartanarea from {cartanarea.__file__}, not from {root / 'src'}")
    names = ORACLES if args.workload == "all" else (args.workload,)
    for name in names:
        for seed in args.seeds:
            wl = workloads.WORKLOADS[name](seed, workloads.SIZES[args.size])
            for i in range(args.rounds):
                for op in wl.round(i):
                    try:
                        out = wl.run(op)
                        record, verdict = wl.record(op, out), wl.check(op, out) or "ok"
                    except Exception as exc:  # a failed operation is a line, not the end
                        record, verdict = ("raised", type(exc).__name__, str(exc)), "raised"
                    print(f"{name} {seed} {i} {op.kind} {record!r} {verdict}", flush=True)


if __name__ == "__main__":
    main()
