"""Benchmark launcher: one process per workload, BLAS/OpenMP capped at 1.

    python3 perfbench/run.py --workload oracle-box --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--workload all`` every workload runs in turn, each metric is printed
by name with its unit, and the last line sums the counts and prefixes
each metric with its workload.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oracle-box", "oracle-pullback", "solve-large", "pointwise")
CHILD_TIMEOUT_S = 170
THREAD_CAPS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def run_one(workload, args):
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_CAPS})
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None, ""
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {workload} exited with code {proc.returncode}", file=sys.stderr)
        return None, proc.stdout
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def main():
    ap = argparse.ArgumentParser(description="cartanarea benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small grids, for the benchmark's own tests")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "cartanarea", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/cartanarea is missing", file=sys.stderr)
        return 2
    if args.workload != "all":
        result, log = run_one(args.workload, args)
        if result is None:
            return 1
        print(log)
        print(json.dumps(result))
        return 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result, log = run_one(workload, args)
        if result is None:
            return 1
        print(log)
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={result['failed'] / result['attempted']:.4f}")
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
            total["metrics"][f"{workload}/{name}"] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
