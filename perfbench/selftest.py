"""Tests of the benchmark itself, on tiny grids.

    python3 perfbench/selftest.py

Smoke runs of every workload through the launcher, an injected wrong
verdict, determinism of outputs and per-layer counts for one seed, the
trace accounting for its wall time, and a non-zero exit where there is
no program to measure.  Not collected by the repository's test suite.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import worker  # noqa: E402  (puts the checkout's src/ on sys.path)
import workloads
from cartanarea import variation as va

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = workloads.SIZES["tiny"]


def launch(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class Smoke(unittest.TestCase):
    def run_workload(self, workload, trace):
        proc = launch("--workload", workload, "--seed", "5", "--seconds", "1",
                      "--trace", str(trace), "--size", "tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in wanted},
        )
        return result

    def test_every_workload_untraced_and_traced(self):
        for workload in [w["name"] for w in spec()["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_workload(workload, trace)
                    if workload != "oracle-pullback":
                        self.assertEqual(result["failed"], 0)
                    if trace:
                        m = result["metrics"]
                        self.assertLess(m["trace.unaccounted_frac"]["value"], 0.05)


class Checker(unittest.TestCase):
    def test_injected_wrong_verdict_raises_failed(self):
        _, clean = worker.run_timed("oracle-box", 2, 0.0, "tiny")
        self.assertEqual(clean["failed"], 0)
        original = va.first_variation_fd

        def wrong(*args, **kwargs):
            rep = original(*args, **kwargs)
            rep.classification = "inconclusive"
            return rep

        with mock.patch.object(va, "first_variation_fd", wrong):
            _, broken = worker.run_timed("oracle-box", 2, 0.0, "tiny")
        self.assertEqual(broken["failed"], broken["attempted"])
        self.assertFalse(broken["correct"])

    def test_known_defect_rows_are_the_only_pullback_failures(self):
        wl = workloads.OraclePullback(0, TINY)
        for op in wl.round(0):
            why = worker.verdict(wl, op, worker.attempt(wl, op))
            self.assertEqual(why is not None, op.known_defect, f"{op.kind}: {why}")

    def test_plucker4_euclidean_normal_has_nonzero_flux(self):
        from cartanarea import frames, grassmann, lagrangian
        import numpy as np

        L = lagrangian.area_plucker_4d()
        elem = grassmann.GrassmannElement(n=4, p=2, slopes=workloads.TILT)
        X = np.concatenate([workloads.TILT[0], [-1.0, 0.0]])
        self.assertGreater(np.max(np.abs(frames.boundary_residual_of_field(L, elem, X))), 0.1)


class Determinism(unittest.TestCase):
    def test_same_seed_same_outputs_and_counts(self):
        for workload in ("oracle-box", "solve-large", "pointwise"):
            with self.subTest(workload=workload):
                _, res1, records1, counts1 = worker.run_traced(workload, 7, "tiny", dump=False)
                _, res2, records2, counts2 = worker.run_traced(workload, 7, "tiny", dump=False)
                self.assertEqual(records1, records2)
                self.assertEqual(counts1, counts2)
                for name in ("variation.field_evals", "extremal.solves",
                             "extremal.newton_iters", "extremal.spsolve_calls"):
                    self.assertEqual(res1["metrics"][name], res2["metrics"][name])

    def test_other_seed_other_inputs(self):
        _, _, records1, _ = worker.run_traced("pointwise", 7, "tiny", dump=False)
        _, _, records2, _ = worker.run_traced("pointwise", 8, "tiny", dump=False)
        self.assertNotEqual(records1, records2)


class Launcher(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = os.path.join(ROOT, ".bench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.makedirs(bare)
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = launch("--workload", "pointwise", "--seed", "0", "--seconds", "1",
                          "--trace", "0", cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
