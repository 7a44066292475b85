"""End-to-end verification checklist at its stated tolerances.

Each test runs one checklist criterion, prints its summary line, and
asserts the stated bound and runtime budget.  Criterion 3 asserts the
flux identity for ``variational_frame`` over all four built-in
integrands.  On the same samples it asserts that the closed form
``cartan_frame`` meets the identity in codimension one, and that in
codimension two its residual is the dropped cross-coupling term and is
not small (see test_frames.test_identity_residual_codim2_cross_coupling,
which checks a hand-computed value of the flux
``boundary_residual_of_field(L, e, lam @ cartan_frame(L, e).vectors)``).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cartanarea
from cartanarea import acceptance as acc


@pytest.fixture(scope="module")
def rng_factory():
    return lambda: np.random.default_rng(0)


@pytest.fixture(scope="module")
def oracle_rows(rng_factory):
    rng = rng_factory()
    r4, rows4 = acc.criterion_4(rng)
    r5, rows5 = acc.criterion_5(rng)
    return (r4, rows4), (r5, rows5)


def _report(result, budget=None):
    print(result.line())
    if budget is not None:
        assert result.runtime < budget, f"runtime {result.runtime:.2f}s over budget {budget}s"
    assert result.passed, result.detail


def test_criterion_1(rng_factory):
    _report(acc.criterion_1(rng_factory()), budget=1.0)


def test_criterion_2(rng_factory):
    _report(acc.criterion_2(rng_factory()), budget=1.0)


def test_criterion_3(rng_factory):
    _report(acc.criterion_3(rng_factory()), budget=2.0)


def test_criterion_4(oracle_rows):
    (r4, _), _ = oracle_rows
    _report(r4, budget=30.0)


def test_criterion_5(oracle_rows):
    _, (r5, _) = oracle_rows
    _report(r5, budget=120.0)


def test_criterion_6(oracle_rows):
    (_, rows4), (_, rows5) = oracle_rows
    _report(acc.criterion_6(rows4, rows5))


def test_criterion_7(rng_factory):
    _report(acc.criterion_7(rng_factory()))


def test_criterion_8(rng_factory):
    _report(acc.criterion_8(rng_factory()))


def test_criterion_9(rng_factory):
    _report(acc.criterion_9(rng_factory()))


def test_criterion_10_cli_determinism(tmp_path):
    """Criteria 1-9 from one CLI invocation, byte-identical across runs."""
    # the child imports the package this test imported, installed or not
    src = str(Path(cartanarea.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    outputs = []
    for run in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "cartanarea.cli", "acceptance", "--seed", "0"],
            capture_output=True,
            timeout=600,
            env=env,
        )
        assert proc.returncode in (0, 1), proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    text = outputs[0].decode()
    for idx in range(1, 10):
        assert f"criterion {idx:2d} " in text
    print(text)
