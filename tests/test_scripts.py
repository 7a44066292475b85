"""Smoke tests for the runnable studies under ``scripts/``.

The scripts import private helpers of the library; running them here on
small grids makes a rename of those helpers fail the suite.
"""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_convergence_study_runs(capsys):
    _load("convergence_study").main([9, 17])
    out = capsys.readouterr().out
    assert "r=   9" in out and "r=  17" in out
    assert "oracle floor orders" in out


def test_codim2_frame_probe_runs(capsys):
    _load("codim2_frame_probe").main()
    out = capsys.readouterr().out
    assert out.count("dA/dt") == 5
