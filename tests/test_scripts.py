"""Smoke tests for the runnable studies under ``scripts/``.

The scripts import private helpers of the library; running them here on
small grids makes a rename of those helpers fail the suite.
"""

import importlib.util
import subprocess
import sys
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


def test_oracle_records_prints_one_checked_line_per_operation():
    # run apart: the script puts the checkout's perfbench/ on sys.path
    args = ["--workload", "oracle-box", "--size", "tiny", "--rounds", "1", "--seeds", "0"]
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "oracle_records.py"), *args],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert len(out) == 10  # one round of oracle-box: nine frame rows, one edge slide
    assert all(line.startswith("oracle-box 0 0 ") and line.endswith(" ok") for line in out)
    assert sum(" edge-slide ('non-normal', " in line for line in out) == 1
