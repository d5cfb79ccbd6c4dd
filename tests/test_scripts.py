"""The experiment scripts run against the library and print their tables."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, header",
    [
        (
            "residual_study.py",
            ["--trials", "3", "--max-dim", "3"],
            "3 real draws, n <= 3, cond(V†V) <= 1e+06",
        ),
        (
            "condition_sweep.py",
            ["--dim", "3", "--trials", "1"],
            "dim 3, 1 trials per condition level",
        ),
    ],
)
def test_script_runs(script, args, header):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header


def test_condition_sweep_reports_the_worst_sweep_count():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "condition_sweep.py"), "--dim", "3", "--trials", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()[1:]
    assert header.split()[-1] == "sweeps"
    sweeps = {float(row.split()[0]): int(row.split()[-1]) for row in rows}
    assert len(sweeps) == 15
    # cond 1: T = L†·L is the identity to rounding, and some of those
    # rounding-size pairs still fail |a_pq| <= ε·√|a_pp·a_qq|, so the
    # polish sweep runs.  From 1e14 on, the QR/LQ rounds alone leave T
    # diagonal to that test: no sweep at all.
    assert sweeps[1.0] >= 1
    assert all(sweeps[10.0**k] == 0 for k in range(14, 29, 2))
