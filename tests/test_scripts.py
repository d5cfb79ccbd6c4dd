"""The experiment scripts run against the library and print their tables."""

import importlib.util
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


def _compare_outputs_script():
    path = ROOT / "scripts" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_goes_on_past_files_in_one_tree_only(tmp_path, capsys):
    # A run whose exit status changed from 3 to 0 writes factor files the
    # old tree lacks; the summary still reports the drift and the exit change.
    trees = {side: tmp_path / side for side in ("old", "new")}
    for side, tree in trees.items():
        failed = tree / "r007.csv" / "sweeps2" / "pca"
        failed.mkdir(parents=True)
        (failed / "exit").write_text("3\n" if side == "old" else "0\n")
        if side == "new":
            (failed / "pca_scores.csv").write_text("2.0\n")
        passed = tree / "r008.csv" / "default" / "pca"
        passed.mkdir(parents=True)
        (passed / "exit").write_text("0\n")
        (passed / "pca_scores.csv").write_text("4.0\n" if side == "old" else "4.000000001\n")
    assert _compare_outputs_script().compare_trees(trees["old"], trees["new"]) == 1
    out = capsys.readouterr().out
    assert "file sets differ: 1 files in one tree only, in 1 run directories" in out
    assert "r007.csv/sweeps2/pca: new only: pca_scores.csv" in out
    assert "over 1 differing factor files: 2.50e-10 (r008.csv/default/pca/pca_scores.csv)" in out
    assert "changed exit codes: 1" in out


def test_compare_outputs_passes_identical_trees(tmp_path, capsys):
    for side in ("old", "new"):
        run = tmp_path / side / "r000.csv" / "default" / "svd"
        run.mkdir(parents=True)
        (run / "exit").write_text("0\n")
        (run / "svd_sigma.csv").write_text("3.0\n2.0\n")
    assert _compare_outputs_script().compare_trees(tmp_path / "old", tmp_path / "new") == 0
    assert "differing files: 0" in capsys.readouterr().out
