"""The experiment scripts run against the library and write what they report."""

import ast
import importlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

import lowdin as lo

from conftest import load_script

ROOT = Path(__file__).resolve().parent.parent


def test_accuracy_writes_every_residual_against_its_bound(tmp_path):
    out = tmp_path / "ACCURACY.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "accuracy.py"), "--trials", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    table = json.loads(out.read_text(encoding="utf-8"))
    assert set(table) == {"cells", "command", "seed"}
    assert table["seed"] == 0
    assert shlex.split(table["command"])[-4:] == ["--trials", "1", "--out", str(out)]
    shapes = ("3x3", "8x8", "32x32", "64x64", "40x12", "64x16", "128x32")
    levels = [10.0**k for k in range(0, 29, 2)]
    grid = [(c["shape"], c["dtype"], c["cond"]) for c in table["cells"]]
    assert grid == [(s, d, c) for s in shapes for d in ("real", "complex") for c in levels]
    bounds = lo.factorize(np.eye(2)).bounds()
    for c in table["cells"]:
        assert set(c) == {"shape", "dtype", "cond", "residuals", "sweeps", "sweeps_total"}
        assert isinstance(c["sweeps"], int) and c["sweeps"] >= 0
        assert c["sweeps_total"] == c["sweeps"]  # one draw per cell
        assert set(c["residuals"]) == set(bounds)
        for name, entry in c["residuals"].items():
            assert set(entry) == {"worst", "median", "bound"}
            assert entry["bound"] == bounds[name]
            assert 0.0 <= entry["median"] <= entry["worst"]
            assert entry["worst"] <= entry["bound"], (c["shape"], c["dtype"], c["cond"], name)


def test_committed_accuracy_table_holds_every_residual_within_its_bound():
    # The committed table, not a rerun: a deleted or renamed residual, or
    # a moved bound, shows here until ACCURACY.json is written again.
    table = json.loads((ROOT / "ACCURACY.json").read_text(encoding="utf-8"))
    bounds = lo.factorize(np.eye(2)).bounds()
    assert len(table["cells"]) == 210
    for c in table["cells"]:
        assert {name: entry["bound"] for name, entry in c["residuals"].items()} == bounds
        for name, entry in c["residuals"].items():
            assert entry["worst"] <= entry["bound"], (c["shape"], c["dtype"], c["cond"], name)


def test_a_3x3_takes_no_sweep_from_cond_1e14():
    # cond 1: T = L†·L is the identity to rounding, which already passes
    # |a_pq| <= √n·ε·√(d'_p·d'_q).  From 1e14 on, the QR/LQ rounds alone
    # leave T diagonal to that test.  Only the cells between need sweeps.
    script = load_script("accuracy")
    rng = np.random.default_rng(0)
    sweeps = {k: script.cell(rng, (3, 3), False, 10.0**k, 2)["sweeps"] for k in range(0, 29, 2)}
    assert sweeps[0] == 0
    assert all(sweeps[k] >= 1 for k in range(2, 14, 2))
    assert all(sweeps[k] == 0 for k in range(14, 29, 2))


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
    assert load_script("compare_outputs").compare_trees(trees["old"], trees["new"]) == 1
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
    assert load_script("compare_outputs").compare_trees(tmp_path / "old", tmp_path / "new") == 0
    assert "differing files: 0" in capsys.readouterr().out


def test_compare_outputs_prints_the_worst_drift_of_each_report_key(tmp_path, capsys):
    # Numbers are paired by position; list positions merge under one key,
    # and keys whose numbers all match are not listed.
    reports = {
        "old": {"residuals": {"orthonormality": 1e-15, "svd_reconstruction": 2e-16},
                "eigenvalues": [4.0, 2.0], "error": None, "rows": 2},
        "new": {"residuals": {"orthonormality": 1.5e-15, "svd_reconstruction": 2e-16},
                "eigenvalues": [4.0, 2.000000002], "error": None, "rows": 2},
    }
    for side, report in reports.items():
        run = tmp_path / side / "r000.csv" / "default" / "svd"
        run.mkdir(parents=True)
        (run / "exit").write_text("0\n")
        (run / "report.json").write_text(json.dumps(report))
    assert load_script("compare_outputs").compare_trees(tmp_path / "old", tmp_path / "new") == 1
    drift = capsys.readouterr().out.split("worst numeric drift in report.json, per key:\n")[1]
    assert drift.splitlines()[:2] == [
        "  eigenvalues: 1 reports, |new - old| 2.00e-09, |new - old| / |old| 1.00e-09",
        "  residuals.orthonormality: 1 reports, |new - old| 5.00e-16, |new - old| / |old| 5.00e-01",
    ]
    assert "svd_reconstruction" not in drift and "rows" not in drift


def _library_functions() -> dict:
    """``LIBRARY_FUNCTIONS`` of perfbench/run.py, read without importing the benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LIBRARY_FUNCTIONS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no LIBRARY_FUNCTIONS")


def test_the_names_the_benchmark_reads_stay_bound():
    # perfbench/run.py calls each library function through lowdin.<module>,
    # perfbench/check.py reads these attributes of its result, and the
    # tracer wraps hermitian_eigen in every module that binds it.
    v = np.random.default_rng(0).standard_normal((5, 3))
    functions = _library_functions()
    assert functions
    for command, (module, name) in functions.items():
        result = getattr(importlib.import_module(f"lowdin.{module}"), name)(v)
        if command == "svd":
            assert result.left.shape == (5, 3) and result.right.shape == (3, 3)
            assert result.singular_values.shape == (3,)
        else:
            assert result.matrix.shape == (5, 3)
            assert result.source_eigen.eigenvalues.shape == (3,)
            assert result.source_eigen.eigenvectors.shape == (3, 3)
    for module in ("ortho", "pca", "decompositions"):
        bound = importlib.import_module(f"lowdin.{module}").hermitian_eigen
        assert bound is lo.linalg.hermitian_eigen, module
    assert lo.linalg.DEFAULT_TOLERANCES.orthonormality_tol == 1e-10
    assert lo.linalg.DEFAULT_TOLERANCES.reconstruction_tol == 1e-9
