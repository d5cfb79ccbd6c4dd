"""CLI behavior: dispatch, files, report schema, and exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lowdin as lo
import lowdin.matrixio
from conftest import load_script, random_matrix
from lowdin.cli import COMMANDS, _build_parser, main
from lowdin.decompositions import RELATION_TOL
from lowdin.matrixio import delimiter_for, format_matrix, parse_matrix_file, write_matrix_file
from lowdin.ortho import OrthonormalBasis

FIXTURES = Path(__file__).parent / "fixtures"

GOLDEN_HI = (3.0 + math.sqrt(5.0)) / 2.0
GOLDEN_LO = (3.0 - math.sqrt(5.0)) / 2.0


def run_cli(command, input_path, output_dir, *extra):
    argv = [
        command,
        "--input",
        str(input_path),
        "--output-dir",
        str(output_dir),
        *extra,
    ]
    return main(argv)


def load_report(output_dir):
    return json.loads((Path(output_dir) / "report.json").read_text())


class TestSymmetricCommand:
    def test_identity_input(self, tmp_path):
        code = run_cli("symmetric", FIXTURES / "identity_2x2.csv", tmp_path)
        assert code == 0
        phi = parse_matrix_file(tmp_path / "symmetric_Phi.csv")
        assert np.array_equal(phi, np.eye(2))
        report = load_report(tmp_path)
        assert report["command"] == "symmetric"
        assert report["rows"] == 2 and report["cols"] == 2
        assert report["residuals"]["orthonormality"] == 0.0
        assert report["pass"] is True
        assert report["error"] is None

    def test_shear_input(self, tmp_path):
        code = run_cli("symmetric", FIXTURES / "shear_2x2.csv", tmp_path)
        assert code == 0
        phi = parse_matrix_file(tmp_path / "symmetric_Phi.csv")
        assert lo.verify_orthonormal(phi) <= lo.DEFAULT_TOLERANCES.orthonormality_tol
        report = load_report(tmp_path)
        assert report["eigenvalues"] == pytest.approx([GOLDEN_HI, GOLDEN_LO])
        assert report["condition_estimate"] == pytest.approx(GOLDEN_HI / GOLDEN_LO)

    @pytest.mark.parametrize(
        "command, text",
        [
            pytest.param(command, text, id=text if command == "symmetric" else f"{command}-{text}")
            for command in ("symmetric", "pca", "verify")
            for text in ("1e154,0\n0,1e154\n", "9e153,9e153\n1e150,-1e150\n")
        ],
    )
    def test_input_whose_gram_matrix_overflows(self, tmp_path, command, text):
        # Neither V†V nor V·V† is formed, so only d must fit in float64: V is
        # scaled by 2^-e before the metric solve and before pca's eigenpair
        # residual.
        source = tmp_path / "in.csv"
        source.write_text(text)
        assert run_cli(command, source, tmp_path / "out") == 0
        report = load_report(tmp_path / "out")
        assert report["pass"] is True and report["error"] is None
        if command != "pca":  # pca reports no basis orthonormality
            orthonormality = report["residuals"]["orthonormality"]
            assert orthonormality <= lo.DEFAULT_TOLERANCES.orthonormality_tol


    @pytest.mark.parametrize("command", ["symmetric", "verify"])
    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("1e-158,2e-158\n3e-158,-1e-158\n5e-158,1e-158\n", id="tall-1e-158"),
            pytest.param("1e-160,0\n0,1e-160\n", id="identity-1e-160"),
        ],
    )
    def test_input_near_the_bottom_of_the_float_range(self, tmp_path, command, text):
        # Perfectly conditioned, but the squares of V's entries are subnormal.
        # Λ is built from 2^-e·V, so only d sees the small scale.
        source = tmp_path / "in.csv"
        source.write_text(text)
        assert run_cli(command, source, tmp_path / "out") == 0
        report = load_report(tmp_path / "out")
        assert report["pass"] is True
        assert report["residuals"]["orthonormality"] <= 1e-15


class TestCanonicalCommand:
    def test_writes_lambda(self, tmp_path):
        code = run_cli("canonical", FIXTURES / "diag_2_3.csv", tmp_path)
        assert code == 0
        lam = parse_matrix_file(tmp_path / "canonical_Lambda.csv")
        assert np.allclose(lam, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)
        report = load_report(tmp_path)
        assert report["eigenvalues"] == pytest.approx([9.0, 4.0])


class TestPolarCommand:
    def test_factor_files_and_residuals(self, tmp_path):
        code = run_cli("polar", FIXTURES / "rand_4x3.csv", tmp_path)
        assert code == 0
        phi = parse_matrix_file(tmp_path / "polar_Phi.csv")
        h = parse_matrix_file(tmp_path / "polar_H.csv")
        v = parse_matrix_file(FIXTURES / "rand_4x3.csv")
        assert lo.max_abs(phi @ h - v) <= 1e-12
        report = load_report(tmp_path)
        assert set(report["residuals"]) == {"orthonormality", "polar_reconstruction"}
        assert report["pass"] is True


class TestSvdCommand:
    def test_diagonal_input(self, tmp_path):
        code = run_cli("svd", FIXTURES / "diag_2_3.csv", tmp_path)
        assert code == 0
        sigma_text = (tmp_path / "svd_sigma.csv").read_text()
        assert sigma_text == "3.0\n2.0\n"
        report = load_report(tmp_path)
        assert report["singular_values"] == [3.0, 2.0]
        assert report["residuals"]["svd_reconstruction"] <= 1e-10

    def test_reconstruction_from_written_factors(self, tmp_path):
        code = run_cli("svd", FIXTURES / "rand_4x3.csv", tmp_path)
        assert code == 0
        w = parse_matrix_file(tmp_path / "svd_W.csv")
        udag = parse_matrix_file(tmp_path / "svd_Udagger.csv")
        sigma = parse_matrix_file(tmp_path / "svd_sigma.csv").ravel().real
        v = parse_matrix_file(FIXTURES / "rand_4x3.csv")
        assert lo.max_abs((w * sigma) @ udag - v) <= 1e-12


class TestPcaCommand:
    def test_components_and_gaps(self, tmp_path):
        code = run_cli("pca", FIXTURES / "rand_4x3.csv", tmp_path)
        assert code == 0
        components = parse_matrix_file(tmp_path / "pca_components.csv")
        scores = parse_matrix_file(tmp_path / "pca_scores.csv").ravel().real
        assert components.shape == (4, 3)
        assert np.all(np.diff(scores) <= 0.0)
        report = load_report(tmp_path)
        assert report["residuals"]["sscp_eigenpair"] <= 1e-12
        assert report["residuals"]["projection_sum_gap"] <= RELATION_TOL
        assert report["residuals"]["orthonormality"] <= 1e-10

    def test_a_mis_normalized_component_fails_the_run(self, tmp_path, monkeypatch):
        # Λ's last column 1 + 1e-8 long, on a 40 x 12 V at cond(M) = 1e10,
        # which the default cutoff admits: projection_sum_gap (2e-13) and
        # sscp_eigenpair pass it, and Λ's orthonormality (2e-8 against its
        # bound 1e-10) fails the run.
        v = load_script("accuracy").controlled_matrix(np.random.default_rng(0), (40, 12), 1e10)
        source = tmp_path / "v.csv"
        write_matrix_file(source, v)

        def stretched(v):
            f = lo.factorize(v)
            matrix = f.lam.matrix.copy()
            matrix[:, -1] *= 1.0 + 1e-8
            return dataclasses.replace(f, lam=f.lam._replace(matrix=matrix))

        monkeypatch.setattr("lowdin.cli.factorize", stretched)
        out = tmp_path / "out"
        assert run_cli("pca", source, out) == 1
        report = load_report(out)
        assert report["pass"] is False
        assert report["error"] is None
        assert report["residuals"]["orthonormality"] > 1e-10
        assert report["residuals"]["projection_sum_gap"] <= RELATION_TOL
        assert report["residuals"]["sscp_eigenpair"] <= RELATION_TOL


class TestRelationsCommand:
    def test_three_routes_agree(self, tmp_path):
        code = run_cli("relations", FIXTURES / "shear_2x2.csv", tmp_path)
        assert code == 0
        phi = parse_matrix_file(tmp_path / "relations_Phi.csv")
        lam = parse_matrix_file(tmp_path / "relations_Lambda.csv")
        u = parse_matrix_file(tmp_path / "relations_U.csv")
        lam_from_phi = parse_matrix_file(tmp_path / "relations_Lambda_from_Phi.csv")
        assert lo.max_abs(lam - lam_from_phi) <= 1e-12
        assert lo.max_abs(lam - phi @ u) <= 1e-12
        # symmetric_from_svd builds Φ once, as W·U† with W = Λ, so both
        # other routes are Φ itself.
        phi_bytes = (tmp_path / "relations_Phi.csv").read_bytes()
        for route in ("Lambda", "svd"):
            assert (tmp_path / f"relations_Phi_from_{route}.csv").read_bytes() == phi_bytes
        report = load_report(tmp_path)
        assert report["residuals"]["relation_lambda_phi_u"] <= 1e-12

    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    def test_each_distinct_array_is_formatted_once(self, tmp_path, monkeypatch, fmt):
        # Six files, four arrays: the three Φ files alias one array.
        formatted = []

        def counting(a, *args, **kwargs):
            formatted.append(a)
            return format_matrix(a, *args, **kwargs)

        source = tmp_path / f"v.{fmt}"
        write_matrix_file(source, parse_matrix_file(FIXTURES / "rand_4x3.csv"), fmt=fmt)
        out = tmp_path / "out"
        monkeypatch.setattr(lowdin.matrixio, "format_matrix", counting)
        assert run_cli("relations", source, out, "--format", fmt) == 0
        assert len(formatted) == 4
        files = {p.name: p.read_bytes() for p in out.glob(f"relations_*.{fmt}")}
        assert len(files) == 6
        phi = files[f"relations_Phi.{fmt}"]
        for route in ("Lambda", "svd"):
            assert files[f"relations_Phi_from_{route}.{fmt}"] == phi


class TestVerifyCommand:
    def test_populates_every_residual(self, tmp_path):
        code = run_cli("verify", FIXTURES / "rand_4x3.csv", tmp_path)
        assert code == 0
        report = load_report(tmp_path)
        assert set(report["residuals"]) == {
            "orthonormality",
            "polar_reconstruction",
            "svd_reconstruction",
            "relation_lambda_phi_u",
            "projection_sum_gap",
            "sscp_eigenpair",
        }
        assert report["pass"] is True
        assert report["eigenvalues"] and report["singular_values"]

    def test_rank_deficient_exits_3_with_diagnostics(self, tmp_path, capsys):
        code = run_cli("verify", FIXTURES / "rank_deficient_2x2.csv", tmp_path)
        assert code == 3
        report = load_report(tmp_path)
        assert report["pass"] is False
        assert report["error"]["type"] == "SingularMetric"
        assert report["error"]["eigenvalue_index"] == 1
        assert report["condition_estimate"] == "inf"
        assert "SingularMetric" in capsys.readouterr().err


class TestOneFactorization:
    """Every command is a view of one metric eigendecomposition."""

    SOLVES = {
        "symmetric": 1,
        "canonical": 1,
        "polar": 1,
        "svd": 1,
        "pca": 1,
        "verify": 1,
        "relations": 1,
    }

    def test_solver_runs_per_command(self, tmp_path, monkeypatch):
        import lowdin.decompositions
        import lowdin.linalg
        import lowdin.ortho
        import lowdin.pca

        original = lowdin.linalg.hermitian_eigen
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (lowdin.linalg, lowdin.ortho, lowdin.pca, lowdin.decompositions):
            monkeypatch.setattr(module, "hermitian_eigen", counting)
        counts = {}
        for command in self.SOLVES:
            before = len(calls)
            assert run_cli(command, FIXTURES / "rand_4x3.csv", tmp_path / command) == 0
            counts[command] = len(calls) - before
        assert counts == self.SOLVES

    def test_shared_factors_are_byte_identical(self, tmp_path):
        for command in ("symmetric", "canonical", "polar", "svd", "relations"):
            assert run_cli(command, FIXTURES / "rand_4x3.csv", tmp_path) == 0

        def data(name):
            return (tmp_path / f"{name}.csv").read_bytes()

        assert data("relations_Phi") == data("polar_Phi") == data("symmetric_Phi")
        assert data("relations_Lambda") == data("canonical_Lambda") == data("svd_W")

    def test_verify_residuals_equal_the_owning_commands(self, tmp_path):
        owners = {
            "orthonormality": "relations",
            "polar_reconstruction": "polar",
            "svd_reconstruction": "svd",
            "relation_lambda_phi_u": "relations",
            "projection_sum_gap": "pca",
            "sscp_eigenpair": "pca",
        }
        residuals = {}
        for command in {"verify", *owners.values()}:
            assert run_cli(command, FIXTURES / "rand_4x3.csv", tmp_path / command) == 0
            residuals[command] = load_report(tmp_path / command)["residuals"]
        assert set(residuals["verify"]) == set(owners)
        for name, owner in owners.items():
            assert residuals["verify"][name] == residuals[owner][name], name

    def test_every_command_reports_the_whole_spectrum(self, tmp_path):
        f = lo.factorize(parse_matrix_file(FIXTURES / "rand_4x3.csv"))
        for command in COMMANDS:
            assert run_cli(command, FIXTURES / "rand_4x3.csv", tmp_path / command) == 0
            report = load_report(tmp_path / command)
            assert report["eigenvalues"] == f.eigen.eigenvalues.tolist(), command
            assert report["singular_values"] == f.sigma.tolist(), command

    @pytest.mark.parametrize("seed", [*range(10), pytest.param(None, id="near-singular")])
    def test_every_command_reports_one_condition_estimate(self, tmp_path, seed):
        # condition_estimate is the factorization's (σ_T,1/σ_T,m)² for every
        # command.
        if seed is None:
            # σ_min/σ_max is about 3.5e-10, so cond(M) is about 8e18: the rank
            # rule admits V, and the estimate is finite, though d_min is
            # within a solve of M's rounding of 0.
            v = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9], [0.0, 0.0]])
        else:  # 6 x 4, real for even seeds, complex for odd ones
            v = random_matrix(np.random.default_rng(seed), 6, 4, seed % 2 == 1)
        source = tmp_path / "in.csv"
        write_matrix_file(source, v)
        estimates = {}
        for command in COMMANDS:
            run_cli(command, source, tmp_path / command)
            estimates[command] = load_report(tmp_path / command)["condition_estimate"]
        expected = lo.factorize(v).condition
        assert estimates == dict.fromkeys(COMMANDS, expected)
        assert expected == pytest.approx(np.linalg.cond(v) ** 2, rel=1e-6)


    @pytest.mark.parametrize("complex_", [False, True])
    def test_condition_estimate_is_finite_for_every_admitted_v(self, tmp_path, complex_):
        # Read on the scaled σ_T, cond(M) stays finite past 1/(m·ε), where
        # d_max/d_min of M's own solve would read inf, and it ignores d's
        # range: 1e-200·I, whose d underflows to 0, reads 1 and exits 0.
        v = load_script("accuracy").controlled_matrix(
            np.random.default_rng(0), (40, 12), 1e20, complex_
        )
        for name, matrix, expected in (("graded", v, 1e20), ("tiny", 1e-200 * np.eye(2), 1.0)):
            source = tmp_path / f"{name}.csv"
            write_matrix_file(source, matrix)
            assert run_cli("verify", source, tmp_path / name) == 0
            report = load_report(tmp_path / name)
            assert report["condition_estimate"] == pytest.approx(expected, rel=1e-6)


class TestErrorsAndExitCodes:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = run_cli("symmetric", tmp_path / "nope.csv", tmp_path)
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,oops\n")
        code = run_cli("symmetric", bad, tmp_path)
        assert code == 2
        assert "oops" in capsys.readouterr().err

    def test_output_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        target = tmp_path / "F"
        target.write_text("")
        assert run_cli("symmetric", FIXTURES / "identity_2x2.csv", target) == 2
        assert capsys.readouterr().err.startswith("error: FileExistsError: ")
        assert target.read_text() == ""

    def test_output_dir_under_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "F").write_text("")
        assert run_cli("symmetric", FIXTURES / "identity_2x2.csv", tmp_path / "F" / "sub") == 2
        assert capsys.readouterr().err.startswith("error: NotADirectoryError: ")

    def test_unwritable_factor_file_exits_2_and_reports_it(self, tmp_path, capsys):
        assert run_cli("symmetric", FIXTURES / "identity_2x2.csv", tmp_path) == 0
        assert load_report(tmp_path)["pass"] is True
        (tmp_path / "symmetric_Phi.csv").unlink()
        (tmp_path / "symmetric_Phi.csv").mkdir()
        assert run_cli("symmetric", FIXTURES / "identity_2x2.csv", tmp_path) == 2
        assert capsys.readouterr().err.startswith("error: IsADirectoryError: ")
        report = load_report(tmp_path)  # replaces the passing report of the first run
        assert report["pass"] is False
        assert report["error"]["type"] == "IsADirectoryError"

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate", "--input", "x.csv"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_precision_is_not_an_option(self, tmp_path, command):
        # Every factor file is the shortest round trip of its array; there
        # is no lossy output to ask for.
        with pytest.raises(SystemExit) as excinfo:
            run_cli(command, FIXTURES / "rand_4x3.csv", tmp_path, "--precision", "3")
        assert excinfo.value.code == 2
        assert not (tmp_path / "report.json").exists()

    def test_bad_format_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("svd", FIXTURES / "identity_2x2.csv", tmp_path, "--format", "xlsx")
        assert excinfo.value.code == 2
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "flag",
        [
            "--tol-orthonormality",
            "--tol-reconstruction",
            "--tol-eigen-convergence",
            "--rank-tol",
            # The sweep limit is a setting of hermitian_eigen alone.
            "--max-sweeps",
        ],
    )
    def test_no_flag_moves_a_fixed_bound(self, tmp_path, flag):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("symmetric", FIXTURES / "shear_2x2.csv", tmp_path, flag, "1e-30")
        assert excinfo.value.code == 2
        assert not (tmp_path / "report.json").exists()

    def test_a_subnormal_d_passes_every_check(self, tmp_path):
        # On 2^-524·[[1, 2], [3, -1], [5, 1]] d is subnormal, yet every
        # residual reads the scaled domain, so projection_sum_gap reads
        # what V itself does, 1.2e-15 (README, Report).
        source = tmp_path / "tiny.csv"
        write_matrix_file(source, np.ldexp([[1.0, 2.0], [3.0, -1.0], [5.0, 1.0]], -524))
        for command in ("verify", "pca", "polar"):
            assert run_cli(command, source, tmp_path / command) == 0
            report = load_report(tmp_path / command)
            assert report["pass"] is True
            assert report["error"] is None
            if command != "polar":
                assert report["residuals"]["projection_sum_gap"] <= 2e-15

    def test_no_convergence_is_reported_with_its_sweeps_and_norm(
        self, tmp_path, capsys, cap_sweeps
    ):
        # rand_4x3 needs 2 sweeps, so a solver capped at 1 ends in
        # NoConvergence: exit 3, the sweeps run and the norm they left in
        # the report, its error line on stderr, and no factor file.
        cap_sweeps(1)
        out = tmp_path / "out"
        assert run_cli("svd", FIXTURES / "rand_4x3.csv", out) == 3
        report = load_report(out)
        error = report["error"]
        assert error["type"] == "NoConvergence"
        assert error["sweeps"] == 1 and error["off_norm"] > 0.0
        assert report["pass"] is False and report["residuals"] == {}
        assert capsys.readouterr().err == f"error: NoConvergence: {error['message']}\n"
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]

    def test_a_residual_past_its_bound_fails_the_run_without_numeric_error(
        self, tmp_path, monkeypatch
    ):
        # A solve that returned Λ with two columns swapped: the columns are
        # still S's eigenvectors, but no longer paired with d, so
        # projection_sum_gap reads about 1 and the run exits 1, with its
        # report and every factor file written and no error.
        def swapped(v):
            f = lo.factorize(v)
            lam = OrthonormalBasis(f.lam.matrix[:, [1, 0]], f.lam.method, f.lam.source_eigen)
            return dataclasses.replace(f, lam=lam)

        monkeypatch.setattr("lowdin.cli.factorize", swapped)
        for command in ("verify", "pca"):
            out = tmp_path / command
            assert run_cli(command, FIXTURES / "shear_2x2.csv", out) == 1
            report = load_report(out)
            assert report["pass"] is False
            assert report["error"] is None
            assert report["residuals"]["projection_sum_gap"] > RELATION_TOL
            files = ["report.json"] + [f"{command}_{view}.csv" for view in COMMANDS[command].views]
            assert sorted(p.name for p in out.iterdir()) == sorted(files)


# name -> (file text or None for a missing file, command, exit code, error type)
HOSTILE = {
    "missing_file": (None, "symmetric", 2, "FileNotFoundError"),
    "bad_token": ("1,2\n3,x\n", "svd", 2, "ParseError"),
    "ragged_row": ("1,2\n3\n", "polar", 2, "RaggedRows"),
    "overflow_token": ("1e999,0\n0,1\n", "verify", 2, "ParseError"),
    # A form feed ends no line, so "2\f3" is one bad token, not a row break.
    "form_feed": ("1,2\f3,4\n5,6\n", "verify", 2, "ParseError"),
    "huge_identity": ("1e200,0\n0,1e200\n", "relations", 3, "OverflowError"),
    # Rank deficient by max(n, m)·ε, though its d also overflows.
    "graded_1e300": ("1e300,1\n1,1e-300\n", "polar", 3, "SingularMetric"),
    "rank_deficient": ("1,2\n2,4\n", "canonical", 3, "SingularMetric"),
    "wide_pca": ("1,2,3\n4,5,6\n", "pca", 3, "SingularMetric"),
    "wide_verify": ("1,2,3\n4,5,6\n", "verify", 3, "SingularMetric"),
}


@pytest.mark.parametrize("case", HOSTILE)
def test_every_failure_exits_cleanly_with_a_report(tmp_path, capsys, case):
    text, command, expected, error = HOSTILE[case]
    source = tmp_path / "in.csv"
    if text is not None:
        source.write_text(text)
    code = run_cli(command, source, tmp_path / "out")  # no exception escapes main
    assert code == expected
    report = load_report(tmp_path / "out")
    assert report["error"]["type"] == error
    assert report["pass"] is False
    parsed = expected == 3
    assert (report["rows"] is not None, report["cols"] is not None) == (parsed, parsed)
    assert error in capsys.readouterr().err


TOKEN_SOUP = st.lists(
    st.sampled_from(list("0123456789+-.eEi,\t\n#") + ["nan", "inf"]), max_size=60
).map("".join)


@settings(max_examples=150, deadline=None)
@given(
    text=TOKEN_SOUP, command=st.sampled_from(sorted(COMMANDS)), fmt=st.sampled_from(["csv", "tsv"])
)
def test_token_soup_never_escapes_main(text, command, fmt):
    # A fresh directory per example: hypothesis cannot reuse tmp_path.
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "in.txt"
        source.write_text(text, encoding="utf-8")
        code = main([command, "--input", str(source), "--output-dir", tmp, "--format", fmt])
        report = load_report(tmp)
    assert code in (0, 1, 2, 3)
    assert report["pass"] is (code == 0)
    assert (report["error"] is None) == (code in (0, 1))


class TestOutputOptions:
    def test_tsv_output(self, tmp_path):
        code = run_cli(
            "symmetric",
            FIXTURES / "identity_2x2.csv",
            tmp_path,
            "--format",
            "csv",
        )
        assert code == 0

    def test_tsv_input_and_output(self, tmp_path):
        source = tmp_path / "in.tsv"
        source.write_text("2\t0\n0\t3\n")
        out = tmp_path / "out"
        code = run_cli("svd", source, out, "--format", "tsv")
        assert code == 0
        assert (out / "svd_sigma.tsv").read_text() == "3.0\n2.0\n"

    def test_a_leading_byte_order_mark_changes_no_output(self, tmp_path):
        body = (FIXTURES / "rand_4x3.csv").read_bytes()
        (tmp_path / "bom.csv").write_bytes("\ufeff".encode() + body)
        assert run_cli("relations", FIXTURES / "rand_4x3.csv", tmp_path / "plain") == 0
        assert run_cli("relations", tmp_path / "bom.csv", tmp_path / "bom") == 0
        for path in (tmp_path / "plain").glob("relations_*.csv"):
            assert (tmp_path / "bom" / path.name).read_bytes() == path.read_bytes()

    def test_default_output_dir_is_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["symmetric", "--input", str(FIXTURES / "identity_2x2.csv")])
        assert code == 0
        assert (tmp_path / "symmetric_Phi.csv").exists()
        assert (tmp_path / "report.json").exists()


def _round_trip_inputs():
    inputs = {path.stem: path.read_text() for path in sorted(FIXTURES.glob("*.csv"))}
    v = random_matrix(np.random.default_rng(25), 7, 4, complex_=True)
    inputs["complex_7x4"] = format_matrix(v)
    return inputs


class TestFactorFilesRoundTrip:
    """Each factor file parses back to exactly the array it was written from."""

    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    @pytest.mark.parametrize("name", sorted(_round_trip_inputs()))
    def test_every_factor_file_parses_to_its_array(self, tmp_path, monkeypatch, name, fmt):
        source = tmp_path / f"{name}.{fmt}"
        source.write_text(_round_trip_inputs()[name].replace(",", delimiter_for(fmt)))
        formatted = {}  # text -> the array it was formatted from

        def recording(a, *args, **kwargs):
            text = format_matrix(a, *args, **kwargs)
            formatted[text] = a
            return text

        monkeypatch.setattr(lowdin.matrixio, "format_matrix", recording)
        for command in COMMANDS:
            out = tmp_path / command
            code = run_cli(command, source, out, "--format", fmt)
            files = sorted(out.glob(f"{command}_*.{fmt}"))
            assert len(files) == (len(COMMANDS[command].views) if code in (0, 1) else 0)
            for path in files:
                a = np.asarray(formatted[path.read_text()])
                parsed = parse_matrix_file(path, fmt)
                assert np.array_equal(parsed, a.reshape(len(a), -1)), (command, path.name)


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name, command in COMMANDS.items():
            assert f"  {name:<11} {command.help}" in out

    def test_help_gives_the_rank_rule_and_the_format_default(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # the wrapping follows the terminal
        for line in (
            "when a singular value of V is at most max(n, m)·ε·σ_max, the rule of "
            "numpy.linalg.matrix_rank.",
            "--format {csv,tsv} input and output files (default: csv)",
        ):
            assert line in text

    def test_missing_command_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--input", str(FIXTURES / "identity_2x2.csv"), "--output-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert not (tmp_path / "report.json").exists()

    def test_options_of_one_run_do_not_leak_into_the_next(self, tmp_path):
        source = tmp_path / "v.tsv"
        source.write_text((FIXTURES / "rand_4x3.csv").read_text().replace(",", "\t"))

        def run(name, path, *extra):
            assert run_cli("relations", path, tmp_path / name, *extra) == 0
            data = load_report(tmp_path / name)
            del data["elapsed_ms"]
            return data, sorted(p.suffix for p in (tmp_path / name).glob("relations_*"))

        before = run("before", FIXTURES / "rand_4x3.csv")
        assert run("tsv", source, "--format", "tsv")[1] == [".tsv"] * 6
        after = run("after", FIXTURES / "rand_4x3.csv")
        assert after == before
        assert after[0]["pass"] is True and after[1] == [".csv"] * 6


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for out in (first, second):
            assert run_cli("relations", FIXTURES / "rand_4x3.csv", out) == 0
        names = sorted(p.name for p in first.glob("*.csv"))
        assert names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()
        first_report = json.loads((first / "report.json").read_text())
        second_report = json.loads((second / "report.json").read_text())
        assert first_report["residuals"] == second_report["residuals"]


def test_module_entry_point_runs(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "lowdin.cli",
            "svd",
            "--input",
            str(FIXTURES / "diag_2_3.csv"),
            "--output-dir",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (out / "svd_sigma.csv").read_text() == "3.0\n2.0\n"


class TestProgramEntry:
    """``python -m lowdin.cli`` runs ``console``, which ends the process with
    ``os._exit``: the process must exit, write and print as ``main`` does.

    The children run with buffered output, as they would without
    PYTHONUNBUFFERED, so that what ``console`` fails to flush is lost.
    """

    @staticmethod
    def child(*args):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)

    def process(self, *argv):
        return self.child("-m", "lowdin.cli", *argv)

    @staticmethod
    def outputs(out):
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "report.json"}
        report = load_report(out)
        report["elapsed_ms"] = 0
        return files, report

    @pytest.mark.parametrize(
        "fixture, status",
        [("rand_4x3.csv", 0), ("missing.csv", 2), ("rank_deficient_2x2.csv", 3)],
    )
    def test_process_matches_main(self, tmp_path, capsys, fixture, status):
        def argv(out):
            return ["relations", "--input", str(FIXTURES / fixture), "--output-dir", str(out)]

        assert main(argv(tmp_path / "main")) == status
        in_process = capsys.readouterr()
        proc = self.process(*argv(tmp_path / "process"))
        assert proc.returncode == status
        assert (proc.stdout, proc.stderr) == (in_process.out, in_process.err)
        files, report = self.outputs(tmp_path / "process")
        assert (files, report) == self.outputs(tmp_path / "main")
        assert bool(files) == (status == 0)
        if status == 0:
            assert proc.stderr == ""
        else:
            error = report["error"]
            assert proc.stderr == f"error: {error['type']}: {error['message']}\n"

    @pytest.mark.parametrize("argv, status", [(["--help"], 0), (["nonsense", "--input", "x"], 2)])
    def test_argparse_exit_matches_main(self, monkeypatch, capsys, argv, status):
        monkeypatch.setenv("COLUMNS", "80")  # the help's width, in both
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == status
        in_process = capsys.readouterr()
        proc = self.process(*argv)
        assert proc.returncode == status
        assert (proc.stdout, proc.stderr) == (in_process.out, in_process.err)
        assert (proc.stdout if status == 0 else proc.stderr).startswith("usage: lowdin COMMAND")

    @pytest.mark.parametrize(
        "body, status, stdout, stderr_end",
        [
            # Unterminated lines sit in the buffers until console flushes them,
            # and the atexit handler does not run.
            ("print('out', end=''); print('err', end='', file=sys.stderr); return 3", 3, "out", "err"),
            # An escaping exception takes the normal exit: traceback, atexit, 1.
            ("raise RuntimeError('boom')", 1, "atexit ran\n", "RuntimeError: boom\n"),
            # Started with stdout closed (``lowdin ... >&-``), sys.stdout is None.
            ("sys.stdout = None; return 0", 0, "", ""),
        ],
        ids=["return", "raise", "no-stdout"],
    )
    def test_console_flushes_then_skips_teardown(self, body, status, stdout, stderr_end):
        code = (
            "import atexit, sys\n"
            "import lowdin.cli\n"
            "atexit.register(print, 'atexit ran')\n"
            f"def main():\n    {body}\n"
            "lowdin.cli.main = main\n"
            "lowdin.cli.console()\n"
        )
        proc = self.child("-c", code)
        assert proc.returncode == status
        assert proc.stdout == stdout
        assert proc.stderr.endswith(stderr_end)
