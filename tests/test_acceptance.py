"""Acceptance suite: every contract at its stated tolerance.

Each criterion is one test over the shared random ensemble (200 real and
200 complex full-rank matrices, n in [1, 8], m <= n, entries uniform in
[-1, 1], redrawn until cond(V†V) <= 1e6) and prints one line of the form

    [acceptance] criterion N (<name>): PASS|FAIL

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import lowdin as lo
from lowdin.cli import RELATION_TOL
from lowdin.cli import main as cli_main

from conftest import random_full_rank, random_unitary
from oracles import (
    gram_metric,
    hermitian_2x2_eigenvalues,
    hermitian_3x3_eigenvalues,
    principal_components,
)

FIXTURES = Path(__file__).parent / "fixtures"
ENSEMBLE_SEED = 20260808


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


@pytest.fixture(scope="module")
def ensemble():
    rng = np.random.default_rng(ENSEMBLE_SEED)
    matrices = []
    for complex_ in (False, True):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, n + 1))
            matrices.append(
                random_full_rank(rng, n, m, complex_=complex_, metric_cond_limit=1e6)
            )
    return matrices


@pytest.fixture(scope="module")
def factored(ensemble):
    """Shared decomposition of every ensemble member."""
    out = []
    for v in ensemble:
        phi = lo.symmetric_orthogonalize(v)
        lam = lo.canonical_orthogonalize(v)
        polar = lo.polar_decompose(v)
        svd = lo.reduced_svd(v)
        out.append((v, phi, lam, polar, svd))
    return out


def test_criterion_1_orthonormality_suite(ensemble):
    with criterion(1, "orthonormality suite"):
        started = time.perf_counter()
        for v in ensemble:
            phi = lo.symmetric_orthogonalize(v).matrix
            lam = lo.canonical_orthogonalize(v).matrix
            m = phi.shape[1]
            assert lo.max_abs(phi.conj().T @ phi - np.eye(m)) <= 1e-8
            assert lo.max_abs(lam.conj().T @ lam - np.eye(m)) <= 1e-8
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"orthonormality suite took {elapsed:.2f}s"


def test_criterion_2_polar_identity(factored):
    with criterion(2, "polar identity"):
        for v, _, _, polar, _ in factored:
            residual = lo.max_abs(lo.reconstruct_polar(polar) - v)
            assert residual <= 1e-8 * (1.0 + lo.max_abs(v))


def test_criterion_3_reduced_svd_identity(factored):
    with criterion(3, "reduced SVD identity"):
        for v, _, _, _, svd in factored:
            residual = lo.max_abs(lo.reconstruct_svd(svd) - v)
            assert residual <= 1e-8 * (1.0 + lo.max_abs(v))
            sigma = svd.singular_values
            assert np.all(np.diff(sigma) <= 0.0)
            d = lo.hermitian_eigen(gram_metric(v)).eigenvalues
            assert np.max(np.abs(sigma**2 - d) / d) <= 1e-8


def test_criterion_4_analytic_relations(factored):
    with criterion(4, "analytic relations"):
        for _, phi, lam, _, _ in factored:
            u = phi.source_eigen.eigenvectors
            assert lo.max_abs(lam.matrix - phi.matrix @ u) <= 1e-12
            assert lo.max_abs(phi.matrix - lam.matrix @ u.conj().T) <= 1e-12


def _engineered_degenerate_inputs():
    rng = np.random.default_rng(917)
    specs = [
        (3, 3, [2.0, 2.0, 1.0], False),
        (4, 4, [5.0, 5.0, 2.0, 2.0], True),
        (5, 3, [2.0, 2.0, 1.0], False),
        (6, 4, [3.0, 3.0, 3.0, 3.0], True),
        (5, 5, [1.0, 1.0, 1.0, 1.0, 1.0], False),
    ]
    for n, m, singulars, complex_ in specs:
        q1 = random_unitary(rng, n, complex_=complex_)[:, :m]
        q2 = random_unitary(rng, m, complex_=complex_)
        yield q1 @ np.diag(singulars) @ q2.conj().T


def test_criterion_5_symmetric_from_svd_route(factored):
    with criterion(5, "symmetric basis from the SVD route"):
        for v, phi, _, _, svd in factored:
            d = phi.source_eigen.eigenvalues
            gaps = np.abs(np.diff(d)) / d[0] if d.size > 1 else np.array([1.0])
            if d.size > 1 and np.min(gaps) < 1e-9:
                continue  # degenerate draws are covered below
            via_svd = lo.symmetric_from_svd(svd).matrix
            assert lo.max_abs(phi.matrix - via_svd) <= 1e-8
        for v in _engineered_degenerate_inputs():
            direct = lo.symmetric_orthogonalize(v).matrix
            via_svd = lo.symmetric_from_svd(lo.reduced_svd(v)).matrix
            projector_gap = lo.max_abs(
                direct @ direct.conj().T - via_svd @ via_svd.conj().T
            )
            assert projector_gap <= 1e-8


def test_criterion_6_pca_equivalences(factored):
    with criterion(6, "PCA equivalences"):
        # (a) the nonzero spectra of V V† and V†V agree: d against the
        # scores of the oracle's own solve of S
        for v, _, lam, _, _ in factored:
            d = lam.source_eigen.eigenvalues
            scores = principal_components(v).component_scores
            assert np.max(np.abs(scores - d) / d) <= 1e-8
        # (c) projection-square sums onto the canonical basis recover d
        for v, _, lam, _, _ in factored:
            d = lam.source_eigen.eigenvalues
            sums = lo.projection_square_sums(v, lam)
            assert np.max(np.abs(sums - d) / d) <= 1e-8
        # (d) Λ's columns are eigenvectors of S, to the eigenpair residual
        for v, _, _, _, _ in factored:
            residual = lo.factorize(v).residuals("sscp_eigenpair")["sscp_eigenpair"]
            assert residual <= RELATION_TOL
        # (b) the oracle's principal components match the canonical basis
        # for square nonsingular input with well-separated SSCP spectrum
        rng = np.random.default_rng(ENSEMBLE_SEED + 1)
        checked = 0
        while checked < 50:
            n = int(rng.integers(2, 9))
            v = random_full_rank(rng, n, n, complex_=bool(checked % 2), metric_cond_limit=1e6)
            scores = np.linalg.eigvalsh(v @ v.conj().T)[::-1]
            if np.min(np.abs(np.diff(scores))) < 1e-6 * scores[0]:
                continue
            result = principal_components(v)
            lam = lo.canonical_orthogonalize(v)
            aligned = lo.apply_phase_convention(lam.matrix)
            assert lo.max_abs(result.components - aligned) <= 1e-6
            checked += 1


def test_criterion_7_eigensolver_oracle():
    with criterion(7, "eigensolver vs characteristic-polynomial oracle"):
        values = range(-3, 4)
        for a, b, cre, cim in itertools.product(values, values, values, values):
            c = complex(cre, cim)
            matrix = np.array([[a, c], [c.conjugate(), b]], dtype=complex)
            expected = hermitian_2x2_eigenvalues(float(a), float(b), c)
            eigen = lo.hermitian_eigen(matrix)
            assert np.max(np.abs(eigen.eigenvalues - np.array(expected))) <= 1e-12
            residual = matrix @ eigen.eigenvectors - eigen.eigenvectors * eigen.eigenvalues
            assert float(np.max(np.linalg.norm(residual, axis=0))) <= 1e-10
        rng = np.random.default_rng(ENSEMBLE_SEED + 2)
        for _ in range(100):
            diag = rng.integers(-3, 4, 3)
            d, e, f = (complex(re, im) for re, im in rng.integers(-3, 4, (3, 2)))
            matrix = np.array(
                [
                    [diag[0], d, e],
                    [d.conjugate(), diag[1], f],
                    [e.conjugate(), f.conjugate(), diag[2]],
                ],
                dtype=complex,
            )
            expected = hermitian_3x3_eigenvalues(matrix)
            eigen = lo.hermitian_eigen(matrix)
            assert np.max(np.abs(eigen.eigenvalues - np.array(expected))) <= 1e-12
            residual = matrix @ eigen.eigenvectors - eigen.eigenvectors * eigen.eigenvalues
            assert float(np.max(np.linalg.norm(residual, axis=0))) <= 1e-10


def test_criterion_8_idempotence_and_covariance():
    with criterion(8, "idempotence and unitary covariance"):
        rng = np.random.default_rng(ENSEMBLE_SEED + 3)
        for index in range(50):
            complex_ = bool(index % 2)
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, n + 1))
            v = random_full_rank(rng, n, m, complex_=complex_, metric_cond_limit=1e3)
            phi = lo.symmetric_orthogonalize(v).matrix
            again = lo.symmetric_orthogonalize(phi).matrix
            assert lo.max_abs(again - phi) <= 1e-10
            q = random_unitary(rng, n, complex_=complex_)
            left = lo.symmetric_orthogonalize(q @ v).matrix
            assert lo.max_abs(left - q @ phi) <= 1e-9


GOLDEN_RUNS = [
    ("symmetric", "identity_2x2.csv", 0),
    ("svd", "diag_2_3.csv", 0),
    ("relations", "shear_2x2.csv", 0),
    ("polar", "rand_4x3.csv", 0),
    ("verify", "rank_deficient_2x2.csv", 3),
]


def test_criterion_9_cli_golden_corpus(tmp_path):
    with criterion(9, "CLI golden corpus"):
        for command, fixture, expected_code in GOLDEN_RUNS:
            outputs = []
            for attempt in ("first", "second"):
                out_dir = tmp_path / f"{command}_{attempt}"
                code = cli_main(
                    [
                        command,
                        "--input",
                        str(FIXTURES / fixture),
                        "--output-dir",
                        str(out_dir),
                    ]
                )
                assert code == expected_code, (command, fixture, code)
                outputs.append(out_dir)
            first, second = outputs
            first_files = sorted(p.name for p in first.glob("*.csv"))
            second_files = sorted(p.name for p in second.glob("*.csv"))
            assert first_files == second_files
            for name in first_files:
                assert (first / name).read_bytes() == (second / name).read_bytes()
            report_a = json.loads((first / "report.json").read_text())
            report_b = json.loads((second / "report.json").read_text())
            assert report_a["residuals"] == report_b["residuals"]
            assert report_a["pass"] == report_b["pass"]
