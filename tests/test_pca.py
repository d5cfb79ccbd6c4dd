"""SSCP principal components and their canonical-basis equivalences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

import lowdin as lo
from lowdin.decompositions import RELATION_TOL
from lowdin.errors import DimensionMismatch, SingularMetric

from conftest import random_full_rank, random_matrix, random_unitary
from oracles import gram_metric, hermitian_2x2_eigenvalues, principal_components
from test_ortho import conditioned_matrices

GOLDEN_HI = (3.0 + math.sqrt(5.0)) / 2.0
GOLDEN_LO = (3.0 - math.sqrt(5.0)) / 2.0
SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])


def pca(v):
    """``pca``'s components and scores, views of one factorization: Λ phase-fixed and d."""
    f = lo.factorize(v)
    return f.components, f.eigen.eigenvalues


class TestSscpMatrix:
    """The spectrum of S = V·V†, checked against S written out by hand."""

    def test_identity(self):
        _, scores = pca(np.eye(2))
        assert np.array_equal(scores, [1.0, 1.0])

    def test_hand_computed(self):
        # S = [[5, 11], [11, 25]]
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        _, scores = pca(v)
        assert scores == pytest.approx(hermitian_2x2_eigenvalues(5.0, 25.0, 11.0), rel=1e-14)

    def test_single_column(self):
        # S = [[1, 1], [1, 1]], spectrum (2, 0)
        components, scores = pca(np.array([[1.0], [1.0]]))
        assert scores == pytest.approx([2.0], rel=1e-15)
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(components, [[s], [s]], atol=1e-15)

    def test_diagonal_holds_sums_of_squares(self, rng):
        # A wide V has no full-rank metric, so its S comes from the oracle.
        v = rng.uniform(-1.0, 1.0, (4, 6))
        result = principal_components(v)
        u = result.components
        s = (u * result.component_scores) @ u.conj().T
        for i in range(4):
            assert s[i, i].real == pytest.approx(np.sum(v[i, :] ** 2))
        for i in range(4):
            for j in range(4):
                assert s[i, j].real == pytest.approx(np.sum(v[i, :] * v[j, :]))


SSCP_SHAPES = [(64, 16), (40, 4), (7, 7), (4, 9), (16, 40)]
TALL_SSCP_SHAPES = [shape for shape in SSCP_SHAPES if shape[0] >= shape[1]]


class TestPrincipalComponents:
    """``Factorization.components`` and d: Λ's columns and the metric spectrum."""

    def test_diagonal_case_swaps_to_descending(self):
        components, scores = pca(np.diag([2.0, 3.0]))
        assert np.allclose(components, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)
        assert scores == pytest.approx([9.0, 4.0])

    def test_isotropic_case_spans_the_plane(self):
        components, scores = pca(np.eye(2))
        assert scores == pytest.approx([1.0, 1.0])
        projector = components @ components.conj().T
        assert lo.max_abs(projector - np.eye(2)) <= 1e-12

    def test_scores_descending_and_nonnegative(self, rng):
        _, scores = pca(rng.uniform(-1.0, 1.0, (5, 3)))
        assert np.all(np.diff(scores) <= 0.0)
        assert scores[-1] >= 0.0  # every eigenvalue of an admitted V†V is positive

    def test_retains_min_dimension_components(self, rng):
        components, scores = pca(rng.uniform(-1.0, 1.0, (6, 3)))
        assert components.shape == (6, 3)
        assert scores.shape == (3,)

    def test_components_are_the_canonical_basis(self, rng):
        f = lo.factorize(random_full_rank(rng, 6, 3, complex_=True))
        assert np.array_equal(f.components, lo.apply_phase_convention(f.lam.matrix))
        assert f.components is f.components

    def test_square_nonsingular_matches_canonical_basis(self, rng):
        # The oracle's own solve of S against Λ, wherever S's spectrum is
        # separated enough to fix each component.
        for _ in range(10):
            v = random_full_rank(rng, 4, 4)
            lam = lo.canonical_orthogonalize(v)
            d = lam.source_eigen.eigenvalues
            if np.min(np.abs(np.diff(d))) < 1e-3 * d[0]:
                continue
            result = principal_components(v)
            aligned = lo.apply_phase_convention(lam.matrix)
            assert lo.max_abs(result.components - aligned) <= 1e-8
            assert np.max(np.abs(result.component_scores - d) / d) <= 1e-9

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n,m", TALL_SSCP_SHAPES)
    def test_components_and_scores_reconstruct_sscp(self, rng, n, m, complex_):
        # S has rank m, so Λ and d alone rebuild all of S.
        v = random_full_rank(rng, n, m, complex_=complex_)
        u, scores = pca(v)
        s = v @ v.conj().T
        rebuilt = (u * scores) @ u.conj().T
        assert lo.max_abs(rebuilt - s) <= 1e-12 * lo.max_abs(s)

    def test_overflow_message_quotes_the_operand_it_measures(self):
        # Only d can overflow, here 1e400, and the message quotes max|V|.
        with pytest.raises(OverflowError) as excinfo:
            lo.factorize(1e200 * np.eye(2))
        assert str(excinfo.value) == "V†V overflows float64 (max|V| = 1.000e+200)"

    @pytest.mark.parametrize("v", [1e154 * np.eye(2), np.array([[9e153, 9e153], [1e150, -1e150]])])
    def test_huge_input_whose_eigenvalues_fit(self, v):
        # S's eigenvalues fit in float64, near its top; V is scaled by 2^-e
        # before any product is formed.
        reference = np.linalg.svd(v, compute_uv=False) ** 2
        _, scores = pca(v)
        assert scores == pytest.approx(reference, rel=1e-14)


class TestReducedSscpSolve:
    """The oracle diagonalizes S = V·V† through V = Q·R, on a min(n, m)-square matrix."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n,m", SSCP_SHAPES)
    def test_nonzero_spectrum_matches_lapack(self, rng, n, m, complex_):
        v = random_full_rank(rng, n, m, complex_=complex_)
        k = min(n, m)
        d = principal_components(v).component_scores
        reference = np.linalg.eigvalsh(v @ v.conj().T)[::-1][:k]
        assert np.max(np.abs(d - reference) / reference) <= 1e-12

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n,m", SSCP_SHAPES)
    def test_components_and_scores_reconstruct_sscp(self, rng, n, m, complex_):
        # S has rank k = min(n, m), so its k components and scores alone
        # rebuild all of S: nothing is lost by not computing its null space.
        v = random_full_rank(rng, n, m, complex_=complex_)
        result = principal_components(v)
        u = result.components
        s = v @ v.conj().T
        rebuilt = (u * result.component_scores) @ u.conj().T
        assert lo.max_abs(rebuilt - s) <= 1e-12 * lo.max_abs(s)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n,m,rank", [(10, 5, 2), (6, 6, 3), (3, 8, 1)])
    def test_rank_deficient_spectrum_stays_descending(self, rng, n, m, rank, complex_):
        v = random_matrix(rng, n, rank, complex_) @ random_matrix(rng, rank, m, complex_)
        d = principal_components(v).component_scores
        reference = np.linalg.eigvalsh(v @ v.conj().T)[::-1]
        assert np.all(np.diff(d) <= 0.0)
        assert np.max(np.abs(d[:rank] - reference[:rank]) / reference[:rank]) <= 1e-12
        assert np.max(np.abs(d[rank:])) <= 1e-13 * d[0]

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n,m", SSCP_SHAPES)
    def test_eigenvectors_are_unitary(self, rng, n, m, complex_):
        u = principal_components(random_matrix(rng, n, m, complex_)).components
        k = min(n, m)
        assert u.shape == (n, k)
        assert lo.max_abs(u.conj().T @ u - np.eye(k)) <= 1e-12 * n


def sscp_eigenpair(v):
    return lo.factorize(v).residuals("sscp_eigenpair")["sscp_eigenpair"]


class TestSscpEigenpair:
    """``sscp_eigenpair``: how far Λ's columns are from eigenvectors of S = V·V†."""

    def test_identity(self):
        assert sscp_eigenpair(np.eye(2)) == 0.0

    def test_single_column(self):
        # V†V = [2]; VV† = [[1,1],[1,1]] with spectrum (2, 0)
        v = np.array([[1.0], [1.0]])
        assert lo.factorize(v).eigen.eigenvalues == pytest.approx([2.0])
        assert sscp_eigenpair(v) <= 1e-15

    def test_shear(self):
        # trace 3 and determinant 1 for both products
        assert lo.factorize(SHEAR).eigen.eigenvalues == pytest.approx(
            [GOLDEN_HI, GOLDEN_LO], abs=1e-13
        )
        assert sscp_eigenpair(SHEAR) <= 1e-15

    def test_full_rank_leftovers_are_counted(self, rng):
        v = random_full_rank(rng, 7, 3)
        assert sscp_eigenpair(v) <= RELATION_TOL

    @pytest.mark.parametrize("k", [-530, -500, -300, -1, 1, 300, 500])
    def test_is_bitwise_scale_invariant(self, rng, k):
        # F = 2^-e·V and Λ do not see the power of two, even where d is
        # subnormal (k = -530).
        v = random_full_rank(rng, 5, 3, complex_=True)
        assert sscp_eigenpair(np.ldexp(1.0, k) * v) == sscp_eigenpair(v)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("cond", [1.0, 1e12, 1e20, 1e28])
    def test_at_rounding_at_any_admitted_condition(self, cond, complex_):
        # Backward stable QRs and Jacobi: the residual stays below m·ε.
        rng = np.random.default_rng(int(math.log10(cond)))
        left, right = random_unitary(rng, 40, complex_), random_unitary(rng, 12, complex_)
        v = (left[:, :12] * np.geomspace(1.0, cond**-0.5, 12)) @ right.conj().T
        assert sscp_eigenpair(v) <= 12 * np.finfo(float).eps


@pytest.mark.parametrize("complex_", [False, True])
def test_scores_are_the_checked_sigma_squared(complex_):
    # pca writes d as its scores, while projection_sum_gap reads σ; the
    # metric solve derives both from one d_T, as 2^2e·d_T and 2^e·√d_T,
    # so wherever d_j is a normal number it is σ_j² to the rounding of
    # one square root and one square.
    rng = np.random.default_rng(7 + complex_)
    eps, normal = np.finfo(float).eps, np.finfo(float).tiny
    checked = 0
    for _ in range(150):
        n = int(rng.integers(1, 9))
        v = random_full_rank(rng, n, int(rng.integers(1, n + 1)), complex_=complex_)
        k = int(rng.integers(-1000, 1001))
        try:
            f = lo.factorize(np.ldexp(1.0, k) * v)
        except (OverflowError, SingularMetric):
            continue
        d = f.eigen.eigenvalues
        kept = d >= normal
        assert np.all(np.abs(d - f.sigma**2)[kept] <= 2 * eps * d[kept]), k
        checked += int(np.count_nonzero(kept))
    assert checked >= 150


class TestProjectionSquareSums:
    def test_identity(self):
        basis = lo.symmetric_orthogonalize(np.eye(2))
        assert np.allclose(lo.projection_square_sums(np.eye(2), basis), [1.0, 1.0], atol=0)

    def test_diagonal_on_canonical_basis(self):
        v = np.diag([2.0, 3.0])
        lam = lo.canonical_orthogonalize(v)
        sums = lo.projection_square_sums(v, lam)
        assert sums == pytest.approx([9.0, 4.0], abs=1e-13)

    def test_shear_on_canonical_basis(self):
        lam = lo.canonical_orthogonalize(SHEAR)
        sums = lo.projection_square_sums(SHEAR, lam)
        assert sums == pytest.approx([GOLDEN_HI, GOLDEN_LO], rel=1e-12)

    def test_accepts_plain_arrays(self):
        sums = lo.projection_square_sums(np.eye(2), np.eye(2))
        assert np.array_equal(sums, [1.0, 1.0])

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lo.projection_square_sums(np.eye(3), np.eye(2))


@settings(max_examples=30, deadline=None)
@given(v=conditioned_matrices(complex_=True))
def test_projection_sums_equal_metric_eigenvalues(v):
    lam = lo.canonical_orthogonalize(v)
    d = lam.source_eigen.eigenvalues
    sums = lo.projection_square_sums(v, lam)
    assert np.max(np.abs(sums - d) / d) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(v=conditioned_matrices())
def test_trace_is_conserved_across_democratic_bases(v):
    phi = lo.symmetric_orthogonalize(v)
    lam = lo.canonical_orthogonalize(v)
    trace = float(np.trace(gram_metric(v)).real)
    total_phi = float(np.sum(lo.projection_square_sums(v, phi)))
    total_lam = float(np.sum(lo.projection_square_sums(v, lam)))
    assert total_phi == pytest.approx(trace, rel=1e-10)
    assert total_lam == pytest.approx(trace, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(v=conditioned_matrices(complex_=True))
def test_nonzero_spectra_agree(v):
    # d against S's spectrum from the oracle's own solve
    d = lo.factorize(v).eigen.eigenvalues
    scores = principal_components(v).component_scores
    assert np.max(np.abs(scores - d) / d) <= 1e-9

