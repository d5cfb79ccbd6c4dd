"""SSCP principal components and their canonical-basis equivalences."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings

import lowdin as lo
from lowdin.errors import DimensionMismatch

from conftest import random_full_rank, random_matrix
from oracles import gram_metric, hermitian_2x2_eigenvalues
from test_ortho import conditioned_matrices

GOLDEN_HI = (3.0 + math.sqrt(5.0)) / 2.0
GOLDEN_LO = (3.0 - math.sqrt(5.0)) / 2.0
SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])


class TestSscpMatrix:
    """The spectrum of S = V·V†, checked against S written out by hand."""

    def test_identity(self):
        scores = lo.principal_components(np.eye(2)).component_scores
        assert np.array_equal(scores, [1.0, 1.0])

    def test_hand_computed(self):
        # S = [[5, 11], [11, 25]]
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        scores = lo.principal_components(v).component_scores
        assert scores == pytest.approx(hermitian_2x2_eigenvalues(5.0, 25.0, 11.0), rel=1e-14)

    def test_single_column(self):
        # S = [[1, 1], [1, 1]], spectrum (2, 0)
        result = lo.principal_components(np.array([[1.0], [1.0]]))
        assert result.component_scores == pytest.approx([2.0], rel=1e-15)
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(result.components, [[s], [s]], atol=1e-15)

    def test_diagonal_holds_sums_of_squares(self, rng):
        v = rng.uniform(-1.0, 1.0, (4, 6))
        result = lo.principal_components(v)
        u = result.components
        s = (u * result.component_scores) @ u.conj().T
        for i in range(4):
            assert s[i, i].real == pytest.approx(np.sum(v[i, :] ** 2))
        for i in range(4):
            for j in range(4):
                assert s[i, j].real == pytest.approx(np.sum(v[i, :] * v[j, :]))


class TestPrincipalComponents:
    def test_diagonal_case_swaps_to_descending(self):
        result = lo.principal_components(np.diag([2.0, 3.0]))
        assert np.allclose(result.components, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)
        assert result.component_scores == pytest.approx([9.0, 4.0])

    def test_isotropic_case_spans_the_plane(self):
        result = lo.principal_components(np.eye(2))
        assert result.component_scores == pytest.approx([1.0, 1.0])
        projector = result.components @ result.components.conj().T
        assert lo.max_abs(projector - np.eye(2)) <= 1e-12

    def test_scores_descending_and_nonnegative(self, rng):
        v = rng.uniform(-1.0, 1.0, (5, 3))
        result = lo.principal_components(v)
        scores = result.component_scores
        assert np.all(np.diff(scores) <= 0.0)
        assert scores[-1] >= -lo.DEFAULT_TOLERANCES.rank_tol * scores[0]

    def test_retains_min_dimension_components(self, rng):
        v = rng.uniform(-1.0, 1.0, (6, 3))
        result = lo.principal_components(v)
        assert result.components.shape == (6, 3)
        assert result.component_scores.shape == (3,)

    def test_square_nonsingular_matches_canonical_basis(self, rng):
        for _ in range(10):
            v = random_full_rank(rng, 4, 4)
            lam = lo.canonical_orthogonalize(v)
            d = lam.source_eigen.eigenvalues
            if np.min(np.abs(np.diff(d))) < 1e-3 * d[0]:
                continue
            result = lo.principal_components(v)
            aligned = lo.apply_phase_convention(lam.matrix)
            assert lo.max_abs(result.components - aligned) <= 1e-8
            assert np.max(np.abs(result.component_scores - d) / d) <= 1e-9


SSCP_SHAPES = [(64, 16), (40, 4), (7, 7), (4, 9), (16, 40)]


class TestReducedSscpSolve:
    """S = V·V† is diagonalized through V = Q·R, on a min(n, m)-square matrix."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n,m", SSCP_SHAPES)
    def test_nonzero_spectrum_matches_lapack(self, rng, n, m, complex_):
        v = random_full_rank(rng, n, m, complex_=complex_)
        k = min(n, m)
        d = lo.principal_components(v).component_scores
        reference = np.linalg.eigvalsh(v @ v.conj().T)[::-1][:k]
        assert np.max(np.abs(d - reference) / reference) <= 1e-12

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n,m", SSCP_SHAPES)
    def test_components_and_scores_reconstruct_sscp(self, rng, n, m, complex_):
        # S has rank k = min(n, m), so its k components and scores alone
        # rebuild all of S: nothing is lost by not computing its null space.
        v = random_full_rank(rng, n, m, complex_=complex_)
        result = lo.principal_components(v)
        u = result.components
        s = v @ v.conj().T
        rebuilt = (u * result.component_scores) @ u.conj().T
        assert lo.max_abs(rebuilt - s) <= 1e-12 * lo.max_abs(s)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n,m,rank", [(10, 5, 2), (6, 6, 3), (3, 8, 1)])
    def test_rank_deficient_spectrum_stays_descending(self, rng, n, m, rank, complex_):
        v = random_matrix(rng, n, rank, complex_) @ random_matrix(rng, rank, m, complex_)
        d = lo.principal_components(v).component_scores
        reference = np.linalg.eigvalsh(v @ v.conj().T)[::-1]
        assert np.all(np.diff(d) <= 0.0)
        assert np.max(np.abs(d[:rank] - reference[:rank]) / reference[:rank]) <= 1e-12
        assert np.max(np.abs(d[rank:])) <= 1e-13 * d[0]

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n,m", SSCP_SHAPES)
    def test_eigenvectors_are_unitary(self, rng, n, m, complex_):
        u = lo.principal_components(random_matrix(rng, n, m, complex_)).components
        k = min(n, m)
        assert u.shape == (n, k)
        assert lo.max_abs(u.conj().T @ u - np.eye(k)) <= 1e-12 * n

    def test_n_by_n_product_is_never_formed(self):
        # S = V·V† = diag(2x², 2y²) for x = 7e153, y = 3.5e153: re-symmetrizing S
        # overflows, but V†V and R·R† stay in range.
        v = np.array([[7e153, 7e153], [3.5e153, -3.5e153]])
        scores = lo.principal_components(v).component_scores
        assert scores == pytest.approx([2 * 7e153**2, 2 * 3.5e153**2], rel=1e-14)

    def test_overflow_message_quotes_the_operand_it_measures(self):
        # T = R·R† comes from 2^-e·V and cannot overflow; only S's eigenvalues
        # can, here 1e400, and the message quotes max|V| under V's name.
        with pytest.raises(OverflowError) as excinfo:
            lo.principal_components(1e200 * np.eye(2))
        assert str(excinfo.value) == "V·V† overflows float64 (max|V| = 1.000e+200)"

    @pytest.mark.parametrize("v", [1e154 * np.eye(2), np.array([[9e153, 9e153], [1e150, -1e150]])])
    def test_huge_input_whose_eigenvalues_fit(self, v):
        # Both overflowed an unscaled R·R†; S's eigenvalues fit in float64.
        reference = np.linalg.svd(v, compute_uv=False) ** 2
        scores = lo.principal_components(v).component_scores
        assert scores == pytest.approx(reference, rel=1e-14)

    @pytest.mark.parametrize("n,m", SSCP_SHAPES)
    def test_one_solve_of_min_dimension(self, rng, n, m, monkeypatch):
        import lowdin.pca

        original = lowdin.pca.hermitian_eigen
        shapes = []

        def recording(matrix, *args, **kwargs):
            shapes.append(np.shape(matrix))
            return original(matrix, *args, **kwargs)

        monkeypatch.setattr(lowdin.pca, "hermitian_eigen", recording)
        lo.principal_components(random_matrix(rng, n, m, complex_=True))
        assert shapes == [(min(n, m), min(n, m))]


def gram_sscp_gap(v):
    return lo.factorize(v).residuals("gram_sscp_gap")["gram_sscp_gap"]


class TestGramSscpCheck:
    """``gram_sscp_gap``: the metric spectrum against the SSCP one."""

    def test_identity(self):
        assert gram_sscp_gap(np.eye(2)) == 0.0
        assert np.array_equal(lo.principal_components(np.eye(2)).component_scores, [1.0, 1.0])

    def test_single_column_has_one_extra_zero(self):
        # V†V = [2]; VV† = [[1,1],[1,1]] with spectrum (2, 0)
        v = np.array([[1.0], [1.0]])
        assert lo.factorize(v).eigen.eigenvalues == pytest.approx([2.0])
        assert gram_sscp_gap(v) <= 1e-14

    def test_shear_spectra_agree(self):
        # trace 3 and determinant 1 for both products
        gram = lo.factorize(SHEAR).eigen.eigenvalues
        sscp = lo.principal_components(SHEAR).component_scores
        assert gram == pytest.approx([GOLDEN_HI, GOLDEN_LO], abs=1e-13)
        assert sscp == pytest.approx([GOLDEN_HI, GOLDEN_LO], abs=1e-13)
        assert gram_sscp_gap(SHEAR) <= 1e-13

    def test_rejects_wide_input(self, rng):
        # The rank cutoff rejects a wide V before this check can, so pair a
        # 3-column metric factorization with a 2-row V.
        f = lo.factorize(random_full_rank(rng, 4, 3))
        wide = dataclasses.replace(f, v=np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            wide.residuals("gram_sscp_gap")

    def test_full_rank_leftovers_are_counted(self, rng):
        v = random_full_rank(rng, 7, 3)
        assert gram_sscp_gap(v) <= 1e-9


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
    assert gram_sscp_gap(v) <= 1e-9
