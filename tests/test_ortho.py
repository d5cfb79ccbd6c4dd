"""Symmetric and canonical orthogonalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lowdin as lo
from lowdin.errors import DimensionMismatch, NotUnitary, SingularMetric
from lowdin.ortho import Method

from conftest import exact_scales, load_script, random_full_rank, random_unitary
from oracles import gram_metric, hermitian_2x2_power, lapack_inverse_sqrt_route

GOLDEN_HI = (3.0 + math.sqrt(5.0)) / 2.0
GOLDEN_LO = (3.0 - math.sqrt(5.0)) / 2.0
SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])


@st.composite
def conditioned_matrices(draw, max_dim=5, complex_=False):
    """Full-rank matrices with cond(V†V) <= 100, built by spectrum surgery."""
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, m))
    if complex_:
        a = a + 1j * rng.standard_normal((n, m))
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    sv = rng.uniform(0.3, 3.0, m)
    return u @ np.diag(sv) @ vt


class TestVerifyOrthonormal:
    def test_identity_passes_with_zero_residual(self):
        assert lo.verify_orthonormal(np.eye(4)) == 0.0

    def test_shear_fails_with_residual_one(self):
        # Z†Z = [[1, 1], [1, 2]] so the largest deviation from I is 1.
        residual = lo.verify_orthonormal(SHEAR)
        assert residual == 1.0
        assert residual > lo.DEFAULT_TOLERANCES.orthonormality_tol

    def test_known_orthonormal_pair(self):
        s = 1.0 / math.sqrt(2.0)
        assert lo.verify_orthonormal(np.array([[s, s], [s, -s]])) <= 1e-15


class TestSymmetric:
    def test_identity(self):
        basis = lo.symmetric_orthogonalize(np.eye(3))
        assert np.array_equal(basis.matrix, np.eye(3))
        assert basis.method is Method.SYMMETRIC

    def test_orthogonal_columns_just_normalize(self):
        basis = lo.symmetric_orthogonalize(np.diag([2.0, 3.0]))
        assert np.allclose(basis.matrix, np.eye(2), atol=1e-14)

    def test_shear_against_closed_form_kernel(self):
        # M = [[1, 1], [1, 2]]; the closed-form M^{-1/2} comes from the
        # quadratic-formula eigenpairs, independent of the code under test.
        kernel = hermitian_2x2_power(1.0, 2.0, 1.0, -0.5)
        expected = SHEAR @ kernel
        basis = lo.symmetric_orthogonalize(SHEAR)
        assert lo.max_abs(basis.matrix - expected) <= 1e-12
        assert lo.verify_orthonormal(basis.matrix) <= 1e-10
        # and it is a genuine factor of V: Phi M^{1/2} = V
        half = hermitian_2x2_power(1.0, 2.0, 1.0, 0.5)
        assert lo.max_abs(basis.matrix @ half - SHEAR) <= 1e-12

    def test_matches_direct_inverse_sqrt_route(self, rng):
        v = random_full_rank(rng, 6, 4)
        direct = lapack_inverse_sqrt_route(v)
        basis = lo.symmetric_orthogonalize(v)
        assert lo.max_abs(basis.matrix - direct) <= 1e-12

    def test_rank_deficient_is_rejected_with_diagnostics(self):
        with pytest.raises(SingularMetric) as excinfo:
            lo.symmetric_orthogonalize(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert excinfo.value.eigenvalue_index == 1
        assert excinfo.value.condition == math.inf

    def test_wide_matrix_is_rejected(self):
        with pytest.raises(SingularMetric):
            lo.symmetric_orthogonalize(np.ones((2, 3)))

    def test_real_input_stays_real(self, rng):
        v = random_full_rank(rng, 5, 3)
        phi = lo.symmetric_orthogonalize(v)
        lam = lo.canonical_orthogonalize(v)
        polar = lo.polar_decompose(v)
        svd = lo.reduced_svd(v)
        for output in (phi.matrix, lam.matrix, polar.positive, svd.left, svd.right):
            assert lo.max_abs(output.imag) <= 1e-12


class TestCanonical:
    def test_identity(self):
        basis = lo.canonical_orthogonalize(np.eye(2))
        assert np.array_equal(basis.matrix, np.eye(2))
        assert basis.method is Method.CANONICAL

    def test_descending_metric_order_swaps_columns(self):
        # M = diag(4, 9) sorts to (9, 4), so the columns swap.
        basis = lo.canonical_orthogonalize(np.diag([2.0, 3.0]))
        assert np.allclose(basis.matrix, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)
        assert basis.source_eigen.eigenvalues == pytest.approx([9.0, 4.0])

    def test_shear_spectral_property(self):
        basis = lo.canonical_orthogonalize(SHEAR)
        assert lo.verify_orthonormal(basis.matrix) <= 1e-10
        # summed squared projections of V's columns onto each canonical
        # vector recover the metric eigenvalues
        sums = [
            sum(abs(np.vdot(basis.matrix[:, j], SHEAR[:, k])) ** 2 for k in range(2))
            for j in range(2)
        ]
        assert sums == pytest.approx([GOLDEN_HI, GOLDEN_LO], rel=1e-12)

    def test_source_eigen_is_attached(self, rng):
        v = random_full_rank(rng, 5, 3)
        basis = lo.canonical_orthogonalize(v)
        assert basis.source_eigen is not None
        assert basis.source_eigen.eigenvalues.shape == (3,)


    def test_columns_are_unit_vectors_when_ill_conditioned(self, rng):
        # Column j is P·L·y_j with L·y_j divided by its own norm and P
        # column-orthonormal, so even at cond(V†V) = 1e10 the diagonal of
        # Λ†Λ is 1 to a few ulps.
        q1, q2 = random_unitary(rng, 8, complex_=True), random_unitary(rng, 6, complex_=True)
        v = (q1[:, :6] * np.geomspace(1.0, 1e-5, 6)) @ q2
        lam = lo.canonical_orthogonalize(v).matrix
        gram = lam.conj().T @ lam
        assert lo.max_abs(np.diagonal(gram) - 1.0) <= 8 * np.finfo(float).eps


class TestPowerOfTwoScaling:
    def test_subnormal_metric_entries(self):
        # V†V has off-diagonal entries 1e-310, below the normal range.
        v = np.array([[1.0, 0.0], [0.0, 1.0], [1e-155, 1e-155]])
        phi = lo.symmetric_orthogonalize(v).matrix
        assert np.all(np.isfinite(phi))
        assert lo.max_abs(phi - v) <= 1e-15

    @pytest.mark.parametrize("k", [-500, -300, -1, 1, 300, 500])
    def test_symmetric_basis_is_bitwise_scale_invariant(self, rng, k):
        v = random_full_rank(rng, 5, 3, complex_=True)
        phi = lo.symmetric_orthogonalize(v).matrix
        assert np.array_equal(lo.symmetric_orthogonalize(np.ldexp(1.0, k) * v).matrix, phi)

    def test_symmetric_basis_is_bitwise_scale_invariant_wherever_it_factors(self):
        # Λ, U and the rank verdict come from 2^-e·V alone, so only d sees
        # the power of two: every 2^k·V that is exact either raises because
        # d overflows or gives Φ(V) bit for bit, also where d underflows.
        v = random_full_rank(np.random.default_rng(0), 6, 4, complex_=True)
        phi = lo.factorize(v).phi.matrix
        exact = exact_scales(v)
        factored = []
        for k in exact:
            try:
                scaled = lo.factorize(np.ldexp(1.0, k) * v).phi.matrix
            except OverflowError:
                continue
            assert np.array_equal(scaled, phi), k
            factored.append(k)
        assert factored == exact[: len(factored)] and factored[-1] >= 500


def _ill_conditioned_64x64(complex_):
    """A 64 x 64 V with cond(M) = 1e10, from the accuracy script's construction.

    The complex one has the same singular values between Haar-like
    complex unitary factors.
    """
    rng = np.random.default_rng(0)
    if not complex_:
        return load_script("accuracy").controlled_matrix(rng, (64, 64), 1e10)
    singulars = np.geomspace(1.0, 1e-5, 64)
    left, right = (random_unitary(rng, 64, complex_=True) for _ in range(2))
    return (left * singulars) @ right.conj().T


class TestMetricSolve:
    """M = V†V is diagonalized as L†·L after QR/LQ rounds on 2^-e·V, never formed."""

    def test_sweep_count_on_an_ill_conditioned_64x64(self):
        # cond(M) = 1e10: the solve on L†·L after three QR/LQ rounds takes 5
        # sweeps (one QR of V† took 10), a fraction of the Gram route's 18.
        v = _ill_conditioned_64x64(complex_=False)
        assert lo.factorize(v).eigen.sweeps == 5
        assert lo.hermitian_eigen(gram_metric(v)).sweeps == 18

    def test_sweep_count_on_an_ill_conditioned_complex_64x64(self):
        # 4 sweeps leave every pair within |a_pq| <= √n·ε·√(d'_p·d'_q).
        assert lo.factorize(_ill_conditioned_64x64(complex_=True)).eigen.sweeps == 4

    @pytest.mark.parametrize("complex_", [False, True])
    def test_accurate_on_an_ill_conditioned_64x64(self, complex_):
        # Φ keeps the contract's orthonormality.  The QRs and the Jacobi solve
        # are backward stable, so d is the spectrum of M + E with
        # ‖E‖ = O(m·ε·‖M‖), and by Weyl's theorem each d_j lies within about
        # m·ε·d_max of σ_j² (LAPACK's SVD, itself accurate to ε·σ_max in each
        # σ_j).  Measured: 5·ε·d_max, real and complex.
        v = _ill_conditioned_64x64(complex_)
        f = lo.factorize(v)
        assert f.residuals("phi_orthonormality")["phi_orthonormality"] <= (
            lo.DEFAULT_TOLERANCES.orthonormality_tol
        )
        d, m = f.eigen.eigenvalues, v.shape[1]
        sigma = np.linalg.svd(v, compute_uv=False)
        assert np.max(np.abs(d - sigma**2)) <= m * np.finfo(float).eps * d[0]

    @pytest.mark.parametrize("complex_", [False, True])
    def test_no_lapack_eigensolver_or_svd(self, rng, monkeypatch, complex_):
        # numpy.linalg.qr is the only LAPACK call, a preconditioner; every
        # eigendecomposition is the Jacobi solver's.
        def refuse(*args, **kwargs):
            raise AssertionError("only the Jacobi solver diagonalizes")

        v = random_full_rank(rng, 6, 4, complex_=complex_)
        for name in ("eigh", "eigvalsh", "eig", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        residuals = lo.factorize(v).residuals()  # every factor and residual
        assert max(residuals.values()) <= lo.DEFAULT_TOLERANCES.reconstruction_tol

    def test_orthonormal_at_metric_condition_1e10(self):
        # 10 real 8 x 8 draws per level of the accuracy script's grid, up to
        # cond(M) = 1e10, where the Gram route reached 6e-8.
        script = load_script("accuracy")
        rng = np.random.default_rng(0)
        for exponent in range(0, 11, 2):
            worst = script.cell(rng, (8, 8), False, 10.0**exponent, 10)["residuals"]
            for name in ("phi_orthonormality", "lambda_orthonormality"):
                assert worst[name]["worst"] <= lo.DEFAULT_TOLERANCES.orthonormality_tol

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [8, 32, 64])
    @pytest.mark.parametrize(
        "metric_condition", [1e12, 1e16, 1e20, 1e28], ids=["1e12", "1e16", "1e20", "1e28"]
    )
    def test_orthonormal_to_rounding_at_any_admitted_condition(self, n, complex_, metric_condition):
        # Λ is assembled from the QR factors of 2^-e·V and the eigenvectors
        # of T, never from V itself, so orthonormality does not grow as
        # ε·cond(V).  At 1e28 (σ_min/σ_max = 1e-14) the rank rule rejects
        # the 64 x 64 V, whose max(n, m)·ε is 1.4e-14, and admits the others.
        rng = np.random.default_rng(n)
        singulars = np.geomspace(1.0, metric_condition**-0.5, n)
        for _ in range(3):
            left, right = (random_unitary(rng, n, complex_) for _ in range(2))
            v = (left * singulars) @ right.conj().T
            if singulars[-1] <= n * np.finfo(float).eps:
                with pytest.raises(SingularMetric):
                    lo.factorize(v)
                continue
            f = lo.factorize(v)
            residuals = f.residuals("phi_orthonormality", "lambda_orthonormality")
            assert max(residuals.values()) <= 1e-13

    def test_eigenvalue_overflow_is_reported_against_v(self):
        # V is representable but d = 1e400 is not.
        with pytest.raises(OverflowError, match=r"^V†V overflows float64 \(max\|V\| = 1\.000e\+200\)$"):
            lo.factorize(1e200 * np.eye(2))


class TestRequireUnitary:
    def test_accepts_rotation(self):
        theta = 0.3
        q = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        assert np.array_equal(lo.require_unitary(q), q)

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionMismatch):
            lo.require_unitary(np.ones((3, 2)))

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            lo.require_unitary(SHEAR)


def test_orthonormality_on_uniform_entry_ensemble(rng):
    # entries uniform in [-1, 1], metric condition <= 1e3, n, m <= 8
    for index in range(40):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, n + 1))
        v = random_full_rank(rng, n, m, complex_=bool(index % 2), metric_cond_limit=1e3)
        phi = lo.symmetric_orthogonalize(v).matrix
        lam = lo.canonical_orthogonalize(v).matrix
        assert lo.max_abs(phi.conj().T @ phi - np.eye(m)) <= 1e-10
        assert lo.max_abs(lam.conj().T @ lam - np.eye(m)) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(v=conditioned_matrices())
def test_both_bases_are_orthonormal(v):
    phi = lo.symmetric_orthogonalize(v)
    lam = lo.canonical_orthogonalize(v)
    assert lo.verify_orthonormal(phi.matrix) <= 1e-10
    assert lo.verify_orthonormal(lam.matrix) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(v=conditioned_matrices(complex_=True))
def test_complex_bases_are_orthonormal(v):
    phi = lo.symmetric_orthogonalize(v)
    lam = lo.canonical_orthogonalize(v)
    assert lo.verify_orthonormal(phi.matrix) <= 1e-10
    assert lo.verify_orthonormal(lam.matrix) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(v=conditioned_matrices())
def test_symmetric_is_idempotent(v):
    phi = lo.symmetric_orthogonalize(v).matrix
    again = lo.symmetric_orthogonalize(phi).matrix
    assert lo.max_abs(again - phi) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(v=conditioned_matrices(complex_=True), seed=st.integers(0, 2**31 - 1))
def test_left_unitary_covariance(v, seed):
    q = random_unitary(np.random.default_rng(seed), v.shape[0], complex_=True)
    left = lo.symmetric_orthogonalize(q @ v).matrix
    right = q @ lo.symmetric_orthogonalize(v).matrix
    assert lo.max_abs(left - right) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(v=conditioned_matrices())
def test_canonical_projection_sums_match_eigenvalues(v):
    lam = lo.canonical_orthogonalize(v)
    d = lam.source_eigen.eigenvalues
    overlaps = lam.matrix.conj().T @ v
    sums = np.sum(np.abs(overlaps) ** 2, axis=1)
    assert np.max(np.abs(sums - d) / d) <= 1e-9
