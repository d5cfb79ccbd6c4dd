"""Polar decomposition, reduced SVD, and the inter-basis conversions."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings

import lowdin as lo
from lowdin.decompositions import RELATION_TOL
from lowdin.errors import DimensionMismatch, NotUnitary, SingularMetric
from lowdin.linalg import _scaled_to_unit
from lowdin.ortho import Method, OrthonormalBasis

from conftest import exact_scales, random_full_rank, random_unitary
from oracles import decimal_singular_values, gram_metric
from test_ortho import conditioned_matrices

GOLDEN_HI = (3.0 + math.sqrt(5.0)) / 2.0
GOLDEN_LO = (3.0 - math.sqrt(5.0)) / 2.0
SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])


class TestPolar:
    def test_identity(self):
        factors = lo.polar_decompose(np.eye(2))
        assert np.array_equal(factors.orthonormal.matrix, np.eye(2))
        assert np.array_equal(factors.positive, np.eye(2))

    def test_diagonal_positive(self):
        factors = lo.polar_decompose(np.diag([2.0, 3.0]))
        assert np.allclose(factors.orthonormal.matrix, np.eye(2), atol=1e-14)
        assert np.allclose(factors.positive, np.diag([2.0, 3.0]), atol=1e-14)

    def test_rotation_scaled_by_two(self):
        # V = [[0, -2], [2, 0]]: M = diag(4, 4), so H = 2I and Phi = V/2.
        v = np.array([[0.0, -2.0], [2.0, 0.0]])
        factors = lo.polar_decompose(v)
        assert np.allclose(factors.orthonormal.matrix, v / 2.0, atol=1e-14)
        assert np.allclose(factors.positive, 2.0 * np.eye(2), atol=1e-14)
        residual = lo.verify_orthonormal(factors.orthonormal.matrix)
        assert residual <= lo.DEFAULT_TOLERANCES.orthonormality_tol
        assert lo.max_abs(lo.reconstruct_polar(factors) - v) <= 1e-14

    def test_orthonormal_factor_is_the_symmetric_basis(self, rng):
        v = random_full_rank(rng, 6, 4, complex_=True)
        factors = lo.polar_decompose(v)
        phi = lo.symmetric_orthogonalize(v)
        assert np.array_equal(factors.orthonormal.matrix, phi.matrix)

    def test_positive_factor_is_the_metric_square_root(self, rng):
        v = random_full_rank(rng, 5, 3)
        factors = lo.polar_decompose(v)
        eigen = lo.factorize(v).eigen
        u = eigen.eigenvectors
        expected = (u * np.sqrt(eigen.eigenvalues)) @ u.conj().T
        expected = (expected + expected.conj().T) / 2.0
        assert np.array_equal(factors.positive, expected)

    def test_positive_factor_is_positive_definite(self, rng):
        v = random_full_rank(rng, 5, 4)
        factors = lo.polar_decompose(v)
        d = lo.hermitian_eigen(factors.positive).eigenvalues
        assert d[-1] > 0.0

    def test_rank_deficient_rejected(self):
        with pytest.raises(SingularMetric):
            lo.polar_decompose(np.array([[1.0, 2.0], [2.0, 4.0]]))


class TestReducedSvd:
    def test_diagonal_descending(self):
        factors = lo.reduced_svd(np.diag([3.0, 2.0]))
        assert np.allclose(factors.singular_values, [3.0, 2.0], atol=1e-14)
        assert np.allclose(factors.left, np.eye(2), atol=1e-14)
        assert np.allclose(factors.right, np.eye(2), atol=1e-14)

    def test_diagonal_ascending_swaps(self):
        v = np.diag([2.0, 3.0])
        factors = lo.reduced_svd(v)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(factors.singular_values, [3.0, 2.0], atol=1e-14)
        assert np.allclose(factors.left, swap, atol=1e-14)
        assert np.allclose(factors.right, swap, atol=1e-14)
        assert lo.max_abs(lo.reconstruct_svd(factors) - v) <= 1e-14

    def test_shear_singular_values(self):
        factors = lo.reduced_svd(SHEAR)
        expected = [math.sqrt(GOLDEN_HI), math.sqrt(GOLDEN_LO)]
        assert factors.singular_values == pytest.approx(expected, abs=1e-14)
        assert lo.max_abs(lo.reconstruct_svd(factors) - SHEAR) <= 1e-10

    def test_left_factor_is_the_canonical_basis(self, rng):
        v = random_full_rank(rng, 7, 4, complex_=True)
        factors = lo.reduced_svd(v)
        lam = lo.canonical_orthogonalize(v)
        assert np.array_equal(factors.left, lam.matrix)

    def test_squared_singular_values_are_metric_eigenvalues(self, rng):
        v = random_full_rank(rng, 6, 4)
        factors = lo.reduced_svd(v)
        d = lo.hermitian_eigen(gram_metric(v)).eigenvalues
        assert np.max(np.abs(factors.singular_values**2 - d) / d) <= 1e-10

    def test_descending_order(self, rng):
        v = random_full_rank(rng, 8, 5)
        sigma = lo.reduced_svd(v).singular_values
        assert np.all(np.diff(sigma) <= 0.0)
        assert sigma[-1] >= 0.0

    def test_rank_deficient_rejected(self):
        with pytest.raises(SingularMetric):
            lo.reduced_svd(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_singular_values_of_a_v_whose_metric_is_subnormal(self):
        # d = 1e-320 is subnormal, and √d was off by 5.6e-6; σ comes from
        # the scaled domain instead.
        sigma = lo.reduced_svd(1e-160 * np.eye(2)).singular_values
        assert np.all(np.abs(sigma - 1e-160) <= 2 * np.spacing(1e-160))

    def test_singular_values_are_bitwise_scale_covariant_wherever_it_factors(self):
        # For every k at which 2^k·V is exact and so are its rounding errors
        # ε·2^k·V, σ(2^k·V) is 2^k·σ(V) bit for bit, also where d
        # underflows, until d overflows; the polar factor H = U·diag(σ)·U†
        # follows.  Where ε·2^k·V is subnormal (k < -964 here), H's products
        # round in the subnormal range.
        v = random_full_rank(np.random.default_rng(0), 6, 4, complex_=True)
        f = lo.factorize(v)
        exact = exact_scales(np.finfo(float).eps * v)
        factored = []
        for k in exact:
            try:
                scaled = lo.factorize(np.ldexp(1.0, k) * v)
            except OverflowError:
                continue
            assert np.array_equal(scaled.svd.singular_values, np.ldexp(f.svd.singular_values, k)), k
            assert np.array_equal(scaled.polar.positive, np.ldexp(1.0, k) * f.polar.positive), k
            assert scaled.condition == f.condition, k
            factored.append(k)
        assert factored == exact[: len(factored)] and factored[-1] >= 500

    @pytest.mark.parametrize(
        "shape", [(6, 4), (8, 8), (16, 8), (12, 12)], ids=lambda s: "%dx%d" % s
    )
    def test_graded_singular_values_are_relatively_accurate(self, shape):
        # V = B·D with B Gaussian and D grading the columns from 1 to
        # 1e-14: each σ_j is determined to about ε·cond(B) relative, however
        # small (Demmel & Veselić, SIMAX 13, 1992), and the QR rounds and
        # Jacobi on T keep it so; σ from the Gram matrix V†V misses this gate
        # by up to 120×.  cond(V) runs from 1e14 to 2e15, about the rank
        # rule's max(n, m)/ε: the rule rejects one 8 x 8 and two 12 x 12
        # draws, whose exact σ_min/σ_max is 0.17-0.55 of max(n, m)·ε, and
        # the accuracy gate holds on every draw it admits.
        rng = np.random.default_rng(shape[0] * shape[1])
        admitted = 0
        for _ in range(3):
            b = rng.standard_normal(shape)
            v = b * np.geomspace(1.0, 1e-14, shape[1])
            exact = np.array([float(x) for x in decimal_singular_values(v)])
            if exact[-1] <= max(shape) * np.finfo(float).eps * exact[0]:
                with pytest.raises(SingularMetric):
                    lo.factorize(v)
                continue
            f = lo.factorize(v)
            error = np.max(np.abs(f.sigma - exact) / exact)
            assert error <= 8 * np.finfo(float).eps * np.linalg.cond(b)
            assert f.residuals("projection_sum_gap")["projection_sum_gap"] <= RELATION_TOL
            admitted += 1
        assert admitted == {(8, 8): 2, (12, 12): 1}.get(shape, 3)


class TestFactorizationResiduals:
    NAMES = {
        "phi_orthonormality",
        "lambda_orthonormality",
        "polar_reconstruction",
        "svd_reconstruction",
        "relation_lambda_phi_u",
        "projection_sum_gap",
        "sscp_eigenpair",
    }

    def test_every_residual_by_default(self, rng):
        residuals = lo.factorize(random_full_rank(rng, 5, 3, complex_=True)).residuals()
        assert set(residuals) == self.NAMES
        assert all(value <= 1e-10 for value in residuals.values())

    @staticmethod
    def _tampered(f, lam=None, j=None):
        """f with its Λ, or its d_j and σ_j, replaced as a corrupted metric solve would leave it.

        The solve computes d_j = 2^2e·d_T,j and σ_j = 2^e·√d_T,j from one
        d_T,j; tampering takes that d_T,j off by 1e-8 relative.
        """
        eigen, sigma = f.eigen, f.sigma
        if j is not None:
            exponent = _scaled_to_unit(f.v)[1]
            d_t = np.ldexp(eigen.eigenvalues[j], -2 * exponent) * (1.0 + 1e-8)
            d, sigma = eigen.eigenvalues.copy(), sigma.copy()
            d[j], sigma[j] = np.ldexp(d_t, 2 * exponent), np.ldexp(np.sqrt(d_t), exponent)
            eigen = eigen._replace(eigenvalues=d)
        matrix = f.lam.matrix if lam is None else lam
        return dataclasses.replace(
            f,
            sigma=sigma,
            lam=OrthonormalBasis(matrix=matrix, method=Method.CANONICAL, source_eigen=eigen),
        )

    @pytest.mark.parametrize(
        "tamper, name",
        [
            pytest.param("entry", "sscp_eigenpair", id="lambda-entry"),
            pytest.param("swap", "projection_sum_gap", id="column-swap"),
            pytest.param(0, "projection_sum_gap", id="d1"),
            pytest.param(-1, "projection_sum_gap", id="dmin"),
        ],
    )
    @pytest.mark.parametrize("complex_", [False, True])
    def test_a_tampered_pca_fails_its_check(self, rng, tamper, name, complex_):
        # Λ's columns as S's eigenvectors and d as their eigenvalues: one
        # entry of Λ off by 1e-8, two columns of Λ swapped, or d₁ or d_min
        # (with its σ) off by 1e-8 relative each push one of pca's
        # residuals past RELATION_TOL.
        for _ in range(5):
            f = lo.factorize(random_full_rank(rng, 6, 4, complex_=complex_))
            assert f.residuals(name)[name] <= RELATION_TOL
            if tamper == "entry":
                lam = f.lam.matrix.copy()
                lam[0, 0] += 1e-8
                bad = self._tampered(f, lam=lam)
            elif tamper == "swap":
                bad = self._tampered(f, lam=f.lam.matrix[:, [1, 0, 2, 3]])
            else:
                bad = self._tampered(f, j=tamper)
            assert bad.residuals(name)[name] > RELATION_TOL

    def test_caches_its_views(self):
        f = lo.factorize(SHEAR)
        assert f.components is f.components
        assert f.polar is f.polar

    def test_equality_and_hash_are_identity(self):
        # The array fields cannot decide == or a hash, so a factorization
        # equals itself alone, and a copy by ``replace`` is another object.
        f, g = lo.factorize(SHEAR), lo.factorize(SHEAR)
        copy = dataclasses.replace(f)
        assert f == f and f != g and f != copy
        assert hash(f) == hash(f)
        assert {f, g, copy, f} == {f, g, copy} and len({f, g, copy, f}) == 3
        assert np.array_equal(copy.lam.matrix, f.lam.matrix)

    def test_bounds_are_the_fixed_constants(self):
        # The config a V is factored with moves the sweep limit, never a
        # bound.
        bounds = lo.factorize(SHEAR, lo.ToleranceConfig(max_sweeps=8)).bounds()
        assert bounds == lo.factorize(SHEAR).bounds()
        assert set(bounds) == self.NAMES
        assert bounds["phi_orthonormality"] == bounds["lambda_orthonormality"] == 1e-10
        assert bounds["polar_reconstruction"] == bounds["svd_reconstruction"] == 1e-9
        assert bounds["relation_lambda_phi_u"] == bounds["sscp_eigenpair"] == RELATION_TOL
        assert bounds["projection_sum_gap"] == RELATION_TOL

    def test_every_residual_is_bitwise_scale_invariant_wherever_it_factors(self):
        # Φ, Λ, U and the scaled-domain F are those of V bit for bit, and
        # σ and H scale exactly, so each residual of 2^k·V reads that of V,
        # until d overflows, wherever 2^k·V is exact and so are the rounding
        # errors ε·2^k·V that the reconstruction residuals measure.
        for complex_ in (False, True):
            v = random_full_rank(np.random.default_rng(0), 6, 4, complex_=complex_)
            expected = lo.factorize(v).residuals()
            exact = exact_scales(np.finfo(float).eps * v)
            factored = []
            for k in exact:
                try:
                    f = lo.factorize(np.ldexp(1.0, k) * v)
                except OverflowError:
                    continue
                assert f.residuals() == expected, (complex_, k)
                factored.append(k)
            assert factored == exact[: len(factored)] and factored[-1] >= 500

    @pytest.mark.parametrize("complex_", [False, True])
    def test_a_tampered_h_fails_its_reconstruction_at_any_scale(self, complex_):
        # H = U·diag(σ)·U† off by a factor 1 + 1e-4 (σ and H scale alike)
        # moves V = Φ·H and V = W·diag(σ)·U† by 1e-4 relative, on a V of
        # max|V| = 9.5e-7 as on any other power-of-two scale of it.
        v = random_full_rank(np.random.default_rng(1), 6, 4, complex_=complex_)
        v = v * (9.5e-7 / lo.max_abs(v))
        names = ("polar_reconstruction", "svd_reconstruction")
        for k in (-500, -20, 0, 20, 500):
            f = lo.factorize(np.ldexp(1.0, k) * v)
            bad = dataclasses.replace(f, sigma=f.sigma * (1.0 + 1e-4))
            for name, value in bad.residuals(*names).items():
                assert f.residuals(name)[name] <= f.bounds(name)[name]
                assert value == pytest.approx(1e-4, rel=1e-6), (k, name)


def exactly_singular_inputs():
    """Integer V, n <= 6, whose columns are exactly dependent.

    Per shape and draw: the last column an integer multiple of the first,
    the last column the sum of the others, and a rank-1 outer product;
    odd draws are complex.
    """
    rng = np.random.default_rng(356)
    for n in range(2, 7):
        for m in range(2, n + 1):
            for draw in range(8):
                phase = 1j if draw % 2 else 1.0
                a = rng.integers(-4, 5, (n, m)) + phase * rng.integers(-4, 5, (n, m))
                multiple = a.copy()
                multiple[:, -1] = rng.choice([-3, -2, 2, 3]) * a[:, 0]
                summed = a.copy()
                summed[:, -1] = a[:, :-1].sum(axis=1)
                rank_one = phase * np.outer(rng.integers(1, 5, n), rng.integers(-4, 5, m))
                yield from (multiple, summed, rank_one)


class TestFactorizeCheckOrder:
    """The rank rule, then the overflow check, then Λ, whose column norms a zero σ_T zeroes.

    Run under the suite's ``error::RuntimeWarning`` filter, so assembling
    Λ from a singular metric would fail here with a division warning.
    """

    @pytest.mark.parametrize("shape", [(3, 2), (1, 1)])
    def test_a_zero_v_fails_the_rank_check_at_its_first_eigenvalue(self, shape):
        # σ_0 = 0 is at or below max(n, m)·ε·σ_0 = 0.
        with pytest.raises(SingularMetric) as caught:
            lo.factorize(np.zeros(shape))
        assert caught.value.eigenvalue_index == 0
        assert caught.value.eigenvalue == 0.0
        assert caught.value.condition == math.inf
        assert str(caught.value) == (
            "singular value 0 = 0.000000e+00 is at or below the rank cutoff "
            "max(n, m)·ε·σ_0 = 0.000000e+00"
        )

    def test_a_zero_column_fails_the_rank_check_at_its_index(self):
        with pytest.raises(SingularMetric) as caught:
            lo.factorize([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        assert caught.value.eigenvalue_index == 1
        assert caught.value.condition == math.inf
        assert str(caught.value) == (
            "singular value 1 = 0.000000e+00 is at or below the rank cutoff "
            "max(n, m)·ε·σ_0 = 6.661338e-16"
        )

    def test_the_rank_is_checked_before_the_overflow(self):
        # d = [inf, 0]: it overflows too, but the rank rule, read on the
        # scaled σ_T, is what it reports; the cutoff is quoted in V's units.
        with pytest.raises(SingularMetric) as caught:
            lo.factorize([[1e200, 0.0], [0.0, 0.0]])
        assert caught.value.eigenvalue_index == 1
        assert str(caught.value) == (
            "singular value 1 = 0.000000e+00 is at or below the rank cutoff "
            "max(n, m)·ε·σ_0 = 4.440892e+184"
        )

    @pytest.mark.parametrize(
        "v, error",
        [
            # σ = (1e300, 1e-300 or less): rank deficient, however its d overflows.
            ([[1e300, 1.0], [1.0, 1e-300]], SingularMetric),
            # Perfectly conditioned, with σ = 1e160 but d = 1e320.
            (1e160 * np.eye(2), OverflowError),
        ],
        ids=["graded-1e300", "identity-1e160"],
    )
    def test_an_overflowing_d_is_an_error_only_for_an_admitted_v(self, v, error):
        with pytest.raises(error):
            lo.factorize(v)

    def test_every_exactly_singular_metric_reads_inf(self):
        cases = list(exactly_singular_inputs())
        assert len(cases) == 360
        for v in cases:
            with pytest.raises(SingularMetric) as excinfo:
                lo.factorize(v)
            assert excinfo.value.condition == math.inf, v

    @pytest.mark.parametrize("v", [1e-200 * np.eye(2), [[1e-170], [1e-170]], 5e-324 * np.eye(2)])
    def test_an_underflowing_d_is_kept_as_computed(self, v):
        # The rule reads 2^-e·V, so a perfectly conditioned V factors
        # however small: d underflows to 0, and σ carries V's scale.
        f = lo.factorize(v)
        assert f.condition == 1.0
        assert np.all(f.eigen.eigenvalues == 0.0)
        assert np.all(f.sigma == lo.max_abs(v) * np.sqrt(np.shape(v)[0] / np.shape(v)[1]))
        assert max(f.residuals().values()) <= 1e-15


class TestConversions:
    def test_canonical_from_symmetric_identity(self):
        phi = lo.symmetric_orthogonalize(np.eye(2))
        out = lo.canonical_from_symmetric(phi, np.eye(2))
        assert np.array_equal(out.matrix, np.eye(2))
        assert out.method is Method.CANONICAL

    def test_canonical_from_symmetric_swap(self):
        phi = lo.symmetric_orthogonalize(np.eye(2))
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(lo.canonical_from_symmetric(phi, swap).matrix, swap, atol=0)

    def test_diagonal_example_matches_canonical(self):
        v = np.diag([2.0, 3.0])
        phi = lo.symmetric_orthogonalize(v)
        u = phi.source_eigen.eigenvectors
        built = lo.canonical_from_symmetric(phi, u)
        direct = lo.canonical_orthogonalize(v)
        assert lo.max_abs(built.matrix - direct.matrix) <= 1e-14
        assert np.allclose(built.matrix, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    def test_symmetric_from_canonical_identity(self):
        lam = lo.canonical_orthogonalize(np.eye(2))
        out = lo.symmetric_from_canonical(lam, np.eye(2))
        assert np.array_equal(out.matrix, np.eye(2))
        assert out.method is Method.SYMMETRIC

    def test_symmetric_from_canonical_swap_pair(self):
        lam = lo.canonical_orthogonalize(np.diag([2.0, 3.0]))
        u = lam.source_eigen.eigenvectors
        out = lo.symmetric_from_canonical(lam, u)
        direct = lo.symmetric_orthogonalize(np.diag([2.0, 3.0]))
        assert np.allclose(out.matrix, np.eye(2), atol=1e-14)
        assert lo.max_abs(out.matrix - direct.matrix) <= 1e-12

    def test_cross_identities_with_shared_eigen(self, rng):
        v = random_full_rank(rng, 6, 4, complex_=True)
        phi = lo.symmetric_orthogonalize(v)
        lam = lo.canonical_orthogonalize(v)
        u = phi.source_eigen.eigenvectors
        assert lo.max_abs(lam.matrix - lo.canonical_from_symmetric(phi, u).matrix) <= 1e-12
        assert lo.max_abs(phi.matrix - lo.symmetric_from_canonical(lam, u).matrix) <= 1e-12

    def test_round_trip_is_tight(self, rng):
        v = random_full_rank(rng, 5, 3)
        lam = lo.canonical_orthogonalize(v)
        u = lam.source_eigen.eigenvectors
        back = lo.canonical_from_symmetric(lo.symmetric_from_canonical(lam, u), u)
        assert lo.max_abs(back.matrix - lam.matrix) <= 1e-14

    def test_method_preconditions(self, rng):
        v = random_full_rank(rng, 4, 2)
        phi = lo.symmetric_orthogonalize(v)
        lam = lo.canonical_orthogonalize(v)
        with pytest.raises(ValueError):
            lo.canonical_from_symmetric(lam, np.eye(2))
        with pytest.raises(ValueError):
            lo.symmetric_from_canonical(phi, np.eye(2))

    def test_rejects_non_unitary_u(self, rng):
        v = random_full_rank(rng, 4, 2)
        phi = lo.symmetric_orthogonalize(v)
        with pytest.raises(NotUnitary):
            lo.canonical_from_symmetric(phi, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_wrong_size_u(self, rng):
        v = random_full_rank(rng, 4, 2)
        phi = lo.symmetric_orthogonalize(v)
        with pytest.raises(DimensionMismatch):
            lo.canonical_from_symmetric(phi, np.eye(3))


class TestFactorizationUsesTheRelations:
    """Φ and the relation product come from the public conversions, once each."""

    @staticmethod
    def _count(monkeypatch, name):
        import lowdin.decompositions

        original, calls = getattr(lowdin.decompositions, name), []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(lowdin.decompositions, name, counting)
        return calls

    def test_phi_is_symmetric_from_svd(self, rng, monkeypatch):
        calls = self._count(monkeypatch, "symmetric_from_svd")
        f = lo.factorize(random_full_rank(rng, 6, 4, complex_=True))
        phi = f.phi
        assert f.phi is phi and len(calls) == 1
        assert phi.method is Method.SYMMETRIC and phi.source_eigen is f.eigen
        assert np.array_equal(phi.matrix, f.lam.matrix @ f.eigen.eigenvectors.conj().T)

    def test_relation_reads_canonical_from_symmetric(self, rng, monkeypatch):
        calls = self._count(monkeypatch, "canonical_from_symmetric")
        f = lo.factorize(random_full_rank(rng, 6, 4))
        residual = f.residuals("relation_lambda_phi_u")["relation_lambda_phi_u"]
        assert np.array_equal(f.lambda_from_phi, f.phi.matrix @ f.eigen.eigenvectors)
        assert residual == lo.max_abs(f.lam.matrix - f.lambda_from_phi)
        assert len(calls) == 1


class TestSymmetricFromSvd:
    def test_identity(self):
        factors = lo.SvdFactors(
            left=np.eye(2), singular_values=np.array([1.0, 1.0]), right=np.eye(2)
        )
        out = lo.symmetric_from_svd(factors)
        assert np.array_equal(out.matrix, np.eye(2))
        assert out.method is Method.SYMMETRIC

    def test_swap_pair(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        factors = lo.SvdFactors(
            left=swap, singular_values=np.array([3.0, 2.0]), right=swap
        )
        assert np.allclose(lo.symmetric_from_svd(factors).matrix, np.eye(2), atol=0)

    def test_matches_direct_route_on_shear(self):
        factors = lo.reduced_svd(SHEAR)
        direct = lo.symmetric_orthogonalize(SHEAR)
        assert lo.max_abs(lo.symmetric_from_svd(factors).matrix - direct.matrix) <= 1e-10

    def test_matches_direct_route_even_with_degenerate_spectrum(self, rng):
        # engineered 5x3 input with singular values (2, 2, 1): the
        # ambiguity inside the degenerate pair cancels in W U†
        q1 = random_unitary(rng, 5)[:, :3]
        q2 = random_unitary(rng, 3)
        v = q1 @ np.diag([2.0, 2.0, 1.0]) @ q2.conj().T
        via_svd = lo.symmetric_from_svd(lo.reduced_svd(v)).matrix
        direct = lo.symmetric_orthogonalize(v).matrix
        assert lo.max_abs(via_svd - direct) <= 1e-10

    def test_shape_mismatch(self):
        factors = lo.SvdFactors(
            left=np.eye(3, 2), singular_values=np.array([1.0, 1.0]), right=np.eye(3)
        )
        with pytest.raises(DimensionMismatch):
            lo.symmetric_from_svd(factors)


class TestReconstruct:
    def test_polar_identity(self):
        factors = lo.polar_decompose(np.eye(2))
        assert np.array_equal(lo.reconstruct_polar(factors), np.eye(2))

    def test_svd_diagonal_assembly(self):
        factors = lo.SvdFactors(
            left=np.eye(2), singular_values=np.array([3.0, 2.0]), right=np.eye(2)
        )
        assert np.allclose(lo.reconstruct_svd(factors), np.diag([3.0, 2.0]), atol=0)

    def test_polar_round_trip(self, rng):
        v = random_full_rank(rng, 6, 4, complex_=True)
        factors = lo.polar_decompose(v)
        assert lo.max_abs(lo.reconstruct_polar(factors) - v) <= 1e-9 * lo.max_abs(v)

    def test_svd_round_trip(self, rng):
        v = random_full_rank(rng, 6, 4, complex_=True)
        factors = lo.reduced_svd(v)
        assert lo.max_abs(lo.reconstruct_svd(factors) - v) <= 1e-9 * lo.max_abs(v)

    def test_svd_shape_mismatch(self):
        factors = lo.SvdFactors(
            left=np.eye(2), singular_values=np.array([1.0, 2.0, 3.0]), right=np.eye(3)
        )
        with pytest.raises(DimensionMismatch):
            lo.reconstruct_svd(factors)


@settings(max_examples=30, deadline=None)
@given(v=conditioned_matrices(complex_=True))
def test_polar_round_trip_property(v):
    factors = lo.polar_decompose(v)
    assert lo.max_abs(lo.reconstruct_polar(factors) - v) <= 1e-9 * (1.0 + lo.max_abs(v))


@settings(max_examples=30, deadline=None)
@given(v=conditioned_matrices(complex_=True))
def test_svd_round_trip_property(v):
    factors = lo.reduced_svd(v)
    assert lo.max_abs(lo.reconstruct_svd(factors) - v) <= 1e-9 * (1.0 + lo.max_abs(v))
    assert np.all(np.diff(factors.singular_values) <= 0.0)


@settings(max_examples=30, deadline=None)
@given(v=conditioned_matrices())
def test_three_phi_routes_agree(v):
    phi = lo.symmetric_orthogonalize(v)
    lam = lo.canonical_orthogonalize(v)
    u = phi.source_eigen.eigenvectors
    via_canonical = lo.symmetric_from_canonical(lam, u).matrix
    via_svd = lo.symmetric_from_svd(lo.reduced_svd(v)).matrix
    assert lo.max_abs(phi.matrix - via_canonical) <= 1e-10
    assert lo.max_abs(phi.matrix - via_svd) <= 1e-10
