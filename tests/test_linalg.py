"""Core matrix operations and the Jacobi eigensolver."""

import math

import numpy as np
import pytest

import lowdin as lo
from lowdin.errors import (
    DimensionMismatch,
    NegativeEigenvalue,
    NoConvergence,
    NotHermitian,
    SingularMetric,
)

from conftest import random_matrix
from oracles import hermitian_2x2_power

I2 = np.eye(2)
GOLDEN_HI = (3.0 + math.sqrt(5.0)) / 2.0
GOLDEN_LO = (3.0 - math.sqrt(5.0)) / 2.0


class TestGramMetric:
    def test_orthonormal_input(self):
        assert np.array_equal(lo.gram_metric(I2), I2)

    def test_shear(self):
        v = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert np.array_equal(lo.gram_metric(v), np.array([[1.0, 1.0], [1.0, 2.0]]))

    def test_single_column(self):
        assert np.array_equal(lo.gram_metric(np.array([[1.0], [1.0]])), np.array([[2.0]]))

    def test_exactly_hermitian(self, rng):
        v = random_matrix(rng, 6, 4, complex_=True)
        m = lo.gram_metric(v)
        assert lo.max_abs(m - m.conj().T) == 0.0

    def test_positive_semidefinite_up_to_rounding(self, rng):
        for _ in range(20):
            v = random_matrix(rng, 5, 5)
            d = lo.hermitian_eigen(lo.gram_metric(v)).eigenvalues
            assert d[-1] >= -lo.DEFAULT_TOLERANCES.rank_tol * d[0]


class TestHermitianEigen:
    def test_already_diagonal(self):
        eigen = lo.hermitian_eigen(np.diag([2.0, 1.0]))
        assert np.array_equal(eigen.eigenvalues, [2.0, 1.0])
        assert np.array_equal(eigen.eigenvectors, I2)

    def test_exchange_matrix(self):
        # Characteristic polynomial x^2 - 1: eigenvalues +-1 with
        # eigenvectors (1, 1)/sqrt(2) and (1, -1)/sqrt(2) after phase fixing.
        eigen = lo.hermitian_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert eigen.eigenvalues == pytest.approx([1.0, -1.0], abs=1e-15)
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(eigen.eigenvectors, [[s, s], [s, -s]], atol=1e-15)

    def test_golden_spectrum(self):
        # trace 3, determinant 1 force the roots of x^2 - 3x + 1.
        eigen = lo.hermitian_eigen(np.array([[1.0, 1.0], [1.0, 2.0]]))
        assert eigen.eigenvalues == pytest.approx([GOLDEN_HI, GOLDEN_LO], abs=1e-14)

    def test_descending_order_and_invariants(self, rng):
        for n in (1, 2, 3, 5, 8):
            a = random_matrix(rng, n, n, complex_=True)
            h = (a + a.conj().T) / 2.0
            eigen = lo.hermitian_eigen(h)
            d, u = eigen.eigenvalues, eigen.eigenvectors
            assert np.all(np.diff(d) <= 0.0)
            assert lo.max_abs(u.conj().T @ u - np.eye(n)) <= 1e-12 * n
            assert lo.max_abs((u * d) @ u.conj().T - h) <= 1e-10 * (1.0 + np.max(np.abs(d)))

    def test_phase_convention(self, rng):
        a = random_matrix(rng, 6, 6, complex_=True)
        eigen = lo.hermitian_eigen((a + a.conj().T) / 2.0)
        for j in range(6):
            column = eigen.eigenvectors[:, j]
            k = int(np.argmax(np.abs(column)))
            assert column[k].imag == 0.0
            assert column[k].real >= 0.0

    def test_zero_matrix(self):
        eigen = lo.hermitian_eigen(np.zeros((3, 3)))
        assert np.array_equal(eigen.eigenvalues, np.zeros(3))
        assert np.array_equal(eigen.eigenvectors, np.eye(3))

    def test_one_by_one(self):
        eigen = lo.hermitian_eigen([[-4.0]])
        assert eigen.eigenvalues[0] == -4.0
        assert eigen.eigenvectors[0, 0] == 1.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            lo.hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            lo.hermitian_eigen(np.ones((2, 3)))

    def test_no_convergence_with_one_sweep(self):
        m = np.array(
            [
                [4.0, 1.0, 1.0, 1.0],
                [1.0, 3.0, 1.0, 1.0],
                [1.0, 1.0, 2.0, 1.0],
                [1.0, 1.0, 1.0, 1.0],
            ]
        )
        cfg = lo.ToleranceConfig(max_sweeps=1)
        with pytest.raises(NoConvergence) as excinfo:
            lo.hermitian_eigen(m, cfg)
        assert excinfo.value.sweeps == 1
        assert excinfo.value.off_norm > 0.0

    def test_accepts_tiny_asymmetry_and_symmetrizes(self):
        m = np.array([[1.0, 1.0 + 1e-13], [1.0, 2.0]])
        eigen = lo.hermitian_eigen(m)
        assert eigen.eigenvalues == pytest.approx([GOLDEN_HI, GOLDEN_LO], abs=1e-12)


class TestHermitianPower:
    def test_identity_inverse_sqrt(self):
        assert np.allclose(lo.hermitian_power(I2, -0.5), I2, atol=1e-15)

    def test_diagonal_inverse_sqrt(self):
        result = lo.hermitian_power(np.diag([4.0, 9.0]), -0.5)
        assert np.allclose(result, np.diag([0.5, 1.0 / 3.0]), atol=1e-15)

    def test_inverse_sqrt_against_closed_form(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        expected = hermitian_2x2_power(2.0, 2.0, 1.0, -0.5)
        result = lo.hermitian_power(m, -0.5)
        assert lo.max_abs(result - expected) <= 1e-12
        # squaring the result and multiplying by M recovers the identity
        assert lo.max_abs(result @ result @ m - I2) <= 1e-8

    def test_sqrt_squares_back(self, rng):
        v = random_matrix(rng, 5, 5)
        m = lo.gram_metric(v)
        root = lo.hermitian_power(m, 0.5)
        cfg = lo.DEFAULT_TOLERANCES
        assert lo.max_abs(root @ root - m) <= cfg.reconstruction_tol * lo.max_abs(m)

    def test_inverse_sqrt_identity_for_moderate_condition(self, rng):
        for _ in range(10):
            v = random_matrix(rng, 4, 4)
            m = lo.gram_metric(v)
            d = lo.hermitian_eigen(m).eigenvalues
            if d[0] / d[-1] > 1e6:
                continue
            w = lo.hermitian_power(m, -0.5)
            assert lo.max_abs(w @ w @ m - np.eye(4)) <= 1e-8

    def test_integer_power_of_indefinite_matrix(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(lo.hermitian_power(m, 2.0), I2, atol=1e-14)

    def test_zeroth_power(self):
        assert np.allclose(lo.hermitian_power(np.diag([3.0, 7.0]), 0.0), I2, atol=0)

    def test_singular_metric_diagnostics(self):
        with pytest.raises(SingularMetric) as excinfo:
            lo.hermitian_power(np.diag([1.0, 1e-15]), -0.5)
        err = excinfo.value
        assert err.eigenvalue_index == 1
        assert err.eigenvalue == pytest.approx(1e-15)
        assert err.condition == pytest.approx(1e15, rel=1e-6)

    def test_negative_eigenvalue_for_non_integer_power(self):
        with pytest.raises(NegativeEigenvalue) as excinfo:
            lo.hermitian_power(np.diag([1.0, -1.0]), 0.5)
        assert excinfo.value.eigenvalue_index == 1
        assert excinfo.value.eigenvalue == pytest.approx(-1.0)

    def test_negative_power_requires_positive_definite(self):
        with pytest.raises(SingularMetric):
            lo.hermitian_power(np.diag([1.0, -1.0]), -1.0)


class TestPhaseConvention:
    def test_scales_largest_entry_real_nonnegative(self):
        u = np.array([[0.0, 1.0], [1j, 0.0]])
        fixed = lo.apply_phase_convention(u)
        assert np.allclose(fixed, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_tie_goes_to_lowest_row(self):
        s = 1.0 / math.sqrt(2.0)
        u = np.array([[-s], [s]])
        fixed = lo.apply_phase_convention(u)
        assert fixed[0, 0].real > 0.0

    def test_leaves_zero_columns_alone(self):
        u = np.zeros((2, 1), dtype=complex)
        assert np.array_equal(lo.apply_phase_convention(u), u)


class TestToleranceConfig:
    def test_defaults(self):
        cfg = lo.ToleranceConfig()
        assert cfg.rank_tol == 1e-12
        assert cfg.max_sweeps == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hermiticity_tol": 0.0},
            {"orthonormality_tol": -1e-10},
            {"reconstruction_tol": 0.0},
            {"rank_tol": 0.0},
            {"eigen_convergence_tol": 0.0},
            {"max_sweeps": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            lo.ToleranceConfig(**kwargs)


class TestAsMatrix:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            lo.as_matrix(np.zeros((0, 2)))

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError):
            lo.as_matrix([1.0, 2.0])

    def test_rejects_infinite_entries(self):
        with pytest.raises(ValueError):
            lo.as_matrix([[np.inf, 0.0], [0.0, 1.0]])
