"""Dense complex matrix core.

Everything downstream is built from the handful of primitives here:
the Gram metric M = V†V, a cyclic Jacobi eigensolver for Hermitian
matrices, and Hermitian matrix powers M^p computed through that
eigendecomposition.

Matrices are plain ``numpy`` arrays with ``complex128`` entries.  Real
input is fine everywhere; it is promoted to complex and real output
stays real to rounding.  All functions are pure and never mutate their
arguments, so values can be shared freely between threads.

Conventions, fixed once and used by every module:

* eigenvalues are sorted in descending order;
* in each eigenvector column the entry of largest modulus is made real
  and non-negative (ties broken by the lowest row index), so repeated
  runs and cross-method comparisons are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeEigenvalue,
    NoConvergence,
    NotHermitian,
    SingularMetric,
)


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances shared by every operation in the package.

    hermiticity_tol      relative bound on ``max|M - M†|`` for inputs
                         that must be Hermitian
    orthonormality_tol   bound on ``max|Z†Z - I|`` for orthonormal bases
    reconstruction_tol   relative bound on factorization round trips
    rank_tol             relative eigenvalue cutoff below which a metric
                         counts as singular
    eigen_convergence_tol  relative off-diagonal norm at which the Jacobi
                         sweep stops
    max_sweeps           hard limit on Jacobi sweeps before giving up
    """

    hermiticity_tol: float = 1e-10
    orthonormality_tol: float = 1e-10
    reconstruction_tol: float = 1e-9
    rank_tol: float = 1e-12
    eigen_convergence_tol: float = 1e-14
    max_sweeps: int = 64

    def __post_init__(self):
        for name in (
            "hermiticity_tol",
            "orthonormality_tol",
            "reconstruction_tol",
            "rank_tol",
            "eigen_convergence_tol",
        ):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")


DEFAULT_TOLERANCES = ToleranceConfig()


@dataclass(frozen=True)
class HermitianEigen:
    """Eigendecomposition M = U·diag(d)·U† of a Hermitian matrix.

    ``eigenvalues`` is real and descending; ``eigenvectors`` is unitary
    with column j paired to eigenvalue j and phase-fixed by the package
    convention.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def condition_estimate(self) -> float:
        """Ratio largest/smallest eigenvalue, ``inf`` if not positive."""
        smallest = float(self.eigenvalues[-1])
        if smallest <= 0.0:
            return math.inf
        return float(self.eigenvalues[0]) / smallest


def as_matrix(values) -> np.ndarray:
    """Coerce to a complex 2-D array, rejecting empty or non-finite input."""
    a = np.asarray(values, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError("matrix must be nonempty")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def max_abs(a) -> float:
    """Largest entry modulus, the max-norm used by every residual here."""
    return float(np.max(np.abs(a)))


def gram_metric(v) -> np.ndarray:
    """Metric (Gram) matrix M = V†V of the columns of V.

    The product is re-symmetrized, so the result is Hermitian to the
    last bit and positive semidefinite up to rounding.
    """
    v = as_matrix(v)
    m = v.conj().T @ v
    return (m + m.conj().T) / 2.0


def require_hermitian(m, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Validate Hermiticity and return an exactly symmetrized copy."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"Hermitian matrix must be square, got {a.shape}")
    deviation = max_abs(a - a.conj().T)
    bound = cfg.hermiticity_tol * (1.0 + max_abs(a))
    if deviation > bound:
        raise NotHermitian(
            f"max|M - M†| = {deviation:.3e} exceeds {bound:.3e}"
        )
    return (a + a.conj().T) / 2.0


def apply_phase_convention(u) -> np.ndarray:
    """Scale each column so its largest-modulus entry is real and >= 0.

    Ties in modulus go to the lowest row index.  This pins the free
    per-column phase of eigenvectors, making results of independent
    computations comparable entrywise.
    """
    out = np.array(u, dtype=np.complex128, copy=True)
    for j in range(out.shape[1]):
        column = out[:, j]
        k = int(np.argmax(np.abs(column)))
        pivot = column[k]
        modulus = abs(pivot)
        if modulus > 0.0:
            out[:, j] = column * (pivot.conjugate() / modulus)
            # The pivot itself is |pivot| by construction; write it
            # directly so the convention holds exactly, not to rounding.
            out[k, j] = modulus
    return out


def _off_diagonal_norm(a: np.ndarray) -> float:
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def _rotate(a: np.ndarray, u: np.ndarray, p: int, q: int) -> None:
    """One Jacobi rotation zeroing the (p, q) entry of Hermitian ``a``.

    The rotation is the complex plane rotation R with
    R[p,p]=c, R[p,q]=s, R[q,p]=-s·e^{-iφ}, R[q,q]=c·e^{-iφ} where
    a[p,q]=r·e^{iφ}; ``a`` becomes R†aR and the accumulated basis ``u``
    becomes uR.
    """
    apq = a[p, q]
    r = abs(apq)
    if r == 0.0:
        return
    phase = apq / r
    app = a[p, p].real
    aqq = a[q, q].real
    tau = (aqq - app) / (2.0 * r)
    if tau >= 0.0:
        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    conj_phase = phase.conjugate()

    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p - (s * conj_phase) * col_q
    a[:, q] = s * col_p + (c * conj_phase) * col_q
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p - (s * phase) * row_q
    a[q, :] = s * row_p + (c * phase) * row_q
    # The transformed 2x2 block is known in closed form; writing it
    # directly keeps the matrix exactly Hermitian with a zeroed pivot.
    a[p, p] = app - t * r
    a[q, q] = aqq + t * r
    a[p, q] = 0.0
    a[q, p] = 0.0

    ucol_p = u[:, p].copy()
    ucol_q = u[:, q].copy()
    u[:, p] = c * ucol_p - (s * conj_phase) * ucol_q
    u[:, q] = s * ucol_p + (c * conj_phase) * ucol_q


def hermitian_eigen(m, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> HermitianEigen:
    """Diagonalize a Hermitian matrix by cyclic Jacobi rotations.

    Parameters
    ----------
    m : array_like
        Square matrix passing the Hermiticity check of ``cfg``.
    cfg : ToleranceConfig
        Supplies the convergence target and the sweep limit.

    Returns
    -------
    HermitianEigen
        Descending eigenvalues and the phase-fixed unitary eigenvector
        matrix.

    Raises
    ------
    NotHermitian
        If the input deviates from M† beyond ``hermiticity_tol``.
    NoConvergence
        If the relative off-diagonal norm is still above
        ``eigen_convergence_tol`` after ``max_sweeps`` sweeps.
    """
    a = require_hermitian(m, cfg)
    n = a.shape[0]
    u = np.eye(n, dtype=np.complex128)
    scale = float(np.linalg.norm(a))
    if n > 1 and scale > 0.0:
        target = cfg.eigen_convergence_tol * scale
        for _ in range(cfg.max_sweeps):
            if _off_diagonal_norm(a) <= target:
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    _rotate(a, u, p, q)
        else:
            off = _off_diagonal_norm(a)
            if off > target:
                raise NoConvergence(
                    f"off-diagonal norm {off:.3e} above target {target:.3e} "
                    f"after {cfg.max_sweeps} sweeps",
                    sweeps=cfg.max_sweeps,
                    off_norm=off,
                )
    diag = np.real(np.diagonal(a)).copy()
    order = np.argsort(-diag, kind="stable")
    eigenvalues = diag[order]
    eigenvectors = apply_phase_convention(u[:, order])
    return HermitianEigen(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def require_positive_definite(
    eigen: HermitianEigen, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> None:
    """Raise SingularMetric unless all eigenvalues clear the rank cutoff.

    The cutoff is ``rank_tol`` times the largest eigenvalue; the error
    reports the first offending index, its value, and the condition
    estimate.
    """
    d = eigen.eigenvalues
    cutoff = cfg.rank_tol * float(d[0])
    bad = np.nonzero(d <= cutoff)[0]
    if bad.size:
        index = int(bad[0])
        raise SingularMetric(
            f"eigenvalue {index} = {float(d[index]):.6e} is at or below the "
            f"rank cutoff {cutoff:.6e} (condition estimate "
            f"{eigen.condition_estimate():.3e})",
            eigenvalue_index=index,
            eigenvalue=float(d[index]),
            condition=eigen.condition_estimate(),
        )


def hermitian_power(
    m, p: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Hermitian matrix power M^p = U·diag(d^p)·U†.

    ``p = -1/2`` is the orthogonalization kernel, ``p = 1/2`` the
    positive polar factor.  Non-integer or negative powers require a
    positive definite matrix (within ``rank_tol``); indefinite input
    under a non-integer power raises NegativeEigenvalue, near-singular
    input raises SingularMetric with diagnostics.
    """
    eigen = hermitian_eigen(m, cfg)
    d = eigen.eigenvalues
    p = float(p)
    non_integer = p != math.floor(p)
    if non_integer:
        negatives = np.nonzero(d < -cfg.rank_tol * float(d[0]))[0]
        if negatives.size:
            index = int(negatives[0])
            raise NegativeEigenvalue(
                f"eigenvalue {index} = {float(d[index]):.6e} is negative; "
                f"power {p} is not defined for indefinite matrices",
                eigenvalue_index=index,
                eigenvalue=float(d[index]),
            )
    if non_integer or p < 0.0:
        require_positive_definite(eigen, cfg)
    return _eigen_power(eigen, p)


def _eigen_power(eigen: HermitianEigen, p: float) -> np.ndarray:
    """U·diag(d^p)·U† from a checked eigendecomposition, re-symmetrized."""
    u = eigen.eigenvectors
    result = (u * np.power(eigen.eigenvalues, p)) @ u.conj().T
    return (result + result.conj().T) / 2.0
