"""Symmetric and canonical orthogonalization.

Given a full-column-rank V (columns are the vectors), every orthonormal
basis of its column space has the form Z = V·M^{-1/2}·B for a unitary B,
where M = V†V.  B = I gives the symmetric basis Φ, the unique choice
that treats all input vectors democratically; B = U, the eigenvector
matrix of M, gives the canonical basis Λ = V·U·d^{-1/2} aligned with
the metric's eigenstructure.

Both are computed from one shared eigendecomposition of M, with Φ
assembled as (V·U·d^{-1/2})·U†.  That expression equals V·M^{-1/2}
exactly and keeps the analytic identities Λ = Φ·U and Φ = Λ·U† tight to
a few ulps regardless of how ill-conditioned the metric is.  The factor
d_j^{-1/2} is applied as 1/‖V·u_j‖, its value in exact arithmetic, so
every column of Λ is a unit vector to rounding.

M itself is never formed: three QR/LQ rounds on 2^-e·V (Stewart's QLP
step, each an unshifted QR-iteration step on M) leave a triangular L
and a unitary Q with T = L†·L = Q†·(2^-2e·M)·Q, the Jacobi solver
diagonalizes T, and U = Q·Y carries T's eigenvectors Y back
(``_metric_eigen``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotUnitary
from .linalg import (
    DEFAULT_TOLERANCES,
    HermitianEigen,
    ToleranceConfig,
    _hermitian_product,
    _real_valued,
    _require_positive_definite,
    _scaled_back,
    _scaled_to_unit,
    apply_phase_convention,
    as_matrix,
    hermitian_eigen,
    max_abs,
)

# Unitarity residual bound per matrix dimension, matching the eigenvector
# matrix contract of the eigensolver.
UNITARY_TOL = 1e-12


class Method(enum.Enum):
    """How an orthonormal basis was produced."""

    SYMMETRIC = "symmetric"
    CANONICAL = "canonical"


@dataclass(frozen=True)
class OrthonormalBasis:
    """Column-orthonormal matrix tagged with the method that built it.

    ``source_eigen`` carries the (U, d) of the metric used in the
    construction when available, so derived factorizations can reuse the
    identical eigendecomposition.
    """

    matrix: np.ndarray
    method: Method
    source_eigen: HermitianEigen | None = None


@dataclass(frozen=True)
class OrthonormalityReport:
    """Result of the Z†Z = I check: max residual and a pass flag."""

    residual: float
    passed: bool


def verify_orthonormal(
    z, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> OrthonormalityReport:
    """Report max|Z†Z - I| and whether it clears ``orthonormality_tol``.

    A failing matrix yields ``passed=False``, never an exception.
    """
    z = as_matrix(z)
    product = z.conj().T @ z
    residual = max_abs(product - np.eye(z.shape[1]))
    return OrthonormalityReport(residual=residual, passed=residual <= cfg.orthonormality_tol)


def require_unitary(b) -> np.ndarray:
    """Validate that B is square with max|B†B - I| <= 1e-12 * dim."""
    b = as_matrix(b)
    if b.shape[0] != b.shape[1]:
        raise DimensionMismatch(f"unitary matrix must be square, got {b.shape}")
    residual = max_abs(b.conj().T @ b - np.eye(b.shape[0]))
    bound = UNITARY_TOL * b.shape[0]
    if residual > bound:
        raise NotUnitary(f"max|B†B - I| = {residual:.3e} exceeds {bound:.3e}")
    return b


# QR/LQ rounds that precondition the metric solve.  Each round is one
# unshifted QR-iteration step on M and costs two m x m QRs; on the
# benchmark's solves (m 8-64, cond(M) 1-1e10) three rounds took fewer
# Jacobi sweeps than two at a net gain, and a fourth gained nothing more.
_QLP_ROUNDS = 3


def _metric_eigen(v: np.ndarray, cfg: ToleranceConfig) -> HermitianEigen:
    """The checked eigendecomposition of M = V†V, without forming V†V.

    V is scaled by 2^-e (e the ``frexp`` exponent of its largest real or
    imaginary part) to F = 2^-e·V, so 2^-2e·M = F†F, and
    ``numpy.linalg.qr`` runs ``_QLP_ROUNDS`` rounds of Stewart's QLP
    step (SISC 20, 1999): F = Q'·R keeps only R, its LQ factorization
    R = L_i·Q_i† comes from the QR of R† (complete, so Q_i is m x m), and
    F ← L_i.  A round replaces F†F by L_i†·L_i = Q_i†·F†F·Q_i, so after
    the last round 2^-2e·M = Q·T·Q† with Q = Q₁·Q₂·Q₃ and T = L₃†·L₃.
    The Jacobi solver diagonalizes T = Y·diag(d_T)·Y†: M's eigenvectors
    are Q·Y and its eigenvalues 2^2e·d_T.  The QRs are a preconditioner
    only (Drmač & Veselić, SIMAX 29, 2008): each round is an unshifted
    QR-iteration step on M that moves its spectrum toward T's diagonal,
    so Jacobi needs fewer sweeps, and the factors lose accuracy about as
    ε·cond(V) rather than ε·cond(M).  A real-valued V is factored in
    float64.  The power of two is exact, so 2^k·V gives the same U bit
    for bit, and only d itself can overflow.
    """
    scaled, exponent = _scaled_to_unit(v)
    factor, basis = _real_valued(scaled), None
    for _ in range(_QLP_ROUNDS):
        r = np.linalg.qr(factor, mode="r")
        q, l_adjoint = np.linalg.qr(r.conj().T, mode="complete")
        basis = q if basis is None else basis @ q
        factor = l_adjoint.conj().T
    reduced = hermitian_eigen(_hermitian_product(l_adjoint, "L†·L", "L"), cfg)
    eigen = HermitianEigen(
        eigenvalues=_scaled_back(reduced.eigenvalues, exponent, "V†V", v),
        eigenvectors=apply_phase_convention(basis @ reduced.eigenvectors),
        sweeps=reduced.sweeps,
    )
    _require_positive_definite(eigen, cfg)
    return eigen


def _canonical_matrix(v: np.ndarray, eigen: HermitianEigen) -> np.ndarray:
    """Λ = V·U·d^{-1/2}, with column j of V·U scaled by 1/‖V·u_j‖.

    ‖V·u_j‖² = u_j†·M·u_j = d_j in exact arithmetic (the projection
    square sums of V on Λ are the metric eigenvalues), so this is the
    same Λ; dividing by the computed norm makes every column a unit
    vector to rounding, which the rounding in d_j alone would not.
    Columns arrive ordered by descending eigenvalue because the
    eigendecomposition is.
    """
    w = v @ eigen.eigenvectors
    return w / np.linalg.norm(w, axis=0)


def _symmetric_matrix(v: np.ndarray, eigen: HermitianEigen) -> np.ndarray:
    return _canonical_matrix(v, eigen) @ eigen.eigenvectors.conj().T


def symmetric_orthogonalize(
    v, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> OrthonormalBasis:
    """Symmetric orthogonalization Φ = V·M^{-1/2}.

    Parameters
    ----------
    v : array_like
        n x m matrix of full column rank within ``rank_tol``.

    Returns
    -------
    OrthonormalBasis
        Φ with ``method=SYMMETRIC`` and the metric eigendecomposition
        attached.

    Raises
    ------
    SingularMetric
        If the metric fails the rank cutoff, with condition diagnostics.
    """
    v = as_matrix(v)
    eigen = _metric_eigen(v, cfg)
    phi = _symmetric_matrix(v, eigen)
    return OrthonormalBasis(matrix=phi, method=Method.SYMMETRIC, source_eigen=eigen)


def canonical_orthogonalize(
    v, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> OrthonormalBasis:
    """Canonical orthogonalization Λ = V·U·d^{-1/2}.

    Column j of Λ pairs with the j-th largest metric eigenvalue; the
    (U, d) used are attached as ``source_eigen``.
    """
    v = as_matrix(v)
    eigen = _metric_eigen(v, cfg)
    lam = _canonical_matrix(v, eigen)
    return OrthonormalBasis(matrix=lam, method=Method.CANONICAL, source_eigen=eigen)
