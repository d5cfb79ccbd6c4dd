"""Symmetric and canonical orthogonalization.

Given a full-column-rank V (columns are the vectors), every orthonormal
basis of its column space has the form Z = V·M^{-1/2}·B for a unitary B,
where M = V†V.  B = I gives the symmetric basis Φ, the unique choice
that treats all input vectors democratically; B = U, the eigenvector
matrix of M, gives the canonical basis Λ = V·U·d^{-1/2} aligned with
the metric's eigenstructure.

Both come from one factorization of V, with Φ assembled as Λ·U†.
That expression equals V·M^{-1/2} exactly and keeps the analytic
identities Λ = Φ·U and Φ = Λ·U† tight to a few ulps regardless of how
ill-conditioned the metric is.

M itself is never formed, and Λ never multiplies V: three QR/LQ rounds
on 2^-e·V (Stewart's QLP step, each an unshifted QR-iteration step on
M) give 2^-e·V = P·L·Q† with P column-orthonormal, L triangular and Q
unitary.  The Jacobi solver diagonalizes T = L†·L = Y·diag(d_T)·Y†, so
U = Q·Y and Λ = P·(L·Y) with each column scaled to a unit vector; the
factor d_j^{-1/2} is applied as 1/‖L·y_j‖, its value in exact
arithmetic up to the power of two (``_metric_solve``).
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotUnitary
from .linalg import (
    DEFAULT_TOLERANCES,
    HermitianEigen,
    ToleranceConfig,
    _hermitian_product,
    _phase_fixed,
    _real_valued,
    _require_positive_definite,
    _scaled_back,
    _scaled_to_unit,
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


class OrthonormalBasis(NamedTuple):
    """Column-orthonormal matrix tagged with the method that built it.

    ``source_eigen`` carries the (U, d) of the metric used in the
    construction when available, so derived factorizations can reuse the
    identical eigendecomposition.
    """

    matrix: np.ndarray
    method: Method
    source_eigen: HermitianEigen | None = None


def verify_orthonormal(z) -> float:
    """max|Z†Z - I|, the orthonormality residual of Z's columns."""
    z = as_matrix(z)
    return max_abs(z.conj().T @ z - np.eye(z.shape[1]))


def require_unitary(b) -> np.ndarray:
    """Validate that B is square with max|B†B - I| <= 1e-12 * dim."""
    b = as_matrix(b)
    if b.shape[0] != b.shape[1]:
        raise DimensionMismatch(f"unitary matrix must be square, got {b.shape}")
    residual = verify_orthonormal(b)
    bound = UNITARY_TOL * b.shape[0]
    if residual > bound:
        raise NotUnitary(f"max|B†B - I| = {residual:.3e} exceeds {bound:.3e}")
    return b


# QR/LQ rounds that precondition the metric solve.  Each round is one
# unshifted QR-iteration step on M and costs two QRs; on the
# benchmark's solves (m 8-64, cond(M) 1-1e10) three rounds took fewer
# Jacobi sweeps than two at a net gain, and a fourth gained nothing more.
_QLP_ROUNDS = 3


def _metric_solve(v: np.ndarray, cfg: ToleranceConfig) -> tuple:
    """The checked eigendecomposition of M = V†V, the canonical basis Λ and σ.

    M is never formed.  V is scaled by 2^-e (e the ``frexp`` exponent of
    its largest real or imaginary part) to F = 2^-e·V, and
    ``numpy.linalg.qr`` runs ``_QLP_ROUNDS`` rounds of Stewart's QLP step
    (SISC 20, 1999), keeping both sides: F = P_i·R_i, the LQ
    factorization R_i = L_i·Q_i† comes from the QR of R_i† (complete, so
    Q_i is m x m), and F ← L_i.  After the last round
    F = P·L₃·Q† with P = P₁·P₂·P₃ (orthonormal columns) and
    Q = Q₁·Q₂·Q₃, so 2^-2e·M = Q·T·Q† with T = L₃†·L₃.  The Jacobi
    solver diagonalizes T = Y·diag(d_T)·Y†: M's eigenvectors are
    U = Q·Y, phase-fixed, and its eigenvalues d = 2^2e·d_T.  Each round is
    an unshifted QR-iteration step on M that moves its spectrum toward
    T's diagonal, so Jacobi needs fewer sweeps.

    Λ = V·U·d^{-1/2} = P·(L₃·Y)·diag(f_j/‖L₃·y_j‖), where f_j is the
    phase factor the convention put on column j of Q·Y; assembling the
    left vectors from the QR factors and the triangular factor's
    eigenvectors is Drmač & Veselić's route (SIMAX 29, 2008).  Λ never
    multiplies V itself, so its orthonormality does not grow as
    ε·cond(V).  A real-valued V is factored in float64.  Everything but d is
    computed from F, so 2^k·V gives the same U and Λ bit for bit, and
    only d itself can overflow or underflow.

    The singular values σ = d^{1/2} of V are returned as 2^e·√d_T, also
    from the scaled domain: where d is normal that is √d bit for bit,
    and where d is subnormal (V near 1e-160) it keeps the bits d lost,
    so σ(2^k·V) is 2^k·σ(V) bit for bit wherever both are computed.
    """
    scaled, exponent = _scaled_to_unit(v)
    factor, left, right = _real_valued(scaled), [], None
    for _ in range(_QLP_ROUNDS):
        p, r = np.linalg.qr(factor)
        q, l_adjoint = np.linalg.qr(r.conj().T, mode="complete")
        left.append(p)
        right = q if right is None else right @ q
        factor = l_adjoint.conj().T
    reduced = hermitian_eigen(_hermitian_product(l_adjoint), cfg)
    eigenvectors, phases = _phase_fixed(right @ reduced.eigenvectors)
    eigen = HermitianEigen(
        eigenvalues=_scaled_back(reduced.eigenvalues, exponent, v),
        eigenvectors=eigenvectors,
        sweeps=reduced.sweeps,
    )
    _require_positive_definite(eigen, cfg)
    w = factor @ reduced.eigenvectors
    w *= phases / np.linalg.norm(w, axis=0)
    for p in reversed(left):
        w = p @ w
    return eigen, w, np.ldexp(np.sqrt(reduced.eigenvalues), exponent)


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
    eigen, lam, _ = _metric_solve(v, cfg)
    phi = lam @ eigen.eigenvectors.conj().T
    return OrthonormalBasis(matrix=phi, method=Method.SYMMETRIC, source_eigen=eigen)


def canonical_orthogonalize(
    v, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> OrthonormalBasis:
    """Canonical orthogonalization Λ = V·U·d^{-1/2}.

    Column j of Λ pairs with the j-th largest metric eigenvalue; the
    (U, d) used are attached as ``source_eigen``.
    """
    v = as_matrix(v)
    eigen, lam, _ = _metric_solve(v, cfg)
    return OrthonormalBasis(matrix=lam, method=Method.CANONICAL, source_eigen=eigen)
