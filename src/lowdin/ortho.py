"""Symmetric and canonical orthogonalization.

Given a full-column-rank V (columns are the vectors), every orthonormal
basis of its column space has the form Z = V·M^{-1/2}·B for a unitary B,
where M = V†V.  B = I gives the symmetric basis Φ, the unique choice
that treats all input vectors democratically; B = U, the eigenvector
matrix of M, gives the canonical basis Λ = V·U·d^{-1/2} aligned with
the metric's eigenstructure.

Both are views of the one factorization ``decompositions.factorize``
builds, whose docstring describes the metric solve: Λ is its canonical
basis and Φ is assembled as Λ·U†.  This module keeps the basis type,
its orthonormality and unitarity checks, and the two orthogonalizers.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotUnitary
from .linalg import DEFAULT_TOLERANCES, HermitianEigen, ToleranceConfig, as_matrix, max_abs
# perfbench/selftest.py reads lowdin.ortho.hermitian_eigen, so the name stays bound here.
from .linalg import hermitian_eigen  # noqa: F401

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


def symmetric_orthogonalize(
    v, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> OrthonormalBasis:
    """Symmetric orthogonalization Φ = V·M^{-1/2}: ``factorize(v, cfg).phi``.

    Parameters
    ----------
    v : array_like
        n x m matrix of full column rank by ``factorize``'s rank rule.

    Returns
    -------
    OrthonormalBasis
        Φ = Λ·U† with ``method=SYMMETRIC`` and the metric
        eigendecomposition attached.

    Raises
    ------
    SingularMetric
        If V fails the rank rule, with its diagnostics.
    """
    from .decompositions import factorize

    return factorize(v, cfg).phi


def canonical_orthogonalize(
    v, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> OrthonormalBasis:
    """Canonical orthogonalization Λ = V·U·d^{-1/2}: ``factorize(v, cfg).lam``.

    Column j of Λ pairs with the j-th largest metric eigenvalue; the
    (U, d) used are attached as ``source_eigen``.
    """
    from .decompositions import factorize

    return factorize(v, cfg).lam
