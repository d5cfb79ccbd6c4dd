"""Principal component analysis on the raw SSCP matrix, as a view of Λ.

The SSCP (sums of squares and cross products) matrix S = V·V† is the
covariance matrix without mean subtraction; keeping the mean in is what
makes its eigenvectors coincide with the canonical orthonormal basis.
For a full-column-rank V, S·Λ = V·(V†V)·U·d^{-1/2} = Λ·diag(d): the
columns of Λ = V·U·d^{-1/2} are S's principal components and the metric
eigenvalues d their scores, so no second eigendecomposition is needed.
``Factorization.components`` is Λ phase-fixed, and two of its residuals
check the claim: ``sscp_eigenpair`` is the eigenpair backward error of
Λ for S, and ``projection_sum_gap`` compares d with the
projection-square sums of V's columns on Λ, which are the Rayleigh
quotients λ_j†·S·λ_j.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .linalg import as_matrix
# perfbench/selftest.py reads lowdin.pca.hermitian_eigen, so the name stays bound here.
from .linalg import hermitian_eigen  # noqa: F401
from .ortho import OrthonormalBasis


def projection_square_sums(v, basis) -> np.ndarray:
    """Sum of squared projections of V's columns onto each basis vector.

    Entry j is Σ_k |⟨b_j, v_k⟩|².  On the canonical basis these sums are
    the metric eigenvalues; summed over any basis spanning V's column
    space they equal trace(M).
    """
    v = as_matrix(v)
    b = as_matrix(basis.matrix if isinstance(basis, OrthonormalBasis) else basis)
    if b.shape[0] != v.shape[0]:
        raise DimensionMismatch(
            f"basis has {b.shape[0]} rows but the vectors have {v.shape[0]}"
        )
    overlaps = b.conj().T @ v
    return np.sum(np.abs(overlaps) ** 2, axis=1)

