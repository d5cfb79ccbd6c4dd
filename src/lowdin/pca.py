"""Principal component analysis on the raw SSCP matrix.

The SSCP (sums of squares and cross products) matrix S = V·V† is the
covariance matrix without mean subtraction; keeping the mean in is what
makes its eigenvectors coincide with the canonical orthonormal basis.
Nonzero eigenvalues of S equal those of the metric M = V†V, and the
projection-square sums of V's columns onto the canonical basis recover
exactly those eigenvalues.

S has rank at most k = min(n, m), so ``principal_components`` never
diagonalizes the n x n matrix itself and returns only its k leading
components: ``numpy.linalg.qr`` (LAPACK, reduced) factors 2^-e·V = Q·R,
and the Jacobi solver ``hermitian_eigen`` diagonalizes the k x k matrix
T = R·R†.  The power of two keeps T in range, so only S's eigenvalues
themselves can overflow.  The QR is a preconditioner (Drmač & Veselić,
SIMAX 29, 2008); the eigendecomposition is still the hand-rolled Jacobi
one.  T differs from M = R†R, so the spectrum comparison
(``Factorization.residuals("gram_sscp_gap")``) pairs two separate
solves.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .linalg import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    _hermitian_product,
    _real_valued,
    _scaled_back,
    _scaled_to_unit,
    apply_phase_convention,
    as_matrix,
    hermitian_eigen,
)
from .ortho import OrthonormalBasis


class SscpResult(NamedTuple):
    """The k = min(n, m) principal components of S = V·V†.

    ``components`` (n x k, orthonormal columns) are S's eigenvectors for
    its k largest eigenvalues, descending and phase-fixed;
    ``component_scores`` are those eigenvalues, and ``sweeps`` counts the
    Jacobi sweeps of the k x k solve.  The other n - k eigenvalues of S
    are 0 and are not returned.
    """

    components: np.ndarray
    component_scores: np.ndarray
    sweeps: int


def principal_components(v, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> SscpResult:
    """The k = min(n, m) leading eigenvectors of the SSCP matrix S = V·V†.

    S has rank at most k, so it is diagonalized through the reduced QR
    F = 2^-e·V = Q·R (e the ``frexp`` exponent of V's largest real or
    imaginary part; ``numpy.linalg.qr`` in float64 for a real-valued V):
    2^-2e·S = Q·T·Q† with the k x k T = R·R†.  The Jacobi solver
    diagonalizes T = Y·diag(d_T)·Y†; the components are Q·Y, phase-fixed,
    and their scores 2^2e·d_T.  The QR is a preconditioner only; the
    eigendecomposition is ``hermitian_eigen``'s.  Raises OverflowError
    only if an eigenvalue of S leaves the float64 range.

    For square nonsingular V these columns equal the canonical
    orthonormal basis once both carry the shared phase convention.
    """
    v = as_matrix(v)
    scaled, exponent = _scaled_to_unit(v)
    q, r = np.linalg.qr(_real_valued(scaled))
    reduced = hermitian_eigen(_hermitian_product(r), cfg)
    return SscpResult(
        components=apply_phase_convention(q @ reduced.eigenvectors),
        component_scores=_scaled_back(reduced.eigenvalues, exponent, "V·V†", v),
        sweeps=reduced.sweeps,
    )


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
