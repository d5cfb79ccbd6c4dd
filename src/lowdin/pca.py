"""Principal component analysis on the raw SSCP matrix.

The SSCP (sums of squares and cross products) matrix S = V·V† is the
covariance matrix without mean subtraction; keeping the mean in is what
makes its eigenvectors coincide with the canonical orthonormal basis.
Nonzero eigenvalues of S equal those of the metric M = V†V, and the
projection-square sums of V's columns onto the canonical basis recover
exactly those eigenvalues.

S has rank at most k = min(n, m), so ``principal_components`` never
diagonalizes the n x n matrix itself: ``numpy.linalg.qr`` (LAPACK)
factors 2^-e·V = Q·R, and the Jacobi solver ``hermitian_eigen``
diagonalizes the k x k matrix T = R_k·R_k†.  The power of two keeps T
in range, so only S's eigenvalues themselves can overflow.  The QR is
a preconditioner (Drmač & Veselić, SIMAX 29, 2008); the
eigendecomposition is still the hand-rolled Jacobi one.  T differs
from M = R†R, so the spectrum comparison
(``Factorization.residuals("gram_sscp_gap")``) pairs two separate
solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import (
    DEFAULT_TOLERANCES,
    HermitianEigen,
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


@dataclass(frozen=True)
class SscpResult:
    """Eigendecomposition of the SSCP matrix and the retained components.

    ``components`` holds the first min(n, m) eigenvectors of S in
    descending eigenvalue order; ``component_scores`` the matching
    eigenvalues.  The full eigendecomposition stays available in
    ``eigen``.
    """

    eigen: HermitianEigen
    components: np.ndarray
    component_scores: np.ndarray


def principal_components(v, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> SscpResult:
    """Eigenvectors of the SSCP matrix, descending, phase-fixed.

    S = V·V† has rank at most k = min(n, m), so it is diagonalized
    through F = 2^-e·V = Q·R (e the ``frexp`` exponent of V's largest
    real or imaginary part; ``numpy.linalg.qr``, complete, in float64
    for a real-valued V): 2^-2e·S = Q·diag(T, 0)·Q† with T = R_k·R_k†
    for the first k rows R_k of R.  Only the k x k matrix T goes to the
    Jacobi solver; its eigenvectors Y give those of S as
    Q·blockdiag(Y, I), and its eigenvalues, scaled back by 2^2e, are
    followed by n - k exact zeros.  The QR is a preconditioner only; the
    eigendecomposition is ``hermitian_eigen``'s, and ``sweeps`` counts
    its sweeps on T.  Raises OverflowError only if an eigenvalue of S
    leaves the float64 range.

    For square nonsingular V these columns equal the canonical
    orthonormal basis once both carry the shared phase convention.
    """
    v = as_matrix(v)
    n, m = v.shape
    retained = min(n, m)
    scaled, exponent = _scaled_to_unit(v)
    q, r = np.linalg.qr(_real_valued(scaled), mode="complete")
    reduced = hermitian_eigen(_hermitian_product(r[:retained]), cfg)
    scores = _scaled_back(reduced.eigenvalues, exponent, "V·V†", v)
    values = np.concatenate((scores, np.zeros(n - retained)))
    # A rank-deficient T can end on a tiny negative eigenvalue, which
    # belongs after the padded zeros.
    order = np.argsort(-values, kind="stable")
    vectors = q.astype(np.complex128)
    vectors[:, :retained] = q[:, :retained] @ reduced.eigenvectors
    eigen = HermitianEigen(
        eigenvalues=values[order],
        eigenvectors=apply_phase_convention(vectors[:, order]),
        sweeps=reduced.sweeps,
    )
    return SscpResult(
        eigen=eigen,
        components=eigen.eigenvectors[:, :retained],
        component_scores=eigen.eigenvalues[:retained],
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
