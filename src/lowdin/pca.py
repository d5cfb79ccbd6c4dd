"""Principal component analysis on the raw SSCP matrix.

The SSCP (sums of squares and cross products) matrix S = V·V† is the
covariance matrix without mean subtraction; keeping the mean in is what
makes its eigenvectors coincide with the canonical orthonormal basis.
Nonzero eigenvalues of S equal those of the metric M = V†V, and the
projection-square sums of V's columns onto the canonical basis recover
exactly those eigenvalues.

S has rank at most k = min(n, m), so ``principal_components`` never
diagonalizes the n x n matrix itself: ``numpy.linalg.qr`` (LAPACK)
factors V = Q·R, and the Jacobi solver ``hermitian_eigen`` diagonalizes
the k x k matrix T = R_k·R_k†.  The QR is a preconditioner (Drmač &
Veselić, SIMAX 29, 2008); the eigendecomposition is still the
hand-rolled Jacobi one.  T differs from M = R†R, so the spectrum
comparison pairs two separate solves.
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
    apply_phase_convention,
    as_matrix,
    gram_metric,
    hermitian_eigen,
)
from .ortho import OrthonormalBasis


@dataclass(frozen=True)
class SscpResult:
    """SSCP matrix, its eigendecomposition, and the retained components.

    ``components`` holds the first min(n, m) eigenvectors of S in
    descending eigenvalue order; ``component_scores`` the matching
    eigenvalues.  The full eigendecomposition stays available in
    ``eigen``.
    """

    sscp: np.ndarray
    eigen: HermitianEigen
    components: np.ndarray
    component_scores: np.ndarray


@dataclass(frozen=True)
class EquivalenceReport:
    """Spectra of V†V and V·V† side by side.

    ``max_relative_gap`` compares the m metric eigenvalues against the m
    largest SSCP eigenvalues; ``extra_zero_count`` counts trailing SSCP
    eigenvalues under the rank cutoff (n - m of them for full-rank V).
    """

    gram_eigenvalues: np.ndarray
    sscp_eigenvalues: np.ndarray
    max_relative_gap: float
    extra_zero_count: int


def sscp_matrix(v) -> np.ndarray:
    """SSCP matrix S = V·V†, re-symmetrized.

    Diagonal entries are the sums of squares of each coordinate across
    the input vectors, off-diagonal entries the sums of cross products.
    Raises OverflowError if an entry leaves the float64 range.
    """
    v = as_matrix(v)
    return _hermitian_product(v, v.conj().T, "V·V†")


def principal_components(v, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> SscpResult:
    """Eigenvectors of the SSCP matrix, descending, phase-fixed.

    S = V·V† has rank at most k = min(n, m), so it is diagonalized
    through V = Q·R (``numpy.linalg.qr``, complete): S = Q·diag(T, 0)·Q†
    with T = R_k·R_k† for the first k rows R_k of R.  Only the k x k
    matrix T goes to the Jacobi solver; its eigenvectors Y give those of
    S as Q·blockdiag(Y, I), and its eigenvalues are followed by n - k
    exact zeros.  The QR is a preconditioner only; the eigendecomposition
    is ``hermitian_eigen``'s, and ``sweeps`` counts its sweeps on T.

    For square nonsingular V these columns equal the canonical
    orthonormal basis once both carry the shared phase convention.
    """
    v = as_matrix(v)
    sscp = sscp_matrix(v)
    n, m = v.shape
    retained = min(n, m)
    q, r = np.linalg.qr(v, mode="complete")
    top = r[:retained]
    reduced = hermitian_eigen(_hermitian_product(top, top.conj().T, "R·R†"), cfg)
    values = np.concatenate((reduced.eigenvalues, np.zeros(n - retained)))
    # A rank-deficient T can end on a tiny negative eigenvalue, which
    # belongs after the padded zeros.
    order = np.argsort(-values, kind="stable")
    vectors = q.copy()
    vectors[:, :retained] = q[:, :retained] @ reduced.eigenvectors
    eigen = HermitianEigen(
        eigenvalues=values[order],
        eigenvectors=apply_phase_convention(vectors[:, order]),
        sweeps=reduced.sweeps,
    )
    return SscpResult(
        sscp=sscp,
        eigen=eigen,
        components=eigen.eigenvectors[:, :retained],
        component_scores=eigen.eigenvalues[:retained],
    )


def gram_sscp_eigenvalue_check(
    v, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> EquivalenceReport:
    """Compare the spectra of the metric V†V and the SSCP V·V†.

    Requires n >= m (vectors at least as long as they are many).  M is
    diagonalized here and S through ``principal_components``;
    ``compare_spectra`` does the pairing and raises DimensionMismatch
    for n < m.
    """
    v = as_matrix(v)
    gram_eigen = hermitian_eigen(gram_metric(v), cfg)
    sscp_eigen = principal_components(v, cfg).eigen
    return compare_spectra(gram_eigen.eigenvalues, sscp_eigen.eigenvalues, cfg)


def compare_spectra(
    gram_eigenvalues, sscp_eigenvalues, cfg: ToleranceConfig = DEFAULT_TOLERANCES
) -> EquivalenceReport:
    """Pair the m metric eigenvalues with the m largest SSCP eigenvalues.

    Both spectra are descending, as ``hermitian_eigen`` returns them, and
    the SSCP one is at least as long.  The remaining n - m SSCP
    eigenvalues should sit at zero.
    """
    g = np.asarray(gram_eigenvalues, dtype=float)
    s = np.asarray(sscp_eigenvalues, dtype=float)
    m = g.shape[0]
    if s.shape[0] < m:
        raise DimensionMismatch(f"need at least as many rows as columns, got {s.shape[0]}x{m}")
    paired = s[:m]
    with np.errstate(divide="ignore", invalid="ignore"):
        gaps = np.abs(paired - g) / np.abs(g)
    gaps = np.where(g == 0.0, np.abs(paired - g), gaps)
    largest = float(s[0]) if s.size else 0.0
    extra = int(np.sum(np.abs(s[m:]) <= cfg.rank_tol * max(largest, 1.0)))
    return EquivalenceReport(
        gram_eigenvalues=g,
        sscp_eigenvalues=s,
        max_relative_gap=float(np.max(gaps)),
        extra_zero_count=extra,
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
