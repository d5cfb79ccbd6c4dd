"""One metric factorization and everything derived from it.

``factorize`` diagonalizes M = V†V once and checks it; every other
factor is a view of that one eigendecomposition M = U·diag(d)·U† and
the canonical basis built with it.  The solve never forms M: QR/LQ
rounds give 2^-e·V = P·L·Q†, Jacobi diagonalizes T = L†·L, a unitary
similarity of 2^-2e·M, and Λ is assembled from P, L and T's
eigenvectors, never from V itself (``factorize`` gives the details;
the orthogonalizers of ``ortho`` return its Φ and Λ).

* canonical basis Λ = V·U·d^{-1/2} and symmetric basis Φ = Λ·U†, which
  equals V·M^{-1/2} exactly and keeps Λ = Φ·U tight to a few ulps
  however ill-conditioned M is;
* polar: V = Φ·H with H = M^{1/2} = U·diag(σ)·U†;
* reduced SVD: V = W·diag(σ)·U† with W = Λ and σ = d^{1/2} descending,
  taken from the scaled domain as 2^e·√d_T, so it keeps the bits a
  subnormal d has lost;
* SSCP principal components: S = V·V† has Λ's columns as eigenvectors
  and d as their eigenvalues, since S·Λ = Λ·diag(d).

The conversions Λ = Φ·U, Φ = Λ·U†, and Φ = W·U† move between the bases
using that shared eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, SingularMetric
from .linalg import (
    DEFAULT_TOLERANCES,
    HermitianEigen,
    ToleranceConfig,
    _phase_fixed,
    _real_valued,
    _scaled_to_unit,
    apply_phase_convention,
    as_matrix,
    hermitian_eigen,
    max_abs,
)
from .ortho import Method, OrthonormalBasis, require_unitary, verify_orthonormal


class PolarFactors(NamedTuple):
    """Right polar factorization V = Φ·H.

    ``orthonormal`` is the symmetric basis Φ (n x m), ``positive`` the
    Hermitian positive definite H = M^{1/2} (m x m).
    """

    orthonormal: OrthonormalBasis
    positive: np.ndarray


class SvdFactors(NamedTuple):
    """Reduced SVD V = W·diag(σ)·U†.

    ``left`` is n x m column-orthonormal, ``singular_values`` descending
    and non-negative, ``right`` m x m unitary.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray


@dataclass(frozen=True, eq=False)
class Factorization:
    """V with the one checked eigendecomposition of its metric.

    ``lam`` is the canonical basis Λ with the (U, d) of M = V†V attached
    as ``source_eigen``, ``sigma`` the singular values d^{1/2} of V,
    computed as 2^e·√d_T from the same solve, and ``condition`` cond(M) =
    (σ_1/σ_m)², read on the scaled σ_T so it is finite for every V
    ``factorize`` admits.  Φ, the polar factors, the
    reduced SVD, the relation product Φ·U and the principal components of
    S = V·V† are views of it, computed on first use and cached; none of
    them diagonalizes M again.  Build one with ``factorize``.

    Two factorizations are equal only when they are the same object
    (``eq=False``): the generated ``==`` and hash would compare or hash
    the array fields, which raises.
    """

    v: np.ndarray
    lam: OrthonormalBasis
    sigma: np.ndarray
    condition: float

    @property
    def eigen(self) -> HermitianEigen:
        return self.lam.source_eigen

    @cached_property
    def phi(self) -> OrthonormalBasis:
        """Symmetric basis Φ = W·U† = Λ·U† = V·M^{-1/2}, by ``symmetric_from_svd``.

        ``symmetric_orthogonalize`` returns it.
        """
        return symmetric_from_svd(self.svd)._replace(source_eigen=self.eigen)

    @cached_property
    def lambda_from_phi(self) -> np.ndarray:
        """Φ·U by ``canonical_from_symmetric``, which should give back Λ."""
        return canonical_from_symmetric(self.phi, self.eigen.eigenvectors).matrix

    @cached_property
    def polar(self) -> PolarFactors:
        """V = Φ·H with H = U·diag(σ)·U† = M^{1/2}, re-symmetrized."""
        u = self.eigen.eigenvectors
        h = (u * self.sigma) @ u.conj().T
        return PolarFactors(orthonormal=self.phi, positive=(h + h.conj().T) / 2.0)

    @cached_property
    def svd(self) -> SvdFactors:
        """V = Λ·diag(σ)·U†."""
        u = self.eigen.eigenvectors
        return SvdFactors(left=self.lam.matrix, singular_values=self.sigma, right=u)

    @cached_property
    def components(self) -> np.ndarray:
        """S = V·V†'s principal components: Λ under the phase convention.

        Column j is S's eigenvector for its j-th largest eigenvalue d_j.
        """
        return apply_phase_convention(self.lam.matrix)

    @cached_property
    def _sscp_product(self) -> tuple:
        """(F, G, ρ, σ_T) with F = 2^-e·V, G = F†·Λ, ρ_j = ‖g_j‖², σ_T = 2^-e·σ.

        Both PCA residuals read this one product of the scaled domain.
        """
        scaled, exponent = _scaled_to_unit(self.v)
        g = scaled.conj().T @ self.lam.matrix
        rho = np.sum(np.abs(g) ** 2, axis=0)
        return scaled, g, rho, np.ldexp(self.sigma, -exponent)

    def residuals(self, *names: str) -> dict:
        """The named residuals, or all of them when none is named.

        Names: phi_orthonormality, lambda_orthonormality,
        polar_reconstruction, svd_reconstruction, relation_lambda_phi_u,
        projection_sum_gap, sscp_eigenpair.
        Orthonormality is max|Z†Z - I| of Φ or Λ; reconstructions are
        relative, max|product - V| / max|V|, so 2^k·V reads what V does
        while ε·2^k·V has no subnormal part; the relation is max|Λ - Φ·U|;
        ``projection_sum_gap`` is max_j |ρ_j - σ_T,j²| / (σ_T,1·σ_T,j), with
        ρ_j = ‖F†λ_j‖² for F = 2^-e·V and σ_T = 2^-e·σ, and
        ``sscp_eigenpair`` the eigenpair backward error of Λ's columns as
        eigenvectors of S = V·V†.  Together they check the principal
        components and their scores d = σ², from one product F†·Λ.
        """
        return {name: _RESIDUALS[name][0](self) for name in names or _RESIDUALS}

    def bounds(self, *names: str) -> dict:
        """The fixed bound of each named residual, or of every one."""
        return {name: _RESIDUALS[name][1] for name in names or _RESIDUALS}


def _v_gap(f: Factorization, product: np.ndarray) -> float:
    return max_abs(product - f.v) / max_abs(f.v)


def _projection_sum_gap(f: Factorization) -> float:
    """σ_j² against λ_j's Rayleigh quotient, in the units σ_1·σ_j by which a
    normwise change of V moves σ_j² (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002), so ill-conditioning does not inflate it.
    """
    _, _, rho, sigma = f._sscp_product
    return float(np.max(np.abs(rho - sigma**2) / (sigma[0] * sigma)))


def _sscp_eigenpair(f: Factorization) -> float:
    """max|F·G - Λ·diag(ρ)| / max ρ, with F = 2^-e·V, G = F†·Λ and ρ_j = ‖g_j‖².

    ρ_j is the Rayleigh quotient of λ_j for 2^-2e·S, so S is never
    formed, and the residual is Parlett's eigenpair backward error
    (*The Symmetric Eigenvalue Problem*, SIAM 1998) relative to S's
    largest eigenvalue.  It is computed from F and Λ alone, so 2^k·V
    reads the same value bit for bit, also where d is subnormal.
    """
    scaled, g, rho, _ = f._sscp_product
    return max_abs(scaled @ g - f.lam.matrix * rho) / float(np.max(rho))


# Bound of the residuals that ToleranceConfig does not name: the
# analytic relation and both SSCP residuals are exact identities up to
# a few ulps.
RELATION_TOL = 1e-12
_ORTHONORMALITY_TOL = ToleranceConfig.orthonormality_tol
_RECONSTRUCTION_TOL = ToleranceConfig.reconstruction_tol

# name: (formula, bound)
_RESIDUALS = {
    "phi_orthonormality": (lambda f: verify_orthonormal(f.phi.matrix), _ORTHONORMALITY_TOL),
    "lambda_orthonormality": (lambda f: verify_orthonormal(f.lam.matrix), _ORTHONORMALITY_TOL),
    "polar_reconstruction": (lambda f: _v_gap(f, reconstruct_polar(f.polar)), _RECONSTRUCTION_TOL),
    "svd_reconstruction": (lambda f: _v_gap(f, reconstruct_svd(f.svd)), _RECONSTRUCTION_TOL),
    "relation_lambda_phi_u": (lambda f: max_abs(f.lam.matrix - f.lambda_from_phi), RELATION_TOL),
    "projection_sum_gap": (_projection_sum_gap, RELATION_TOL),
    "sscp_eigenpair": (_sscp_eigenpair, RELATION_TOL),
}


# QR/LQ rounds that precondition the metric solve.  Each round is one
# unshifted QR-iteration step on M and costs two QRs.  Over one window
# of the benchmark's solves (m 8-64, cond(M) 1-1e10), with sweeps that
# open on the neighbour pairs, two rounds took 225 Jacobi sweeps and
# more time, three 202, and four 184 but no time beyond the host's noise.
_QLP_ROUNDS = 3


def factorize(v, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Factorization:
    """Diagonalize and check the metric M = V†V of a full-column-rank V once.

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

    The singular values σ = d^{1/2} of V are kept as 2^e·√d_T, also
    from the scaled domain: where d is normal that is √d bit for bit,
    and where d is subnormal (V near 1e-160) it keeps the bits d lost,
    so σ(2^k·V) is 2^k·σ(V) bit for bit wherever both are computed.

    Rank is decided once, on σ_T = √max(d_T, 0), by the rule of
    ``numpy.linalg.matrix_rank``: SingularMetric, with the first failing
    index j, d_j and condition ``inf``, when σ_T,j <= max(n, m)·ε·σ_T,1
    (so a zero V too).  The rule reads the scaled domain, so 2^k·V gets
    V's verdict.  Then OverflowError, quoting max|V|, when d = 2^2e·d_T
    overflows; an underflowed d is kept as computed, as σ carries V's
    scale.  NoConvergence when the eigensolver runs out of sweeps.
    """
    v = as_matrix(v)
    scaled, exponent = _scaled_to_unit(v)
    factor, left, right = _real_valued(scaled), [], None
    for _ in range(_QLP_ROUNDS):
        p, r = np.linalg.qr(factor)
        q, l_adjoint = np.linalg.qr(r.conj().T, mode="complete")
        left.append(p)
        right = q if right is None else right @ q
        factor = l_adjoint.conj().T
    # T = L†·L as computed; hermitian_eigen symmetrizes it.  The Frobenius
    # norm of L is that of 2^-e·V, below √(2nm), so no entry of T reaches 2nm.
    reduced = hermitian_eigen(l_adjoint @ factor, cfg)
    # The checks come before Λ, whose column norms are σ_T.
    sigma = np.sqrt(np.maximum(reduced.eigenvalues, 0.0))
    cutoff = max(v.shape) * np.finfo(np.float64).eps * sigma[0]
    with np.errstate(over="ignore"):
        d = np.ldexp(reduced.eigenvalues, 2 * exponent)
    bad = np.nonzero(sigma <= cutoff)[0]
    if bad.size:
        index = int(bad[0])
        raise SingularMetric(
            f"singular value {index} = {np.ldexp(sigma[index], exponent):.6e} is at or below "
            f"the rank cutoff max(n, m)·ε·σ_0 = {np.ldexp(cutoff, exponent):.6e}",
            eigenvalue_index=index,
            eigenvalue=float(d[index]),
            condition=math.inf,
        )
    if not np.all(np.isfinite(d)):
        raise OverflowError(f"V†V overflows float64 (max|V| = {max_abs(v):.3e})")
    eigenvectors, phases = _phase_fixed(right @ reduced.eigenvectors)
    eigen = HermitianEigen(eigenvalues=d, eigenvectors=eigenvectors, sweeps=reduced.sweeps)
    w = factor @ reduced.eigenvectors
    w *= phases / np.linalg.norm(w, axis=0)
    for p in reversed(left):
        w = p @ w
    lam = OrthonormalBasis(matrix=w, method=Method.CANONICAL, source_eigen=eigen)
    condition = float((sigma[0] / sigma[-1]) ** 2)
    return Factorization(v=v, lam=lam, sigma=np.ldexp(sigma, exponent), condition=condition)


def polar_decompose(v, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> PolarFactors:
    """Factor a full-column-rank V into Φ·M^{1/2}.

    The orthonormal factor is exactly the symmetric orthogonalization of
    V; the positive factor is the Hermitian square root of the metric.
    """
    return factorize(v, cfg).polar


def reduced_svd(v, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> SvdFactors:
    """Reduced SVD of a full-column-rank V via the canonical basis.

    The left factor is the canonical basis Λ, the singular values are
    the square roots of the metric eigenvalues, and the right factor is
    the metric's eigenvector matrix, all from one eigendecomposition.
    """
    return factorize(v, cfg).svd


def canonical_from_symmetric(phi: OrthonormalBasis, u) -> OrthonormalBasis:
    """Convert a symmetric basis to the canonical one: Λ = Φ·U.

    ``u`` must be the eigenvector matrix of the metric of the original V.
    """
    if phi.method is not Method.SYMMETRIC:
        raise ValueError(f"expected a symmetric-method basis, got {phi.method}")
    u = require_unitary(u)
    if u.shape[0] != phi.matrix.shape[1]:
        raise DimensionMismatch(
            f"U must be {phi.matrix.shape[1]}x{phi.matrix.shape[1]}, got {u.shape}"
        )
    return OrthonormalBasis(
        matrix=phi.matrix @ u, method=Method.CANONICAL, source_eigen=phi.source_eigen
    )


def symmetric_from_canonical(lam: OrthonormalBasis, u) -> OrthonormalBasis:
    """Convert a canonical basis back to the symmetric one: Φ = Λ·U†."""
    if lam.method is not Method.CANONICAL:
        raise ValueError(f"expected a canonical-method basis, got {lam.method}")
    u = require_unitary(u)
    if u.shape[0] != lam.matrix.shape[1]:
        raise DimensionMismatch(
            f"U must be {lam.matrix.shape[1]}x{lam.matrix.shape[1]}, got {u.shape}"
        )
    return OrthonormalBasis(
        matrix=lam.matrix @ u.conj().T,
        method=Method.SYMMETRIC,
        source_eigen=lam.source_eigen,
    )


def symmetric_from_svd(factors: SvdFactors) -> OrthonormalBasis:
    """Recover the symmetric basis from a reduced SVD: Φ = W·U†.

    Any ambiguity inside a degenerate singular-value cluster cancels
    between W and U, so the product matches V·M^{-1/2} even then.
    """
    left = as_matrix(factors.left)
    right = as_matrix(factors.right)
    if right.shape[0] != left.shape[1]:
        raise DimensionMismatch(
            f"right factor must be {left.shape[1]}x{left.shape[1]}, got {right.shape}"
        )
    return OrthonormalBasis(matrix=left @ right.conj().T, method=Method.SYMMETRIC)


def reconstruct_polar(factors: PolarFactors) -> np.ndarray:
    """Multiply the polar factors back together: Φ·H."""
    phi = as_matrix(factors.orthonormal.matrix)
    h = as_matrix(factors.positive)
    if phi.shape[1] != h.shape[0]:
        raise DimensionMismatch(
            f"cannot multiply {phi.shape} orthonormal factor by {h.shape} positive factor"
        )
    return phi @ h


def reconstruct_svd(factors: SvdFactors) -> np.ndarray:
    """Multiply the SVD factors back together: W·diag(σ)·U†."""
    left = as_matrix(factors.left)
    right = as_matrix(factors.right)
    sigma = np.asarray(factors.singular_values, dtype=float)
    if sigma.ndim != 1 or sigma.shape[0] != left.shape[1] or right.shape[0] != sigma.shape[0]:
        raise DimensionMismatch(
            f"inconsistent SVD factor shapes {left.shape}, {sigma.shape}, {right.shape}"
        )
    return (left * sigma) @ right.conj().T
