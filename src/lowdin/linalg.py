"""Dense complex matrix core.

Everything downstream is built from the handful of primitives here: a
Jacobi eigensolver for Hermitian matrices and the Hermitian product a·a†
that forms the matrices it diagonalizes.  No factor forms the Gram
metric M = V†V itself: ``ortho`` diagonalizes L†·L after QR/LQ rounds
on V instead.

The eigensolver sweeps in round-robin order (Brent & Luk, SIAM J. Sci.
Stat. Comput. 6(1), 1985): each sweep is n - 1 steps (n for odd n),
and each step rotates n // 2 disjoint index pairs together with a few
whole-array numpy operations.  Odd n is padded with a zero dummy index;
its pair is the last of every step and is never rotated.  One call of
``_sweep`` runs a whole sweep: it allocates its gather buffers and
rotation parameters once, and each step writes into them with ``out=``,
so per-step cost is the numpy calls themselves.  The input is first
scaled by an exact power of two, so entries up to the overflow
threshold are diagonalized, and the eigenvectors of 2^k·M are those of
M bit for bit while the entries of 2^k·M stay normal numbers.  Pivots
below the normal range, zero or subnormal entries of M itself (never
the dummy's), get no rotation and are set to zero.  Once the
off-diagonal norm meets its target, one polish sweep follows, and it
rotates only the steps that still hold a pair failing the relative test
|a_pq| <= ε·√|a_pp·a_qq| (Demmel & Veselić, SIMAX 13, 1992); when
every pair passes, it does not run at all.

Matrices are plain ``numpy`` arrays; ``as_matrix`` gives them
``complex128`` entries, and eigenvectors are returned as ``complex128``.
Inside the eigensolver the work array follows the data: a matrix whose
imaginary parts are all zero is rotated in ``float64``, any other in
``complex128``, by the same sweep code, whose rotations use real
arithmetic only (``_real_valued`` is the rule, and the QRs that
precondition the metric solve follow it too).  All functions
are pure and never mutate their arguments, so values can be shared
freely between threads; the solver's work arrays belong to one call
and are never cached, so solves may also run in several threads at
once.

Conventions, fixed once and used by every module:

* eigenvalues are sorted in descending order;
* in each eigenvector column the entry of largest modulus is made real
  and non-negative (ties broken by the lowest row index), so repeated
  runs and cross-method comparisons are deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, SingularMetric


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances shared by every operation in the package.

    orthonormality_tol   bound on ``max|Z†Z - I|`` for orthonormal bases
    reconstruction_tol   relative bound on factorization round trips
    rank_tol             relative eigenvalue cutoff below which a metric
                         counts as singular
    eigen_convergence_tol  relative off-diagonal norm at which the Jacobi
                         sweeps stop, after one more polish sweep unless
                         every pair already has |a_pq| <= ε·√|a_pp·a_qq|;
                         the polish rotates only the steps holding a pair
                         that does not
    max_sweeps           hard limit on Jacobi sweeps before giving up
    """

    orthonormality_tol: float = 1e-10
    reconstruction_tol: float = 1e-9
    rank_tol: float = 1e-12
    eigen_convergence_tol: float = 1e-14
    max_sweeps: int = 64

    def __post_init__(self):
        for name in (
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

# Relative bound on max|M - M†| for input that must be Hermitian.
HERMITICITY_TOL = 1e-10

_EPS = np.finfo(np.float64).eps


class HermitianEigen(NamedTuple):
    """Eigendecomposition M = U·diag(d)·U† of a Hermitian matrix.

    ``eigenvalues`` is real and descending; ``eigenvectors`` is unitary
    with column j paired to eigenvalue j and phase-fixed by the package
    convention.  ``sweeps`` is the number of Jacobi sweeps the solver
    ran, the polish sweep included: the sweeps that met the target, plus
    one unless every pair already passed the relative test then.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sweeps: int = 0

    def condition_estimate(self) -> float:
        """Ratio largest/smallest eigenvalue, ``inf`` if singular to rounding.

        The matrix counts as singular when d_min <= len(d)·ε·d_max, the
        rounding floor of the solver, so an exactly singular input reads
        ``inf`` whether its smallest computed eigenvalue came out as 0,
        negative or a tiny positive number.
        """
        largest, smallest = float(self.eigenvalues[0]), float(self.eigenvalues[-1])
        if smallest <= len(self.eigenvalues) * _EPS * largest:
            return math.inf
        return largest / smallest


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


def _hermitian_product(a: np.ndarray) -> np.ndarray:
    """The re-symmetrized product a·a†.

    Callers pass a triangular factor from QRs of 2^-e·V
    (``_scaled_to_unit``) for an n x m V.  Its Frobenius norm is that of
    2^-e·V, below √(2nm), so no entry of the product reaches 2nm.
    """
    p = a @ a.conj().T
    return (p + p.conj().T) / 2.0


def _scaled_to_unit(a: np.ndarray) -> tuple:
    """(2^-e·a, e), with e the ``frexp`` exponent of a's largest real or imaginary part.

    The largest part of the result lies in [1/2, 1).  Scaling by a power
    of two changes no entry that stays normal, so 2^k·a gives the same
    scaled matrix bit for bit.
    """
    parts = np.ascontiguousarray(a).view(np.float64)
    exponent = math.frexp(max_abs(parts))[1]
    return np.ldexp(parts, -exponent).view(np.complex128), exponent


def _scaled_back(d: np.ndarray, exponent: int, v: np.ndarray) -> np.ndarray:
    """2^2e·d: eigenvalues of V†V from those of 2^-e·V's metric.

    Raises OverflowError, quoting max|V|, if one leaves the float64 range.
    """
    with np.errstate(over="ignore"):
        d = np.ldexp(d, 2 * exponent)
    if not np.all(np.isfinite(d)):
        raise OverflowError(f"V†V overflows float64 (max|V| = {max_abs(v):.3e})")
    return d


def _real_valued(a: np.ndarray) -> np.ndarray:
    """``a.real`` when no imaginary part of ``a`` is nonzero, else ``a`` itself.

    Dropping imaginary parts that are all zero changes no value, and
    float64 arithmetic costs a fraction of complex128's.
    """
    return a if np.any(a.imag) else a.real


def _check_hermitian(m) -> np.ndarray:
    """The square matrix of ``m`` as given, once it passes the Hermiticity check.

    The bound, HERMITICITY_TOL·max|M|, scales with M, so the verdict
    on 2^k·M is the verdict on M.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"Hermitian matrix must be square, got {a.shape}")
    deviation = max_abs(a - a.conj().T)
    bound = HERMITICITY_TOL * max_abs(a)
    if deviation > bound:
        raise NotHermitian(
            f"max|M - M†| = {deviation:.3e} exceeds {bound:.3e}"
        )
    return a


def apply_phase_convention(u) -> np.ndarray:
    """Scale each column so its largest-modulus entry is real and >= 0.

    Ties in modulus go to the lowest row index.  This pins the free
    per-column phase of eigenvectors, making results of independent
    computations comparable entrywise.
    """
    return _phase_fixed(u)[0]


def _phase_fixed(u) -> tuple:
    """``apply_phase_convention(u)`` and the unit factor it put on each column.

    Every column j of the result is column j of u times ``factors[j]``,
    except that its pivot is written as |pivot| exactly; a zero column
    keeps the factor 1.
    """
    out = np.array(u, dtype=np.complex128, copy=True)
    columns = np.arange(out.shape[1])
    rows = np.argmax(np.abs(out), axis=0)
    pivots = out[rows, columns]
    moduli = np.hypot(pivots.real, pivots.imag)  # abs() of each pivot, bit for bit
    live = moduli > 0.0
    factors = np.where(live, pivots.conj() / np.where(live, moduli, 1.0), 1.0)
    np.multiply(out, factors, out=out, where=live)
    # Each pivot is |pivot| by construction; write it directly so the
    # convention holds exactly, not to rounding.
    out[rows[live], columns[live]] = moduli[live]
    return out, factors


_TINY = np.finfo(np.float64).tiny  # smallest normal float


def _off_diagonal_norm(a: np.ndarray) -> float:
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def _schedule(n: int) -> np.ndarray:
    """Round-robin (circle method) order of one Jacobi sweep on n indices.

    Odd n gets a dummy index n, so with ``size`` = n rounded up to even a
    sweep has size - 1 steps.  Returns an int array of shape
    (size - 1, size/2, 2): step k is size/2 disjoint pairs (p, q), p < q,
    and over a sweep every unordered pair of ``range(size)`` occurs
    exactly once.  Index 0 stays put while the others move one place
    round a ring per step.  For odd n the dummy's pair (p, n) is moved to
    the end of each step, the other pairs keeping their order, so
    ``_sweep`` can leave it out by rotating only the first n // 2 pairs.
    """
    size = n + n % 2
    ring = size - 1
    players = np.zeros((ring, size), dtype=np.intp)
    players[:, 1:] = 1 + (np.arange(ring) - np.arange(ring)[:, None]) % ring
    left, right = players[:, : size // 2], players[:, ::-1][:, : size // 2]
    pairs = np.stack((np.minimum(left, right), np.maximum(left, right)), axis=2)
    if n % 2:
        dummy_last = np.argsort(pairs[:, :, 1] == n, axis=1, kind="stable")
        pairs = np.take_along_axis(pairs, dummy_last[:, :, None], axis=1)
    return pairs


@functools.lru_cache(maxsize=128)
def _layouts(n: int) -> tuple:
    """Index tables that run the schedule of ``_schedule(n)`` in place.

    Built once per size (the last 128 sizes are kept) and returned
    read-only, since every solve of that size shares them.

    During a step the matrix is stored with its pair i at positions
    (2i, 2i + 1), so each pair's rows form one 2 x size block.  Returns
    ``(last, position, steps, blocks)``:

    * ``last[j]`` is the index stored at position j after a sweep's last
      step, which is also the layout each sweep starts from, and
      ``position`` is its inverse;
    * ``steps[k]`` holds the positions, in the layout of step k - 1, of
      the indices of step k in its own layout order, and the flat
      offsets of their entries a[p,q], a[p,p] and a[q,q];
    * ``blocks`` holds the flat offsets of the p and q diagonal entries
      and of the pivots (2i, 2i + 1) and (2i + 1, 2i) in a step's layout.
    """
    size = n + n % 2
    orders = _schedule(n).reshape(size - 1, size)
    step = np.arange(size - 1)[:, None]
    positions = np.empty_like(orders)
    positions[step, orders] = np.arange(size)
    gathers = positions[step - 1, orders]  # step -1 is the previous sweep's last
    gp, gq = gathers[:, 0::2], gathers[:, 1::2]
    entries = np.concatenate((gp * size + gq, gp * (size + 1), gq * (size + 1)), axis=1)
    diagonal = np.arange(0, size * size, size + 1)
    pivots = np.concatenate((diagonal[0::2] + 1, diagonal[0::2] + size))
    last, position = orders[-1].copy(), positions[-1].copy()
    for table in (last, position, gathers, entries, diagonal, pivots):
        table.setflags(write=False)  # before the views below, which inherit it
    blocks = (diagonal[0::2], diagonal[1::2], pivots)
    return last, position, tuple(zip(gathers, entries)), blocks


def _negligible(apq: np.ndarray, app: np.ndarray, aqq: np.ndarray) -> bool:
    """Whether every pivot passes |a_pq| <= ε·√|a_pp·a_qq|.

    This is Demmel & Veselić's relative test (SIMAX 13, 1992).  Zeroing
    a pivot that passes it is a perturbation as small, relative to
    √|a_pp·a_qq|, as rounding a_pp and a_qq, so it is as good as
    rotating it.  The test is scale-invariant, so 2^k·M gets the same
    verdicts as M.
    """
    return bool(np.all(np.abs(apq) <= _EPS * np.sqrt(np.abs(app * aqq))))


def _sweep(aw: np.ndarray, steps: tuple, blocks: tuple, live: int, polish: bool = False) -> None:
    """Run round-robin ``steps`` in order, rotating all pairs of a step at once.

    ``aw`` stacks the working matrix A and W = U†, the conjugate
    transpose of the accumulated basis; ``steps`` (all of a sweep's, or
    a slice of them) and ``blocks`` come from ``_layouts``.  Each pair
    (p, q) gets the complex plane rotation R with R[p,p]=c, R[p,q]=s,
    R[q,p]=-s·e^{-iφ}, R[q,q]=c·e^{-iφ}, where a[p,q]=r·e^{iφ}.  W
    becomes R†W, and A becomes R†AR, computed as R†(R†A)† because A is
    Hermitian.  The pairs of a step are disjoint, so their rotations
    commute, and each 2x2 block of R†AR is written in closed form.

    Only the first ``live`` (n // 2) pairs of each step are rotated.  For
    odd n the last pair is the dummy's (``_schedule``): its pivot is
    exactly 0, so it would get the identity rotation, and its block of G
    is the identity and its phase 1 throughout, so the matmuls carry its
    rows through unchanged and no rotation parameter, diagonal entry or
    pivot is computed or written for it.  The dead-pivot branch then
    runs only where one of A's own pivots is zero or subnormal.

    R† = G·diag(1, e^{iφ}) with G = [[c, -s], [s, c]] real, so each
    product multiplies the q rows by e^{iφ} and then applies the stacked
    G with one real ``matmul`` on the float64 view, where a complex row
    of length n is a real row of length 2n.  A real aw keeps its dtype:
    its float64 view is itself, and its phases are ±1, so they are
    folded into G's second column instead (a sign flip is exact, so the
    result is bitwise the same).  ``aw`` must be C-contiguous; it is
    updated in place.

    In the ``polish`` sweep a step whose pivots are all ``_negligible``
    rotates nothing: it only moves aw to its layout, with two ``take``s,
    and zeroes its pivots, as the rotations would have.

    Every step has the same shapes, so the gather buffers, G and the
    rotation parameters are allocated once per call and each step writes
    into them with ``out=``.  They belong to this call alone, which keeps
    the function safe to run in several threads at once.
    """
    size = aw.shape[1]
    half = size // 2
    diagonal_p, diagonal_q, pivots = blocks
    g = np.empty((half, 2, 2))
    phase = np.empty(half, dtype=aw.dtype)
    if live < half:
        # Odd n: the last pair is the dummy's.  Its block of G stays the
        # identity and its phase 1, and the tables are cut to the live
        # pairs; ``ravel`` copies the pivots to one contiguous index array,
        # as indexing through a strided one costs about 1 µs more per step.
        diagonal_p, diagonal_q = diagonal_p[:live], diagonal_q[:live]
        pivots = pivots.reshape(2, half)[:, :live].ravel()
        g[live:] = np.eye(2)
        phase[live:] = 1.0
    real = aw.dtype == np.float64
    a = aw[0]
    flat = a.reshape(-1)
    a_columns = a.T
    # aw and the products written into it, as the float64 rows G acts on.
    aw_parts = aw.view(np.float64).reshape(2, half, 2, -1)
    a_parts = a.view(np.float64).reshape(half, 2, -1)
    rows = np.empty_like(aw)
    rows_parts = rows.view(np.float64).reshape(2, half, 2, -1)
    rows_q = rows[:, 1::2]
    columns = np.empty_like(a)
    columns_parts = columns.view(np.float64).reshape(half, 2, -1)
    columns_q = columns[1::2]
    entries = np.empty(3 * half, dtype=aw.dtype)
    apq = entries[:live]
    app = entries[half : half + live].real
    aqq = entries[2 * half : 2 * half + live].real
    g_live = g[:live]
    g_diagonal = g_live.reshape(live, 4)[:, ::3]  # g[:, 0, 0] and g[:, 1, 1]
    g01, g10, g_second_column = g_live[:, 0, 1], g_live[:, 1, 0], g_live[:, :, 1]
    r, r2, gap, t, c, s, scratch = np.empty((7, live))
    c_column = c[:, None]
    phase_live = phase[:live]
    phase_column, live_phase_column = phase[:, None], phase_live[:, None]
    for gather, offsets in steps:
        # Every index is in range, so "clip" lets ``take`` write into its
        # output directly instead of through a buffer.
        aw.take(offsets, out=entries, mode="clip")
        if polish and _negligible(apq, app, aqq):
            aw.take(gather, axis=1, out=rows, mode="clip")
            aw[1] = rows[1]
            rows[0].take(gather, axis=1, out=a, mode="clip")
            flat[pivots] = 0.0
            continue
        np.abs(apq, out=r)
        dead = None
        if r.min() < _TINY:
            # A pivot that is zero or subnormal gets the identity rotation
            # (and is zeroed below): a subnormal r is too coarse for apq/r
            # to be a unit number, or even finite.
            dead = r < _TINY
            r[dead] = 0.0
            np.divide(np.where(dead, 1.0, apq), np.where(dead, 1.0, r), out=phase_live)
        else:
            np.divide(apq, r, out=phase_live)
        # t = tan of the rotation angle: the root of t² + 2τt - 1 = 0, with
        # τ = (a[q,q] - a[p,p]) / 2r, that is at most 1 in modulus.
        np.subtract(aqq, app, out=gap)
        np.add(r, r, out=r2)
        np.abs(gap, out=scratch)
        scratch += np.hypot(gap, r2, out=t)
        if dead is not None:
            scratch += dead  # a dead pair's t is 0, not 0/0
        np.copysign(r2, gap, out=t)
        t /= scratch
        np.hypot(1.0, t, out=c)
        np.divide(1.0, c, out=c)
        np.multiply(t, c, out=s)
        g_diagonal[...] = c_column
        np.negative(s, out=g01)
        g10[...] = s
        if real:
            # A real phase is ±1: fold it into G's second column, which
            # flips the same signs exactly, so the q rows need no multiply.
            g_second_column *= live_phase_column

        # ``take`` copies, so each product can write straight into aw.
        aw.take(gather, axis=1, out=rows, mode="clip")
        if not real:
            rows_q *= phase_column
        np.matmul(g, rows_parts, out=aw_parts)
        # The rows of (R†A)† are the conjugated columns of R†A.
        a_columns.take(gather, axis=0, out=columns, mode="clip")
        if not real:
            np.conjugate(columns, out=columns)
            columns_q *= phase_column
        np.matmul(g, columns_parts, out=a_parts)
        # The transformed 2x2 blocks are known in closed form; writing them
        # directly keeps the diagonal real and each pivot exactly zero.
        np.multiply(t, r, out=scratch)  # the shift of each diagonal entry
        flat[diagonal_p] = np.subtract(app, scratch, out=gap)
        flat[diagonal_q] = np.add(aqq, scratch, out=gap)
        flat[pivots] = 0.0


def hermitian_eigen(m, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> HermitianEigen:
    """Diagonalize a Hermitian matrix by round-robin Jacobi rotations.

    Each sweep visits every off-diagonal pair once, in the round-robin
    order of Brent & Luk: n - 1 steps (n for odd n) of n // 2 disjoint
    rotations applied together.  After the off-diagonal norm first meets
    the target, one more sweep polishes the result, unless the sweeps are
    used up or every off-diagonal pair already passes the relative test
    |a_pq| <= ε·√|a_pp·a_qq|, which is checked once over the whole
    matrix.  In the polish sweep a step whose pairs all pass it rotates
    nothing: it only moves the matrix to the step's layout and zeroes
    the pivots.  So ``sweeps`` is the number that met the target or one
    more, and an input already diagonal to that test takes none.

    Parameters
    ----------
    m : array_like
        Square matrix passing the Hermiticity check of ``cfg``.
    cfg : ToleranceConfig
        Supplies the convergence target and the sweep limit.

    Returns
    -------
    HermitianEigen
        Descending eigenvalues, the phase-fixed unitary eigenvector
        matrix and the number of sweeps run.

    Raises
    ------
    NotHermitian
        If the input deviates from M† beyond HERMITICITY_TOL·max|M|.
    NoConvergence
        If the relative off-diagonal norm is still above
        ``eigen_convergence_tol`` after ``max_sweeps`` sweeps.
    """
    a = _check_hermitian(m)
    n = a.shape[0]
    # Work on 2^-e·M, so neither the symmetrization nor any norm below
    # can overflow.
    a, exponent = _scaled_to_unit(a)
    a = _real_valued((a + a.conj().T) / 2.0)
    size = n + n % 2
    last, position, steps, blocks = _layouts(n)
    live = n // 2  # pairs per step that are not odd n's dummy pair
    # A (padded with a zero dummy row and column for odd n) and W = I,
    # both stored in the layout a sweep starts from, in A's own dtype.
    aw = np.zeros((2, size, size), dtype=a.dtype)
    aw[0, :n, :n] = a
    aw[0] = aw[0][last][:, last]
    aw[1] = np.eye(size)[last]
    target = cfg.eigen_convergence_tol * float(np.linalg.norm(a))
    sweeps = 0
    off = _off_diagonal_norm(aw[0])
    while off > target:
        if sweeps == cfg.max_sweeps:
            raise NoConvergence(
                f"off-diagonal norm {np.ldexp(off, exponent):.3e} above target "
                f"{np.ldexp(target, exponent):.3e} after {sweeps} sweeps",
                sweeps=sweeps,
                off_norm=float(np.ldexp(off, exponent)),
            )
        _sweep(aw, steps, blocks, live)
        sweeps += 1
        off = _off_diagonal_norm(aw[0])
    # One polish sweep after the target is met takes the quadratically
    # shrinking remainder to about zero, unless the sweeps are used up or
    # every pair is already negligible; it rotates only the steps that
    # hold a pair that is not.
    diagonal = np.diagonal(aw[0])
    off_diagonal = aw[0] - np.diag(diagonal)
    diagonal = diagonal.real
    if sweeps < cfg.max_sweeps and not _negligible(off_diagonal, diagonal[:, None], diagonal):
        _sweep(aw, steps, blocks, live, True)  # polish
        sweeps += 1
    position = position[:n]  # of each index in the final layout; drops the dummy
    diag = np.real(np.diagonal(aw[0]))[position]
    order = np.argsort(-diag, kind="stable")
    eigenvalues = np.ldexp(diag[order], exponent)
    eigenvectors = apply_phase_convention(aw[1][position[order], :n].conj().T)
    return HermitianEigen(eigenvalues=eigenvalues, eigenvectors=eigenvectors, sweeps=sweeps)


def _require_positive_definite(
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
