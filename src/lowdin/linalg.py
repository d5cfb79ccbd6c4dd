"""Dense complex matrix core.

Everything downstream is built from the handful of primitives here,
chief among them a Jacobi eigensolver for Hermitian matrices.  No factor
forms the Gram metric M = V†V itself: ``decompositions.factorize``
diagonalizes L†·L after QR/LQ rounds on V instead, and its docstring
describes that route.

The eigensolver sweeps in round-robin order (Brent & Luk, SIAM J. Sci.
Stat. Comput. 6(1), 1985): each sweep is n - 1 steps (n for odd n),
and each step rotates n // 2 disjoint index pairs together with a few
whole-array numpy operations.  The work array stores the indices by
their seat on a ring, each step's pairs side by side, so one
permutation, the same at every step, moves it from one step's layout
to the next, and a sweep ends in the layout it began in
(``_layouts``).  The indices are labelled so that each sweep opens with
the neighbour pairs (i, i + 1), which the QR/LQ rounds before the metric
solve leave the largest relative to their diagonal; on the benchmark's
solves that takes about a tenth fewer sweeps than labelling each index
by its seat.  Odd n is padded with a zero dummy index on the ring's
fixed seat; its pair is the last of every step and is never rotated.
A solve allocates its gather buffers, rotation blocks and rotation
parameters once and binds the numpy functions a step calls
(``_sweeper``), so a step allocates nothing and looks nothing up; at
desk sizes its cost is still the dispatch of its 25 or so numpy calls
more than their arithmetic.  The input
is first scaled by an exact power of two, so entries up to the overflow
threshold are diagonalized, and the eigenvectors of 2^k·M are those of
M bit for bit while the entries of 2^k·M stay normal numbers.  Pivots
below the normal range, zero or subnormal entries of M itself (never
the dummy's), get no rotation and are set to zero.  The solver stops on
one rule, checked before every sweep (``_settled``): every pair passes
the relative test |a_pq| <= √n·ε·√(d'_p·d'_q) of LAPACK's xGESVJ
(Drmač & Veselić, SIMAX 29, 2008; Demmel & Veselić, SIMAX 13, 1992),
where d'_i = |a_ii|, or max|a_ii| for a diagonal entry at or below the
floor (n·ε)²·max|a_ii|, so the small eigenvalues converge relative to
themselves and an exactly zero one cannot keep the solver sweeping.

Matrices are plain ``numpy`` arrays; ``as_matrix`` gives them
``complex128`` entries, and eigenvectors are returned as ``complex128``.
Inside the eigensolver the work array is real and follows the data:
each row of a matrix whose imaginary parts are all zero is one
``float64`` plane, and each row of any other is two, its real part over
its imaginary part (``_real_valued`` is the rule, and the QRs that
precondition the metric solve follow it too).  A pair's rows are then
one contiguous block, and one real ``matmul`` with a per-pair block
rotates it, the phase of the complex rotation and the conjugation of
the column pass included, so the same sweep code runs both and no
step does complex arithmetic.  All functions
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
import operator
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian


@dataclass(frozen=True)
class ToleranceConfig:
    """The one setting a caller may choose, beside the package's fixed bounds.

    max_sweeps           hard limit on Jacobi sweeps before giving up, an
                         integer of at least 1

    Whether V has full column rank is no setting: ``factorize`` decides
    it from V itself, by the rule of ``numpy.linalg.matrix_rank``.  The
    bounds on the paper's identities are constants, readable on any
    instance but not settable, so no caller can loosen the check:

    orthonormality_tol   bound on ``max|Z†Z - I|`` for orthonormal bases
    reconstruction_tol   relative bound on factorization round trips
    eigen_convergence_tol  1e-14, the relative off-diagonal norm the Jacobi
                         sweeps once stopped at; the solver no longer reads
                         it (``hermitian_eigen`` stops on the relative test
                         alone), and it stays only because the benchmark's
                         sweep counter still reads it
    """

    orthonormality_tol: ClassVar[float] = 1e-10
    reconstruction_tol: ClassVar[float] = 1e-9
    eigen_convergence_tol: ClassVar[float] = 1e-14
    max_sweeps: int = 64

    def __post_init__(self):
        if operator.index(self.max_sweeps) < 1:
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
    ran: the fewest after which every pair passed the relative test, so
    it is also the smallest ``max_sweeps`` that raises no NoConvergence.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sweeps: int = 0


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


def _scaled_to_unit(a: np.ndarray) -> tuple:
    """(2^-e·a, e), with e the ``frexp`` exponent of a's largest real or imaginary part.

    The largest part of the result lies in [1/2, 1).  Scaling by a power
    of two changes no entry that stays normal, so 2^k·a gives the same
    scaled matrix bit for bit.
    """
    parts = np.ascontiguousarray(a).view(np.float64)
    exponent = math.frexp(max_abs(parts))[1]
    return np.ldexp(parts, -exponent).view(np.complex128), exponent


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


def _to_planes(x: np.ndarray) -> np.ndarray:
    """x with each row stored as real planes: shape (..., r, c) becomes (..., r, P, c).

    A float64 x has one plane, itself; any other has two, [Re; Im].
    ``_from_planes`` undoes it bit for bit.  The result is C-contiguous.
    """
    if x.dtype == np.float64:
        return np.ascontiguousarray(x[..., None, :])
    parts = np.ascontiguousarray(x).view(np.float64).reshape(*x.shape, 2)
    return np.ascontiguousarray(parts.swapaxes(-1, -2))


def _from_planes(x: np.ndarray) -> np.ndarray:
    """The float64 (one plane) or complex128 (two) matrix stored in ``x``'s planes."""
    if x.shape[-2] == 1:
        return x[..., 0, :]
    return np.ascontiguousarray(x.swapaxes(-1, -2)).view(np.complex128)[..., 0]


def _work_array(a: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The Jacobi work array of ``a``: A and W = I, both in layout ``order``, as real planes.

    A is ``a`` padded with a zero dummy row and column when ``order``
    holds n + 1 indices (odd n).  The result has shape (2, size, P, size):
    one plane for a float64 ``a``, two for a complex one.
    """
    n, size = a.shape[0], order.shape[0]
    aw = np.zeros((2, size, size), dtype=a.dtype)
    aw[0, :n, :n] = a
    aw[0] = aw[0][order][:, order]
    aw[1] = np.eye(size)[order]
    return _to_planes(aw)


def _off_diagonal_norm(a: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part of a work matrix stored as planes."""
    off = a.copy()
    np.fill_diagonal(off[:, 0], 0.0)  # the imaginary plane's diagonal is zero
    return float(np.linalg.norm(off))


def _settled(a: np.ndarray, n: int) -> bool:
    """Whether every pair has |a_pq| <= √n·ε·√(d'_p·d'_q).

    ``a`` is a work matrix stored as planes, of n indices plus odd n's
    dummy.  d'_i = |a_ii| above the floor (n·ε)²·max|a_ii|, and
    max|a_ii| at or below it, so the rounding noise of a zero eigenvalue
    is tested normwise and cannot keep the solver sweeping.  The floor
    lies below every d_T that ``factorize``'s rank rule admits,
    (max(n, m)·ε)²·d_T,1 for an n x m V.  √n·ε is the threshold of LAPACK's xGESVJ (Drmač & Veselić,
    SIMAX 29, 2008); with ε alone, sweeps do not settle on ε-sized noise.
    The test is scale-invariant, so 2^k·M gets the verdicts of M.
    """
    magnitudes = np.abs(np.diagonal(a[:, 0]))
    largest = magnitudes.max()
    threshold = math.sqrt(n) * _EPS
    # Every pair passing implies ‖off(A)‖_F <= √n·ε·Σd' <= √n·ε·size·max|a_ii|,
    # so one norm rejects a matrix far from diagonal without the pairwise test.
    if _off_diagonal_norm(a) > threshold * magnitudes.size * largest:
        return False
    floor = (n * _EPS) ** 2 * largest
    roots = np.sqrt(np.where(magnitudes > floor, magnitudes, largest))
    moduli = np.hypot.reduce(a, axis=1, initial=0.0)  # hypot(0, x) = |x| for one plane
    np.fill_diagonal(moduli, 0.0)
    return bool(np.all(moduli <= threshold * np.outer(roots, roots)))


@functools.lru_cache(maxsize=128)
def _layouts(n: int, planes: int) -> tuple:
    """Index tables that run a round-robin sweep on n indices in place.

    Built once per size and plane count (the last 128 are kept) and
    returned read-only, since every solve of that shape shares them.
    Odd n gets a dummy index n, so ``size`` = n rounded up to even.

    The indices sit on ``size`` seats.  Seat 0 is fixed; seats 1, ...,
    size - 1 form a ring, and every index moves one seat on along it per
    step, so after size - 1 steps (a sweep) each is back where it began,
    and every unordered pair has met exactly once (the circle method;
    Brent & Luk, SIAM J. Sci. Stat. Comput. 6(1), 1985).  A step rotates
    the indices on seats (0, 1) and (1 + i, size - i), and the work
    matrix, of shape (size, planes, size) (``_work_array``), stores seat
    pair i at positions (2i, 2i + 1), so each pair's rows form one
    contiguous block of 2·planes rows, its p row first.  For odd n the
    fixed seat holds the dummy and its pair is stored last, so a sweep
    leaves it out by rotating only the first n // 2 pairs.  Each seat
    keeps its position, so one permutation, the same at every step,
    takes the work array from one step's layout to the next, and a sweep
    ends in the layout it began in.

    An index is labelled by its seat at step 0: seat s holds s for odd s
    and (size - s) mod size for even s, so steps 0 and 1 rotate the
    neighbour pairs (0, 1), (2, 3), ... and then (1, 2), (3, 4), ...,
    (0, size - 1), which the QR/LQ rounds of ``decompositions.factorize``
    leave the largest relative to their diagonal.  Odd n uses the same
    labels backwards, (-label - 1) mod size, which puts the dummy on
    seat 0 and keeps those two opening steps.  A relabelling runs the
    same ordering on a permuted matrix, so it converges as the
    round-robin does (Luk & Park, IEEE Trans. Comput. 38, 1989).

    Returns ``(last, position, gather, entries, written)``:

    * ``last[j]`` is the index stored at position j after a sweep's last
      step, which is also the layout each sweep starts from, and
      ``position`` is its inverse;
    * ``gather[j]`` is the position, before a step, of the index the step
      stores at position j;
    * ``entries`` holds the flat offsets, in the layout before a step, of
      the entries of each of its pairs: a[p,q] plane by plane, the last
      plane first, then a[p,p] and a[q,q];
    * ``written`` holds the flat offsets of the entries a step writes, in
      its layout, for the n // 2 pairs that are not odd n's dummy: first
      those it sets to zero, the pivots (2i, 2i + 1) and (2i + 1, 2i) in
      every plane and the imaginary plane of both diagonal entries, then
      the p diagonal entries and the q diagonal entries.
    """
    size = n + n % 2
    seats = np.arange(size)
    i = seats[1 : size // 2]
    seat_at = np.stack((np.r_[0, 1 + i], np.r_[1, size - i]), axis=1).reshape(-1)  # of each position
    label = np.where(seats % 2, seats, -seats % size)  # of the index on each seat at step 0
    if n % 2:
        seat_at = np.roll(seat_at, -2)  # the dummy's table last
        label = (-label - 1) % size
    came_from = np.r_[0, 1 + (seats[1:] - 2) % (size - 1)]  # seat of each seat's index a step ago
    gather = np.argsort(seat_at)[came_from[seat_at]]
    last = label[seat_at][np.argsort(gather)]  # step 0's layout, last[gather], is label[seat_at]
    position = np.argsort(last)
    gp, gq = gather[0::2], gather[1::2]
    row = planes * size  # flat offset from one row of the work matrix to the next
    pivot_planes = [gp * row + k * size + gq for k in reversed(range(planes))]
    entries = np.concatenate((*pivot_planes, gp * (row + 1), gq * (row + 1)))
    p = np.arange(0, 2 * (n // 2), 2)  # each live pair's p position; its q is p + 1
    diagonals = [p * (row + 1), (p + 1) * (row + 1)]
    written = np.concatenate(
        [p * row + k * size + p + 1 for k in range(planes)]
        + [(p + 1) * row + k * size + p for k in range(planes)]
        + [diagonal + k * size for diagonal in diagonals for k in range(1, planes)]
        + diagonals
    )
    tables = (last, position, gather, entries, written)
    for table in tables:
        table.setflags(write=False)
    return tables


def _block_pattern(planes: int) -> np.ndarray:
    """The 0/±1 matrix that maps a pair's rotation coefficients to its two blocks.

    Row j holds, flattened, the blocks (K, K·D) of the coefficient vector
    e_j, for coefficients (c, s, c·sin φ, c·cos φ, s·sin φ, s·cos φ).
    K = [[c·I, -s·R_φ], [s·I, c·R_φ]] acts on a pair's 2·planes rows,
    where R_φ = cos φ·I + sin φ·J = [[cos φ, -sin φ], [sin φ, cos φ]]
    multiplies by e^{iφ} (with one plane, R_φ = cos φ = ±1), and D negates
    the imaginary planes, so K·D conjugates the rows it rotates.  Every
    entry of ``coefficients @ pattern`` is one coefficient, negated or
    not, or zero, so it is exact.
    """
    unit = np.eye(2)[:planes, :planes]
    turn = np.array([[0.0, -1.0], [1.0, 0.0]])[:planes, :planes]  # J
    # Each coefficient is I or J times one signed 2 x 2 block position of K.
    where = np.zeros((6, 2, 2))
    where[0, 0, 0] = where[1, 1, 0] = 1.0
    where[2:4, 1, 1] = 1.0
    where[4:, 0, 1] = -1.0
    what = np.stack((unit, unit, turn, unit, turn, unit))
    k = (where[:, :, None, :, None] * what[:, None, :, None, :]).reshape(6, 2 * planes, 2 * planes)
    conjugate = np.tile((1.0, -1.0)[:planes], 2)
    return np.stack((k, k * conjugate), axis=1).reshape(6, -1)


_BLOCK_PATTERNS = {planes: _block_pattern(planes) for planes in (1, 2)}
_NO_PHASE = np.array([[0.0], [1.0]])  # (sin φ, cos φ) of a dead pivot


def _sweeper(aw: np.ndarray, gather: np.ndarray, entries: np.ndarray, written: np.ndarray, live: int):
    """The sweep function of one solve, with its buffers allocated once.

    ``aw`` is the work array of ``_work_array``: the working matrix A and
    W = U†, the conjugate transpose of the accumulated basis, stacked,
    each stored as real planes; it is updated in place.  ``gather``,
    ``entries`` and ``written`` come from ``_layouts``; every step reads
    the same three.  Returns ``sweep(steps)``, which runs that many
    round-robin steps (a sweep's size - 1, or fewer) from whatever
    step's layout ``aw`` is in, rotating all pairs of a step at once.

    Each pair (p, q) gets the complex plane rotation R with R[p,p]=c,
    R[p,q]=s, R[q,p]=-s·e^{-iφ}, R[q,q]=c·e^{-iφ}, where a[p,q]=r·e^{iφ}.
    W becomes R†W, and A becomes R†AR, computed as R†(R†A)† because A is
    Hermitian.  The pairs of a step are disjoint, so their rotations
    commute, and each 2x2 block of R†AR is written in closed form.

    A pair's rows are one contiguous block of 2·P real rows, so R† is one
    real 2P x 2P block K per pair (``_block_pattern``), and each product
    is one batched real ``matmul``: K on the gathered rows of A and W,
    then K·D on the gathered columns of R†A, which conjugates them in
    the same product.  K is built from the coefficients
    (c, s, c·sin φ, c·cos φ, s·sin φ, s·cos φ) by one small ``matmul``
    against the constant pattern.  Real input has one plane and φ = 0
    or π, and runs the same code; its sin φ is 0 because the gather of
    pivots leaves the imaginary-part slot of its buffer at zero.

    Only the first ``live`` (n // 2) pairs of each step are rotated.  For
    odd n the last pair is the dummy's (``_layouts``): its pivot is
    exactly 0, so it would get the identity rotation, and its blocks are
    fixed at I and D, so the matmuls carry its rows through unchanged and
    no rotation parameter, diagonal entry or pivot is computed or written
    for it (``written`` leaves it out).  The dead-pivot branch then runs
    only where one of A's own pivots is zero or subnormal.

    Every step has the same shapes and tables, so the gather buffers, the
    blocks, the rotation parameters and the ones of hypot(1, t) and 1/c
    are allocated here, once per solve, and the tables, numpy functions
    and methods a step calls are bound here: at n <= 16 a call's
    dispatch costs more than its arithmetic, so a global lookup, an
    ``out=`` keyword or a scalar made an array shows in a step's time.
    All of it belongs to this solve alone, which keeps solves safe to run
    in several threads.
    """
    size, planes = aw.shape[1], aw.shape[2]
    half, width = size // 2, 2 * planes  # pairs per step, rows per pair
    values = np.zeros(written.size)  # what a step writes there: zeros, then the diagonals
    new_app, new_aqq = values[written.size - 2 * live :].reshape(2, live)
    pattern = _BLOCK_PATTERNS[planes]
    k = np.empty((half, pattern.shape[1]))
    k[live:] = pattern[0] + pattern[3]  # c = c·cos φ = 1, s = 0: odd n's dummy gets I and D
    k_live = k[:live]
    k_rows, k_columns = k.reshape(half, 2, width, width).transpose(1, 0, 2, 3)
    a = aw[0]
    flat = a.reshape(-1)
    a_columns = a.transpose(2, 1, 0)
    aw_blocks, a_blocks = aw.reshape(2, half, width, size), a.reshape(half, width, size)
    rows, columns = np.empty_like(aw), np.empty_like(a)
    rows_blocks, columns_blocks = rows.reshape(aw_blocks.shape), columns.reshape(a_blocks.shape)
    # Rows Im a_pq, Re a_pq, a_pp, a_qq; one plane leaves the first at zero.
    pair_entries = np.zeros((4, half))
    taken = pair_entries.reshape(-1)[(2 - planes) * half :]
    apq, app, aqq = pair_entries[:2, :live], pair_entries[2, :live], pair_entries[3, :live]
    apq_im, apq_re = apq
    coefficients = np.empty((6, live))
    c, s = coefficients[0], coefficients[1]
    c_s, products = coefficients[:2, None], coefficients[2:].reshape(2, 2, live)
    phase = np.empty((2, live))
    sin_phase, cos_phase = phase
    r, r2, gap, t, scratch = np.empty((5, live))
    ones = np.ones(live)
    coefficients_t = coefficients.T
    # A step passes ``out`` (and ``take``'s axis and mode) positionally:
    # keywords are parsed on every call.  The rare dead-pivot branch looks
    # ``np.where`` up where it calls it, so a test that replaces ``np``
    # sees whether the branch ran.
    hypot, divide, subtract, add = np.hypot, np.divide, np.subtract, np.add
    absolute, copysign, multiply, matmul = np.absolute, np.copysign, np.multiply, np.matmul
    take, take_columns, argmin = aw.take, a_columns.take, r.argmin

    def sweep(steps: int) -> None:
        for _ in range(steps):
            # Every index is in range, so "clip" lets ``take`` write into
            # its output directly instead of through a buffer.
            take(entries, None, taken, "clip")
            hypot(apq_re, apq_im, r)
            dead = None
            # Not r.min(): its Python-level wrapper costs 1.0 µs a step
            # against 0.3 µs for argmin, which has none.
            if r[argmin()] < _TINY:
                # A pivot that is zero or subnormal gets the identity
                # rotation (and is zeroed below): a subnormal r is too
                # coarse for a_pq/r to be a unit number, or even finite.
                dead = r < _TINY
                r[dead] = 0.0
                divide(np.where(dead, _NO_PHASE, apq), np.where(dead, 1.0, r), phase)
            else:
                divide(apq_im, r, sin_phase)  # two calls cost less than one that broadcasts
                divide(apq_re, r, cos_phase)
            # t = tan of the rotation angle: the root of t² + 2τt - 1 = 0,
            # with τ = (a[q,q] - a[p,p]) / 2r, that is at most 1 in modulus.
            subtract(aqq, app, gap)
            add(r, r, r2)
            absolute(gap, scratch)
            add(scratch, hypot(gap, r2, t), scratch)
            if dead is not None:
                add(scratch, dead, scratch)  # a dead pair's t is 0, not 0/0
            copysign(r2, gap, t)
            divide(t, scratch, t)
            hypot(ones, t, c)
            divide(ones, c, c)
            multiply(t, c, s)
            multiply(c_s, phase, products)
            matmul(coefficients_t, pattern, k_live)

            # ``take`` copies, so each product can write straight into aw.
            take(gather, 1, rows, "clip")
            matmul(k_rows, rows_blocks, aw_blocks)
            # The rows of (R†A)† are the conjugated columns of R†A.
            take_columns(gather, 0, columns, "clip")
            matmul(k_columns, columns_blocks, a_blocks)
            # The transformed 2x2 blocks are known in closed form; writing
            # them directly keeps the diagonal real and each pivot zero:
            # a[p,p] - t·r and a[q,q] + t·r.
            multiply(t, r, scratch)
            subtract(app, scratch, new_app)
            add(aqq, scratch, new_aqq)
            flat[written] = values

    return sweep


def hermitian_eigen(m, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> HermitianEigen:
    """Diagonalize a Hermitian matrix by round-robin Jacobi rotations.

    Each sweep visits every off-diagonal pair once, in the round-robin
    order of Brent & Luk run on a ring (``_layouts``): n - 1 steps (n for
    odd n) of n // 2 disjoint rotations applied together, the first two
    of which rotate the neighbour pairs (i, i + 1), where the
    QR/LQ-preconditioned metric of ``decompositions.factorize`` holds
    most of its off-diagonal weight; on generic dense input the
    labelling neither helps nor hurts.
    Before each sweep every pair is tested against
    |a_pq| <= √n·ε·√(d'_p·d'_q), with d'_i = |a_ii|, or max|a_ii| where
    |a_ii| <= (n·ε)²·max|a_ii| (``_settled``); the sweeps stop once every
    pair passes.  So an input already diagonal to that test takes no sweep,
    and ``sweeps`` is the smallest sweep limit that does not raise.

    Parameters
    ----------
    m : array_like
        Square matrix within HERMITICITY_TOL·max|M| of M†.
    cfg : ToleranceConfig
        Supplies the sweep limit, the only setting the solver reads.

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
        If a pair still fails the test after ``cfg.max_sweeps`` sweeps;
        it carries the sweeps run and the off-diagonal norm ‖off(M)‖_F
        they left.
    """
    a = _check_hermitian(m)
    n = a.shape[0]
    # Work on 2^-e·M, so neither the symmetrization nor any norm below
    # can overflow.
    a, exponent = _scaled_to_unit(a)
    a = _real_valued((a + a.conj().T) / 2.0)
    last, position, gather, entries, written = _layouts(n, 1 if a.dtype == np.float64 else 2)
    # A (padded with a zero dummy row and column for odd n) and W = I,
    # in the layout a sweep starts from, one plane for real A, two else.
    aw = _work_array(a, last)
    sweep = _sweeper(aw, gather, entries, written, n // 2)  # n // 2 pairs per step are not odd n's dummy
    sweeps = 0
    while not _settled(aw[0], n):
        if sweeps == cfg.max_sweeps:
            off = float(np.ldexp(_off_diagonal_norm(aw[0]), exponent))
            raise NoConvergence(
                f"off-diagonal norm {off:.3e} still fails the relative test after {sweeps} sweeps",
                sweeps=sweeps,
                off_norm=off,
            )
        sweep(last.size - 1)
        sweeps += 1
    position = position[:n]  # of each index in the final layout; drops the dummy
    diag = np.diagonal(aw[0, :, 0])[position]
    order = np.argsort(-diag, kind="stable")
    eigenvalues = np.ldexp(diag[order], exponent)
    eigenvectors = apply_phase_convention(_from_planes(aw[1][position[order], :, :n]).conj().T)
    return HermitianEigen(eigenvalues=eigenvalues, eigenvectors=eigenvectors, sweeps=sweeps)

