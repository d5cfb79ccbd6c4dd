"""Independent expected-value generators used by the tests.

Eigenvalues of small integer Hermitian matrices are computed from their
exact integer characteristic polynomials: rational roots are found by
exhaustive divisor search and exact deflation, the remainder is solved
by the quadratic formula or the trigonometric cubic formula with a few
Newton polish steps.  Matrix-power references use LAPACK
(``numpy.linalg.eigh``), and the Gram metric V†V is formed directly.
Only ``principal_components`` runs the Jacobi solver, and on a matrix
the metric path never builds: S = V·V† reduced by its own QR, so its
components check Λ by a second route.  ``jacobi_sweeper_by_steps`` is
the solver's sweep written one step at a time, the reference its
preallocated form must match bit for bit.  ``decimal_singular_values``
is a one-sided Jacobi SVD in 50-digit ``decimal`` arithmetic, the
reference for relative accuracy on graded V.
"""

from __future__ import annotations

import decimal
import math
from typing import NamedTuple

import numpy as np

import lowdin as lo
from lowdin.linalg import _negligible, _real_valued, _scaled_to_unit


def _abs2(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def hermitian_2x2_eigenvalues(a: float, b: float, c: complex):
    """Eigenvalues of [[a, c], [conj(c), b]] with a, b real, descending."""
    c = complex(c)
    trace = a + b
    det = a * b - _abs2(c)
    disc = max(trace * trace - 4.0 * det, 0.0)
    root = math.sqrt(disc)
    return ((trace + root) / 2.0, (trace - root) / 2.0)


def hermitian_2x2_power(a: float, b: float, c: float, p: float) -> np.ndarray:
    """M^p for the real symmetric matrix [[a, c], [c, b]], closed form."""
    lam_hi, lam_lo = hermitian_2x2_eigenvalues(a, b, c)
    if c == 0.0:
        return np.diag([a**p, b**p]).astype(float)
    result = np.zeros((2, 2))
    for lam in (lam_hi, lam_lo):
        vector = np.array([c, lam - a], dtype=float)
        vector /= math.hypot(vector[0], vector[1])
        result += lam**p * np.outer(vector, vector)
    return result


def phase_convention_by_columns(u) -> np.ndarray:
    """The package phase convention, one column at a time.

    The largest-modulus entry (lowest row on ties) of each nonzero
    column is made real and non-negative by the factor conj(pivot)/|pivot|
    and then written as |pivot|; zero columns are left alone.
    """
    out = np.array(u, dtype=np.complex128, copy=True)
    for j in range(out.shape[1]):
        column = out[:, j]
        k = int(np.argmax(np.abs(column)))
        pivot = column[k]
        modulus = abs(pivot)
        if modulus > 0.0:
            out[:, j] = column * (pivot.conjugate() / modulus)
            out[k, j] = modulus
    return out


def gram_metric(v) -> np.ndarray:
    """The metric M = V†V formed directly, which the factor path never does.

    The product is re-symmetrized, so it is Hermitian to the last bit;
    OverflowError if an entry leaves the float64 range.
    """
    a = np.asarray(v, dtype=np.complex128).conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        m = a @ a.conj().T
        m = (m + m.conj().T) / 2.0
    if not np.all(np.isfinite(m)):
        raise OverflowError("V†V overflows float64")
    return m


class SscpResult(NamedTuple):
    """The k = min(n, m) principal components of S = V·V†.

    ``components`` (n x k, orthonormal columns) are S's eigenvectors for
    its k largest eigenvalues, descending and phase-fixed, and
    ``component_scores`` are those eigenvalues.  The other n - k
    eigenvalues of S are 0 and are not returned.
    """

    components: np.ndarray
    component_scores: np.ndarray


def principal_components(v) -> SscpResult:
    """The k = min(n, m) leading eigenvectors of S = V·V†, from their own solve.

    S has rank at most k, so it is diagonalized through the reduced QR
    F = 2^-e·V = Q·R (e the ``frexp`` exponent of V's largest real or
    imaginary part): 2^-2e·S = Q·T·Q† with the k x k T = R·R†.  The
    Jacobi solver diagonalizes T = Y·diag(d_T)·Y†; the components are
    Q·Y, phase-fixed, and their scores 2^2e·d_T.  Works for wide and
    rank-deficient V too.
    """
    v = lo.as_matrix(v)
    scaled, exponent = _scaled_to_unit(v)
    q, r = np.linalg.qr(_real_valued(scaled))
    reduced = lo.hermitian_eigen(r @ r.conj().T)
    return SscpResult(
        components=lo.apply_phase_convention(q @ reduced.eigenvectors),
        component_scores=np.ldexp(reduced.eigenvalues, 2 * exponent),
    )


def decimal_singular_values(v) -> list:
    """Singular values of a real V, descending, as ``decimal.Decimal`` at 50 digits.

    One-sided (Hestenes) Jacobi: each pair of columns x, y is rotated
    until x·y ≤ 1e-45·‖x‖·‖y‖, and σ is then the column norms
    (Demmel & Veselić, SIMAX 13, 1992).  Every float64 entry is exact in
    ``decimal``, so only the working precision rounds.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        cols = [[decimal.Decimal(float(x)) for x in col] for col in np.asarray(v, dtype=float).T]
        tol = decimal.Decimal("1e-45")
        rotated = True
        while rotated:
            rotated = False
            for p in range(len(cols)):
                for q in range(p + 1, len(cols)):
                    x, y = cols[p], cols[q]
                    alpha = sum(a * a for a in x)
                    beta = sum(b * b for b in y)
                    gamma = sum(a * b for a, b in zip(x, y))
                    if abs(gamma) <= tol * (alpha * beta).sqrt():
                        continue
                    rotated = True
                    zeta = (beta - alpha) / (2 * gamma)
                    t = (1 if zeta >= 0 else -1) / (abs(zeta) + (1 + zeta * zeta).sqrt())
                    c = 1 / (1 + t * t).sqrt()
                    s = c * t
                    cols[p] = [c * a - s * b for a, b in zip(x, y)]
                    cols[q] = [s * a + c * b for a, b in zip(x, y)]
        return sorted((sum(a * a for a in col).sqrt() for col in cols), reverse=True)


def lapack_inverse_sqrt_route(v) -> np.ndarray:
    """V·M^(-1/2) for M = V†V, with M^(-1/2) built from ``numpy.linalg.eigh``."""
    v = np.asarray(v, dtype=np.complex128)
    d, u = np.linalg.eigh(v.conj().T @ v)
    return v @ ((u / np.sqrt(d)) @ u.conj().T)


def jacobi_rotations(a, w, pairs):
    """R†·A·R and R†·W for the plane rotations of disjoint index pairs.

    Each pair (p, q) with a[p,q] = r·e^{iφ} gets R[p,p] = c, R[p,q] = s,
    R[q,p] = -s·e^{-iφ}, R[q,q] = c·e^{-iφ}, where t = s/c is the root
    of smaller modulus of t² + 2ζt - 1 = 0, ζ = (a[q,q] - a[p,p])/2r
    (t ≥ 0 when ζ = 0).  A zero pivot gets the identity.  R is built one
    pair at a time as a full matrix, and the products are plain complex
    matrix products.
    """
    a = np.asarray(a, dtype=np.complex128)
    rotation = np.eye(a.shape[0], dtype=np.complex128)
    for p, q in pairs:
        apq = complex(a[p, q])
        r = abs(apq)
        if r == 0.0:
            continue
        phase = apq / r
        zeta = (a[q, q].real - a[p, p].real) / (2.0 * r)
        t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
        c = 1.0 / math.sqrt(1.0 + t * t)
        s = t * c
        rotation[p, p], rotation[p, q] = c, s
        rotation[q, p], rotation[q, q] = -s * phase.conjugate(), c * phase.conjugate()
    adjoint = rotation.conj().T
    return adjoint @ a @ rotation, adjoint @ np.asarray(w, dtype=np.complex128)


def jacobi_sweeper_by_steps(aw, written, live):
    """``linalg._sweeper`` one step at a time, allocating every temporary afresh.

    Returns ``sweep(steps, polish=False)``, which does the same arithmetic
    in the same order, written as plain expressions: substituted for
    ``_sweeper``, it must leave every ``hermitian_eigen`` result unchanged
    bit for bit.  Every pair of a step is rotated, odd n's dummy pair too,
    whose zero pivot takes the dead-pivot arithmetic and the identity
    rotation; only the writes of the closed-form entries are cut to the
    ``live`` pairs, which ``written`` covers.  Each pair's real block K is
    written entry by entry here, not through ``_block_pattern``.
    """

    def sweep(steps, polish=False):
        for step in steps:
            _jacobi_step(aw, step, written, live, polish)

    return sweep


def _jacobi_step(aw, step, written, live, polish):
    gather, offsets = step
    size, planes = aw.shape[1], aw.shape[2]
    half, width = size // 2, 2 * planes
    zeros, diagonal_p, diagonal_q = np.split(written, [written.size - 2 * live, written.size - live])
    entries = aw.take(offsets).reshape(planes + 2, half)
    apq = np.zeros((2, half))  # Im a_pq, Re a_pq: a real aw has no Im
    apq[2 - planes :] = entries[:planes]
    app, aqq = entries[planes], entries[planes + 1]
    r = np.hypot(apq[1], apq[0])
    a = aw[0]
    flat = a.reshape(-1)
    if polish and _negligible(r, app, aqq):
        rows = aw.take(gather, axis=1)
        aw[1] = rows[1]
        rows[0].take(gather, axis=2, out=a, mode="clip")
        flat[zeros] = 0.0
        return
    dead = r < np.finfo(np.float64).tiny
    r[dead] = 0.0
    sin, cos = np.where(dead, [[0.0], [1.0]], apq) / np.where(dead, 1.0, r)
    gap = aqq - app
    r2 = r + r
    t = np.copysign(r2, gap) / (np.abs(gap) + np.hypot(gap, r2) + dead)
    c = 1.0 / np.hypot(1.0, t)
    s = t * c
    # K = [[c·I, -s·R], [s·I, c·R]], R = [[cos φ, -sin φ], [sin φ, cos φ]]
    # cut to the planes; the columns get K·D, D negating the Im planes.
    k = np.zeros((half, width, width))
    for i in range(planes):
        k[:, i, i] = c
        k[:, planes + i, i] = s
    c_rotation = [[c * cos, -(c * sin)], [c * sin, c * cos]]
    s_rotation = [[s * cos, -(s * sin)], [s * sin, s * cos]]
    for i in range(planes):
        for j in range(planes):
            k[:, i, planes + j] = -s_rotation[i][j]
            k[:, planes + i, planes + j] = c_rotation[i][j]
    conjugate = np.tile([1.0, -1.0][:planes], 2)
    rows = aw.take(gather, axis=1)
    np.matmul(k, rows.reshape(2, half, width, size), out=aw.reshape(2, half, width, size))
    columns = a.transpose(2, 1, 0).take(gather, axis=0)
    np.matmul(k * conjugate, columns.reshape(half, width, size), out=a.reshape(half, width, size))
    shift = (t * r)[:live]
    flat[diagonal_p] = app[:live] - shift
    flat[diagonal_q] = aqq[:live] + shift
    flat[zeros] = 0.0


def format_matrix_by_entry(a, fmt="csv"):
    """The matrix file text, one entry at a time through ``complex(entry)``.

    Each part is ``repr(float)``; an entry with a zero imaginary part is
    its real part alone, any other ``a+bi`` or ``a-bi`` with |b|.
    """

    def part(x):
        return repr(float(x))

    def token(value):
        z = complex(value)
        if z.imag == 0.0:
            return part(z.real)
        return f"{part(z.real)}{'+' if z.imag > 0.0 else '-'}{part(abs(z.imag))}i"

    delimiter = {"csv": ",", "tsv": "\t"}[fmt]
    arr = np.asarray(a)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return "\n".join(delimiter.join(token(entry) for entry in row) for row in arr) + "\n"


def characteristic_coefficients_3x3(matrix):
    """Exact (c2, c1, c0) with det(xI - M) = x^3 - c2 x^2 + c1 x - c0.

    Entries must be Gaussian integers so every coefficient is an exact
    integer.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    a, b, c = m[0, 0].real, m[1, 1].real, m[2, 2].real
    d, e, f = m[0, 1], m[0, 2], m[1, 2]
    c2 = a + b + c
    c1 = a * b - _abs2(d) + a * c - _abs2(e) + b * c - _abs2(f)
    c0 = (
        a * b * c
        - a * _abs2(f)
        - b * _abs2(e)
        - c * _abs2(d)
        + 2.0 * (d * f * e.conjugate()).real
    )
    for value in (c2, c1, c0):
        assert value == round(value), "non-integer characteristic coefficient"
    return int(round(c2)), int(round(c1)), int(round(c0))


def hermitian_3x3_eigenvalues(matrix):
    """Descending eigenvalues of a Gaussian-integer Hermitian 3x3 matrix."""
    c2, c1, c0 = characteristic_coefficients_3x3(matrix)
    return real_cubic_roots(c2, c1, c0)


def _integer_root(coeffs):
    """An integer root of the monic integer polynomial, or None."""
    constant = coeffs[-1]
    if constant == 0:
        return 0
    bound = abs(constant)
    candidates = []
    for k in range(1, bound + 1):
        if bound % k == 0:
            candidates.extend((k, -k))
    for candidate in candidates:
        value = 0
        for coefficient in coeffs:
            value = value * candidate + coefficient
        if value == 0:
            return candidate
    return None


def _deflate(coeffs, root):
    """Exact synthetic division of a monic integer polynomial by (x - root)."""
    out = [coeffs[0]]
    for coefficient in coeffs[1:-1]:
        out.append(coefficient + root * out[-1])
    return out


def _quadratic_roots(coeffs):
    """Real roots of monic x^2 + bx + c with integer coefficients."""
    _, b, c = coeffs
    disc = b * b - 4 * c
    if disc <= 0:
        return (-b / 2.0, -b / 2.0)
    root = math.sqrt(disc)
    if b == 0:
        return (root / 2.0, -root / 2.0)
    q = -(b + math.copysign(root, b)) / 2.0
    pair = (q, c / q)
    return (max(pair), min(pair))


def _polish(coeffs, x, iterations=3):
    degree = len(coeffs) - 1
    for _ in range(iterations):
        value = 0.0
        for coefficient in coeffs:
            value = value * x + coefficient
        slope = 0.0
        for i, coefficient in enumerate(coeffs[:-1]):
            slope = slope * x + (degree - i) * coefficient
        if slope == 0.0:
            break
        x -= value / slope
    return x


def _trig_cubic_roots(coeffs):
    """All-real roots of monic x^3 + b2 x^2 + b1 x + b0, no rational roots.

    With rational (hence multiple) roots already deflated away the
    remaining roots are simple, where the trigonometric formula plus
    Newton polish is accurate to a few ulps.
    """
    _, b2, b1, b0 = coeffs
    p = b1 - b2 * b2 / 3.0
    q = 2.0 * b2**3 / 27.0 - b2 * b1 / 3.0 + b0
    amplitude = 2.0 * math.sqrt(max(-p / 3.0, 0.0))
    if amplitude == 0.0:
        return tuple(_polish(coeffs, -b2 / 3.0) for _ in range(3))
    argument = min(1.0, max(-1.0, 3.0 * q / (p * amplitude)))
    theta = math.acos(argument) / 3.0
    roots = [
        _polish(coeffs, amplitude * math.cos(theta - 2.0 * math.pi * k / 3.0) - b2 / 3.0)
        for k in range(3)
    ]
    return tuple(sorted(roots, reverse=True))


def real_cubic_roots(c2, c1, c0):
    """Descending roots of x^3 - c2 x^2 + c1 x - c0, all known real."""
    coeffs = [1, -int(c2), int(c1), -int(c0)]
    found = []
    while len(coeffs) > 2:
        root = _integer_root(coeffs)
        if root is None:
            break
        found.append(float(root))
        coeffs = _deflate(coeffs, root)
    degree = len(coeffs) - 1
    if degree == 1:
        found.append(float(-coeffs[1]))
    elif degree == 2:
        found.extend(_quadratic_roots(coeffs))
    elif degree == 3:
        found.extend(_trig_cubic_roots(coeffs))
    return tuple(sorted(found, reverse=True))
