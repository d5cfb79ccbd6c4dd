"""Core matrix operations and the Jacobi eigensolver."""

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lowdin as lo
import lowdin.linalg
from lowdin.errors import DimensionMismatch, NoConvergence, NotHermitian, SingularMetric
from lowdin.linalg import _from_planes, _layouts, _sweeper, _to_planes, _work_array
from lowdin.ortho import UNITARY_TOL

from conftest import load_script, random_full_rank, random_matrix, random_unitary
from oracles import (
    gram_metric,
    hermitian_2x2_power,
    jacobi_rotations,
    jacobi_sweeper_by_steps,
    phase_convention_by_columns,
)

I2 = np.eye(2)
GOLDEN_HI = (3.0 + math.sqrt(5.0)) / 2.0
GOLDEN_LO = (3.0 - math.sqrt(5.0)) / 2.0
# The matrix of TestHermitianEigen.test_no_convergence_with_one_sweep.
NO_CONVERGENCE_4X4 = np.array(
    [
        [4.0, 1.0, 1.0, 1.0],
        [1.0, 3.0, 1.0, 1.0],
        [1.0, 1.0, 2.0, 1.0],
        [1.0, 1.0, 1.0, 1.0],
    ]
)


class TestGramMetric:
    """The tests' Gram oracle M = V†V, which other tests compare against."""

    def test_orthonormal_input(self):
        assert np.array_equal(gram_metric(I2), I2)

    def test_shear(self):
        v = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert np.array_equal(gram_metric(v), np.array([[1.0, 1.0], [1.0, 2.0]]))

    def test_single_column(self):
        assert np.array_equal(gram_metric(np.array([[1.0], [1.0]])), np.array([[2.0]]))

    def test_exactly_hermitian(self, rng):
        v = random_matrix(rng, 6, 4, complex_=True)
        m = gram_metric(v)
        assert lo.max_abs(m - m.conj().T) == 0.0

    def test_positive_semidefinite_up_to_rounding(self, rng):
        for _ in range(20):
            v = random_matrix(rng, 5, 5)
            d = lo.hermitian_eigen(gram_metric(v)).eigenvalues
            assert d[-1] >= -len(d) * np.finfo(float).eps * d[0]

    def test_overflow_is_an_error(self):
        with pytest.raises(OverflowError):
            gram_metric(1e200 * I2)
        with pytest.raises(OverflowError):
            lo.factorize(1e200 * I2)


class TestHermitianEigen:
    def test_already_diagonal(self):
        eigen = lo.hermitian_eigen(np.diag([2.0, 1.0]))
        assert np.array_equal(eigen.eigenvalues, [2.0, 1.0])
        assert np.array_equal(eigen.eigenvectors, I2)

    def test_exchange_matrix(self):
        # Characteristic polynomial x^2 - 1: eigenvalues +-1 with
        # eigenvectors (1, 1)/sqrt(2) and (1, -1)/sqrt(2) after phase fixing.
        eigen = lo.hermitian_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert eigen.eigenvalues == pytest.approx([1.0, -1.0], abs=1e-15)
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(eigen.eigenvectors, [[s, s], [s, -s]], atol=1e-15)

    def test_golden_spectrum(self):
        # trace 3, determinant 1 force the roots of x^2 - 3x + 1.
        eigen = lo.hermitian_eigen(np.array([[1.0, 1.0], [1.0, 2.0]]))
        assert eigen.eigenvalues == pytest.approx([GOLDEN_HI, GOLDEN_LO], abs=1e-14)

    def test_descending_order_and_invariants(self, rng):
        for n in (1, 2, 3, 5, 8):
            a = random_matrix(rng, n, n, complex_=True)
            h = (a + a.conj().T) / 2.0
            eigen = lo.hermitian_eigen(h)
            d, u = eigen.eigenvalues, eigen.eigenvectors
            assert np.all(np.diff(d) <= 0.0)
            assert lo.max_abs(u.conj().T @ u - np.eye(n)) <= 1e-12 * n
            assert lo.max_abs((u * d) @ u.conj().T - h) <= 1e-10 * (1.0 + np.max(np.abs(d)))

    def test_phase_convention(self, rng):
        a = random_matrix(rng, 6, 6, complex_=True)
        eigen = lo.hermitian_eigen((a + a.conj().T) / 2.0)
        for j in range(6):
            column = eigen.eigenvectors[:, j]
            k = int(np.argmax(np.abs(column)))
            assert column[k].imag == 0.0
            assert column[k].real >= 0.0

    def test_zero_matrix(self):
        eigen = lo.hermitian_eigen(np.zeros((3, 3)))
        assert np.array_equal(eigen.eigenvalues, np.zeros(3))
        assert np.array_equal(eigen.eigenvectors, np.eye(3))

    def test_one_by_one(self):
        eigen = lo.hermitian_eigen([[-4.0]])
        assert eigen.eigenvalues[0] == -4.0
        assert eigen.eigenvectors[0, 0] == 1.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            lo.hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("scale", [1e-20, 1e20])
    def test_rejects_non_hermitian_at_any_scale(self, scale):
        # The bound is relative to max|M|, so the verdict does not depend on scale.
        with pytest.raises(NotHermitian):
            lo.hermitian_eigen(scale * np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            lo.hermitian_eigen(np.ones((2, 3)))

    def test_no_convergence_with_one_sweep(self):
        m = np.array(
            [
                [4.0, 1.0, 1.0, 1.0],
                [1.0, 3.0, 1.0, 1.0],
                [1.0, 1.0, 2.0, 1.0],
                [1.0, 1.0, 1.0, 1.0],
            ]
        )
        cfg = lo.ToleranceConfig(max_sweeps=1)
        with pytest.raises(NoConvergence) as excinfo:
            lo.hermitian_eigen(m, cfg)
        assert excinfo.value.sweeps == 1
        assert excinfo.value.off_norm > 0.0

    def test_sweeps_is_the_smallest_limit_that_converges(self):
        # One test decides every sweep, so a limit of ``sweeps`` returns the
        # same solve and one sweep fewer raises.
        m = NO_CONVERGENCE_4X4
        sweeps = lo.hermitian_eigen(m).sweeps
        assert lo.hermitian_eigen(m, lo.ToleranceConfig(max_sweeps=sweeps)).sweeps == sweeps
        with pytest.raises(NoConvergence) as excinfo:
            lo.hermitian_eigen(m, lo.ToleranceConfig(max_sweeps=sweeps - 1))
        assert excinfo.value.sweeps == sweeps - 1
        assert excinfo.value.off_norm > 0.0

    def test_accepts_tiny_asymmetry_and_symmetrizes(self):
        m = np.array([[1.0, 1.0 + 1e-13], [1.0, 2.0]])
        eigen = lo.hermitian_eigen(m)
        assert eigen.eigenvalues == pytest.approx([GOLDEN_HI, GOLDEN_LO], abs=1e-12)


def ring_steps(n, planes):
    """The pairs of each step of a ``_layouts`` sweep, in stored order and orientation."""
    last, _, gather = _layouts(n, planes)[:3]
    layout = last
    for _ in range(last.size - 1):
        layout = layout[gather]
        yield layout.reshape(-1, 2).tolist()


def circle_method(n):
    """The pair set of each step of the textbook round-robin sweep, labelled as before the ring.

    Player 0 keeps its seat while the others move one place round a ring
    per step, and seat j plays seat size - 1 - j (odd n gets a dummy
    player n).  Steps 0 and 1 join the players in one cycle, and they are
    labelled 0, 1, ..., size - 1 along it from player 0, so step 0 is
    (0, 1), (2, 3), ... and step 1 is (1, 2), (3, 4), ..., (0, size - 1).
    """
    size = n + n % 2
    steps = []
    for k in range(size - 1):
        seated = [0] + [1 + (j - 1 - k) % (size - 1) for j in range(1, size)]
        steps.append([(seated[j], seated[size - 1 - j]) for j in range(size // 2)])
    partners = [{p: q for pair in step for p, q in (pair, pair[::-1])} for step in (steps * 2)[:2]]
    cycle = [0]
    while len(cycle) < size:
        cycle.append(partners[(len(cycle) - 1) % 2][cycle[-1]])
    label = {player: i for i, player in enumerate(cycle)}
    return [{tuple(sorted((label[p], label[q]))) for p, q in step} for step in steps]


class TestRoundRobinSchedule:
    """``_layouts``' ring: one gather table runs every step of a round-robin sweep."""

    @pytest.mark.parametrize("n", range(1, 130))
    def test_each_pair_once_per_sweep_in_disjoint_steps(self, n):
        size = n + n % 2
        for planes in (1, 2):
            steps = list(ring_steps(n, planes))
            assert len(steps) == size - 1
            seen = []
            for step in steps:
                assert sorted(i for pair in step for i in pair) == list(range(size))
                seen.extend(tuple(sorted(pair)) for pair in step if n not in pair)  # n is odd n's dummy
            assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]

    @pytest.mark.parametrize("n", range(1, 130, 2))
    def test_odd_n_puts_the_dummy_pair_last_in_every_step(self, n):
        # The sweep rotates the first n // 2 pairs of a step only.
        for planes in (1, 2):
            for step in ring_steps(n, planes):
                assert n in step[-1]
                assert all(n not in pair for pair in step[:-1])

    @pytest.mark.parametrize("n", range(1, 130))
    def test_steps_0_and_1_hold_every_neighbour_pair(self, n):
        # The QR/LQ rounds leave the largest pivots of L†·L next to its
        # diagonal, so each sweep opens on them.
        for planes in (1, 2):
            opening = [tuple(sorted(pair)) for step in list(ring_steps(n, planes))[:2] for pair in step]
            assert {(i, i + 1) for i in range(n - 1)} <= set(opening)

    @pytest.mark.parametrize("n", range(1, 130))
    def test_a_sweep_ends_in_the_layout_it_began_in(self, n):
        for planes in (1, 2):
            last, position, gather = _layouts(n, planes)[:3]
            layout = last
            for _ in range(last.size - 1):
                layout = layout[gather]
            assert np.array_equal(layout, last)
            assert np.array_equal(last[position], np.arange(last.size))

    @pytest.mark.parametrize("n", range(1, 130))
    def test_tables_grow_linearly_with_the_size(self, n):
        # last, position and gather hold one entry per index, entries at
        # most two per index, written at most 2·planes: nothing per step.
        size = n + n % 2
        for planes in (1, 2):
            nbytes = sum(table.nbytes for table in _layouts(n, planes))
            assert nbytes <= (5 + 2 * planes) * size * np.dtype(np.intp).itemsize

    @pytest.mark.parametrize("n", range(1, 130))
    def test_steps_are_the_circle_method_of_the_textbook_labelling(self, n):
        # Every step for even n; steps 0 and 1 for odd n, whose labels run
        # backwards round the ring (the forward labels took more sweeps).
        expected = circle_method(n)
        for planes in (1, 2):
            for k, step in enumerate(ring_steps(n, planes)):
                if n % 2 == 0 or k < 2:
                    assert {tuple(sorted(pair)) for pair in step} == expected[k], k


class TestLayoutCache:
    @pytest.mark.parametrize("planes", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_repeat_call_returns_the_same_read_only_tables(self, n, planes):
        tables = _layouts(n, planes)
        assert len(tables) == 5
        assert all(again is table for again, table in zip(_layouts(n, planes), tables))
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[...] = 0


def _hermitian_cases(rng, n, complex_):
    a = random_matrix(rng, n, n, complex_)
    q = random_unitary(rng, n, complex_)
    repeated = np.resize([2.0, -1.0, 0.5], n)
    v = random_matrix(rng, n, max(1, n // 2), complex_)
    return {
        "random": (a + a.conj().T) / 2.0,
        "repeated": (q * repeated) @ q.conj().T,
        "diagonal": np.diag(rng.uniform(-1.0, 1.0, n)),
        "rank_deficient_sscp": v @ v.conj().T,
    }


class TestAgainstLapack:
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 33, 64])
    def test_matches_eigh(self, rng, n, complex_):
        for name, h in _hermitian_cases(rng, n, complex_).items():
            eigen = lo.hermitian_eigen(h)
            d, u = eigen.eigenvalues, eigen.eigenvectors
            reference = np.linalg.eigh(h)[0][::-1]
            scale = np.max(np.abs(reference))
            assert lo.max_abs(d - reference) <= 1e-13 * scale, name
            assert lo.max_abs(u.conj().T @ u - np.eye(n)) <= UNITARY_TOL * n, name

    def test_repeated_calls_are_bitwise_equal(self, rng):
        for n in (5, 8, 17):
            for h in _hermitian_cases(rng, n, complex_=True).values():
                first, second = lo.hermitian_eigen(h), lo.hermitian_eigen(h)
                assert np.array_equal(first.eigenvalues, second.eigenvalues)
                assert np.array_equal(first.eigenvectors, second.eigenvectors)
                assert first.sweeps == second.sweeps


def _sweeps_needed(m, cfg=lo.DEFAULT_TOLERANCES):
    """The smallest ``max_sweeps`` at which the solve does not raise."""
    needed = 1
    while True:
        try:
            lo.hermitian_eigen(m, dataclasses.replace(cfg, max_sweeps=needed))
            return needed
        except NoConvergence:
            needed += 1


class TestNoSweepPastTheRelativeTest:
    """An input diagonal to the relative test takes no sweep, and no solve sweeps past it."""

    @pytest.mark.parametrize("complex_", [False, True])
    def test_diagonal_to_relative_eps_takes_no_sweep(self, complex_):
        # Every pivot is below ε·√(a_pp·a_qq) >= 1.5e-16, so every pair
        # passes the √n·ε test before any sweep.
        d = np.array([1.0, 3.0, 0.5, 2.0])
        off = 1e-17 * (1.0 + 1.0j) if complex_ else 1e-17
        m = np.diag(d) + np.triu(np.full((4, 4), off), 1) + np.tril(np.full((4, 4), np.conj(off)), -1)
        eigen = lo.hermitian_eigen(m)
        assert eigen.sweeps == 0
        assert np.array_equal(eigen.eigenvalues, [3.0, 2.0, 1.0, 0.5])
        assert np.array_equal(eigen.eigenvectors, np.eye(4)[:, [1, 3, 0, 2]])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 32),
        kind=st.sampled_from(["psd", "indefinite", "rank_deficient"]),
        complex_=st.booleans(),
    )
    def test_stops_once_every_pair_passes_the_relative_test(self, seed, n, kind, complex_):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, n, n if kind != "rank_deficient" else int(rng.integers(1, n)), complex_)
        h = (a + a.conj().T) / 2.0 if kind == "indefinite" else a @ a.conj().T
        eigen = lo.hermitian_eigen(h)
        assert eigen.sweeps - _sweeps_needed(h) in (0, 1)
        d, u = eigen.eigenvalues, eigen.eigenvectors
        reference = np.linalg.eigh(h)[0][::-1]
        scale = np.max(np.abs(reference))
        assert lo.max_abs(d - reference) <= 1e-13 * scale
        assert lo.max_abs(u.conj().T @ u - np.eye(n)) <= UNITARY_TOL * n
        assert lo.max_abs((u * d) @ u.conj().T - h) <= 1e-13 * n * scale


class TestRelativeStop:
    """Sweeps run while a pair fails |a_pq| <= √n·ε·√(d'_p·d'_q), with d'_i =
    max|a_ii| for a diagonal entry at or below the floor (n·ε)²·max|a_ii|."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 24),
        kind=st.sampled_from(["psd", "indefinite", "rank_deficient"]),
        complex_=st.booleans(),
    )
    def test_sweeps_equals_the_smallest_limit_that_does_not_raise(self, seed, n, kind, complex_):
        # No sweep is run past the rule or cut off silently by the limit
        # (which is at least 1, so an input that takes no sweep needs 1).
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, n, n if kind != "rank_deficient" else int(rng.integers(1, n + 1)), complex_)
        h = (a + a.conj().T) / 2.0 if kind == "indefinite" else a @ a.conj().T
        cfg = lo.DEFAULT_TOLERANCES
        assert max(lo.hermitian_eigen(h, cfg).sweeps, 1) == _sweeps_needed(h, cfg)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_sweeps_until_the_small_eigenvalues_pass_the_relative_test(self, complex_):
        # A global off-diagonal target once left these 64 x 64 V at
        # cond(M) = 1e18 with orthonormality 5.5e-10 (real) and 1.1e-11
        # (complex): the block of small eigenvalues had not converged
        # relative to itself.  The relative test sweeps on until it has, to
        # rounding.
        seed = 27 if complex_ else 0
        v = load_script("accuracy").controlled_matrix(np.random.default_rng(seed), (64, 64), 1e18, complex_)
        f = lo.factorize(v)
        assert f.eigen.sweeps == 4
        assert max(f.residuals("phi_orthonormality", "lambda_orthonormality").values()) <= 1e-13

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", [5, 12, 33, 64])
    def test_a_rank_deficient_input_takes_no_more_sweeps(self, rng, n, complex_):
        # B·B† given straight to the solver: the rounding noise of its zero
        # eigenvalues, about ε·max|a_ii|, lies above the floor (n·ε)², so
        # the pairs that hold it converge relative to themselves.  That
        # takes no more than twice the sweeps of a full-rank B·B† of its
        # size (at most 15 against 9 at n = 64), and its eigenvalues are as
        # accurate as LAPACK's.
        b = random_matrix(rng, n, max(1, n // 3), complex_)
        h = b @ b.conj().T
        eigen = lo.hermitian_eigen(h)
        full = random_matrix(rng, n, n, complex_)
        assert eigen.sweeps <= 2 * lo.hermitian_eigen(full @ full.conj().T).sweeps
        reference = np.linalg.eigh(h)[0][::-1]
        assert lo.max_abs(eigen.eigenvalues - reference) <= 1e-13 * reference[0]


class TestKernelPlanes:
    """The Jacobi work array has one real plane for real (symmetrized) input, two otherwise."""

    @staticmethod
    def spy_on_sweeps(monkeypatch):
        seen = []
        sweeper = lowdin.linalg._sweeper

        def spy(aw, *args):
            seen.append(aw.shape[2])
            return sweeper(aw, *args)

        monkeypatch.setattr(lowdin.linalg, "_sweeper", spy)
        return seen

    def test_real_input_has_one_plane(self, rng, monkeypatch):
        seen = self.spy_on_sweeps(monkeypatch)
        a = random_matrix(rng, 9, 9)
        assert lo.hermitian_eigen((a + a.T) / 2.0).eigenvectors.dtype == np.complex128
        lo.factorize(random_full_rank(rng, 8, 5)).residuals()
        lo.hermitian_eigen(((a + a.T) / 2.0).astype(complex))
        assert seen and set(seen) == {1}

    def test_one_imaginary_pair_runs_on_two_planes(self, rng, monkeypatch):
        n = 9
        a = random_matrix(rng, n, n)
        h = (a + a.T) / 2.0 + 0j
        h[2, 6] += 0.25j
        h[6, 2] -= 0.25j
        seen = self.spy_on_sweeps(monkeypatch)
        eigen = lo.hermitian_eigen(h)
        assert seen and set(seen) == {2}
        reference = np.linalg.eigh(h)[0][::-1]
        scale = np.max(np.abs(reference))
        assert lo.max_abs(eigen.eigenvalues - reference) <= 1e-13 * n * scale
        u = eigen.eigenvectors
        assert lo.max_abs((u * eigen.eigenvalues) @ u.conj().T - h) <= 1e-13 * n * scale

    @pytest.mark.parametrize("n", [2, 9, 33, 64])
    def test_conjugate_input_gives_conjugate_eigenvectors_bitwise(self, rng, n):
        # Conjugating M negates its imaginary planes and every sin φ exactly,
        # and each entry of a pair's block is a coefficient that is even or
        # odd in φ, so every product and sum is the same up to exact signs.
        a = random_matrix(rng, n, n, complex_=True)
        for h in (a @ a.conj().T, (a + a.conj().T) / 2.0):
            eigen, conjugate = lo.hermitian_eigen(h), lo.hermitian_eigen(h.conj())
            assert np.array_equal(conjugate.eigenvalues, eigen.eigenvalues)
            assert np.array_equal(conjugate.eigenvectors, eigen.eigenvectors.conj())
            assert conjugate.sweeps == eigen.sweeps

    def test_real_and_complex_typed_input_are_bitwise_equal(self, rng):
        a = random_matrix(rng, 11, 11)
        h = (a + a.T) / 2.0
        v = random_full_rank(rng, 8, 5)
        real, typed = lo.factorize(v), lo.factorize(v.astype(complex))
        pairs = [
            (lo.hermitian_eigen(h), lo.hermitian_eigen(h.astype(complex))),
            (real.eigen, typed.eigen),
        ]
        for first, second in pairs:
            assert np.array_equal(first.eigenvalues, second.eigenvalues)
            assert np.array_equal(first.eigenvectors, second.eigenvectors)
            assert first.sweeps == second.sweeps
        assert np.array_equal(real.phi.matrix, typed.phi.matrix)


class TestJacobiStep:
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 8, 13, 19])
    def test_step_matches_per_pair_rotations(self, rng, n, complex_):
        size = n + n % 2
        last, _, gather, entries, written = _layouts(n, 2 if complex_ else 1)
        eps = np.finfo(float).eps
        after = last
        for pairs in ring_steps(n, 2 if complex_ else 1):
            before, after = after, after[gather]  # step 0 starts from the sweep's last
            x = random_matrix(rng, n, n, complex_)
            a = np.zeros((size, size), dtype=x.dtype)
            a[:n, :n] = (x + x.conj().T) / 2.0
            w = random_unitary(rng, size, complex_)
            aw = _to_planes(np.stack((a[before][:, before], w[before])))
            _sweeper(aw, gather, entries, written, n // 2)(1)
            a_ref, w_ref = jacobi_rotations(a, w, pairs)
            a_new, w_new = _from_planes(aw)
            assert lo.max_abs(a_new - a_ref[after][:, after]) <= 8 * eps * lo.max_abs(a)
            assert lo.max_abs(w_new - w_ref[after]) <= 8 * eps * lo.max_abs(w)


def _oracle_cases(rng, n, complex_):
    """Hermitian inputs of size n of every kind the sweep treats apart."""
    a = random_matrix(rng, n, n, complex_)
    b = random_matrix(rng, n, max(1, n // 3), complex_)
    psd = a @ a.conj().T
    # Diagonal 1, 1, 2, 3, ... with one subnormal pivot beside a normal one
    # (complex for complex input), so the solve meets a dead pivot that
    # is not the dummy index of odd n.
    tiny_pivot = np.diag(np.maximum(np.arange(n), 1.0)).astype(a.dtype)
    if n >= 3:
        tiny_pivot[0, 1] = tiny_pivot[1, 0] = 1e-310
        tiny_pivot[0, 2] = 1e-3j if complex_ else 1e-3
        tiny_pivot[2, 0] = np.conj(tiny_pivot[0, 2])
    return {
        "psd": psd,
        "indefinite": (a + a.conj().T) / 2.0,
        "rank_deficient": b @ b.conj().T,
        "zero": np.zeros((n, n), dtype=a.dtype),
        "identity": np.eye(n, dtype=a.dtype),
        "diagonal": np.diag(rng.uniform(-1.0, 1.0, n)).astype(a.dtype),
        "tiny_pivot": tiny_pivot,
        "scaled_1e300": psd * (1e300 / lo.max_abs(psd)),
        "scaled_1e-300": psd * 1e-300,
    }


def _solve_outcome(h, cfg):
    """Everything ``hermitian_eigen`` returns or raises, as comparable bits."""
    try:
        eigen = lo.hermitian_eigen(h, cfg)
    except NoConvergence as exc:
        return "NoConvergence", exc.sweeps, np.float64(exc.off_norm).tobytes()
    return eigen.eigenvalues.tobytes(), eigen.eigenvectors.tobytes(), eigen.sweeps


class TestSweepMatchesPerStepOracle:
    """``_sweeper``'s sweeps do the per-step kernel's arithmetic in the same order."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", [*range(1, 20), 33, 63, 64, 65])
    def test_bitwise_equal_results(self, rng, monkeypatch, n, complex_):
        cases = _oracle_cases(rng, n, complex_)
        configs = (lo.DEFAULT_TOLERANCES, lo.ToleranceConfig(max_sweeps=2))
        swept = {(name, k): _solve_outcome(h, cfg) for name, h in cases.items() for k, cfg in enumerate(configs)}
        monkeypatch.setattr(lowdin.linalg, "_sweeper", jacobi_sweeper_by_steps)
        for (name, k), outcome in swept.items():
            assert _solve_outcome(cases[name], configs[k]) == outcome, (name, configs[k].max_sweeps)


class _DeadPivotBranch(Exception):
    pass


class _NumpyWithoutWhere:
    """numpy, except that ``where``, which only the dead-pivot branch of a sweep uses, raises."""

    def __getattr__(self, name):
        if name == "where":
            raise _DeadPivotBranch
        return getattr(np, name)


class TestDeadPivotBranch:
    """Odd n's dummy pair is left out, so only a real zero or subnormal pivot takes the branch."""

    @staticmethod
    def sweep_once(h, monkeypatch):
        """One sweep over h from the layout ``hermitian_eigen`` starts in, without ``np.where``."""
        n = h.shape[0]
        a = lowdin.linalg._real_valued(h)
        last, _, gather, entries, written = _layouts(n, 1 if a.dtype == np.float64 else 2)
        sweep = _sweeper(_work_array(a, last), gather, entries, written, n // 2)
        with monkeypatch.context() as patch:
            patch.setattr(lowdin.linalg, "np", _NumpyWithoutWhere())
            sweep(last.size - 1)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", [3, 5, 9, 17, 33, 63, 65])
    def test_odd_n_never_enters_it(self, rng, monkeypatch, n, complex_):
        a = random_matrix(rng, n, n, complex_)
        self.sweep_once(a @ a.conj().T, monkeypatch)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_a_subnormal_pivot_still_enters_it(self, rng, monkeypatch, n, complex_):
        with pytest.raises(_DeadPivotBranch):
            self.sweep_once(_oracle_cases(rng, n, complex_)["tiny_pivot"], monkeypatch)


class TestThreadSafety:
    """The sweep's buffers belong to one call, so concurrent solves do not mix."""

    def test_concurrent_factorizations_match_the_serial_ones(self, rng):
        inputs = [random_full_rank(rng, 20, 9, complex_=k % 2 == 1) for k in range(8)]

        def outcome(v):
            f = lo.factorize(v)
            arrays = (f.eigen.eigenvalues, f.eigen.eigenvectors, f.lam.matrix, f.phi.matrix)
            return f.eigen.sweeps, *(x.tobytes() for x in arrays)

        serial = [outcome(v) for v in inputs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in range(5):
                    assert list(pool.map(outcome, inputs, timeout=120)) == serial
        finally:
            sys.setswitchinterval(interval)


class TestNoStateOutlivesASolve:
    """Each solve binds its own buffers and methods, so interleaved solves match lone ones."""

    def test_solves_interleaved_mid_sweep_match_lone_ones(self, rng, monkeypatch):
        inputs = []
        for n in (1, 2, 3, 8, 9, 33, 64):
            for complex_ in (False, True):
                x = random_matrix(rng, n, n, complex_)
                inputs.append(x @ x.conj().T)

        def outcome(h):
            eigen = lo.hermitian_eigen(h)
            return eigen.eigenvalues.tobytes(), eigen.eigenvectors.tobytes(), eigen.sweeps

        alone = [outcome(h) for h in inputs]
        # In the middle of every sweep, between two steps, another whole
        # solve runs in the same thread, cycling through every size and
        # plane count.
        sweeper, interleaved = lowdin.linalg._sweeper, []

        def interleaving_sweeper(aw, gather, entries, written, live):
            sweep = sweeper(aw, gather, entries, written, live)

            def halves(steps):
                middle = steps // 2 or 1
                sweep(middle)
                j = len(interleaved) % len(inputs)
                interleaved.append(j)
                with monkeypatch.context() as patch:
                    patch.setattr(lowdin.linalg, "_sweeper", sweeper)
                    assert outcome(inputs[j]) == alone[j], j
                sweep(steps - middle)

            return halves

        monkeypatch.setattr(lowdin.linalg, "_sweeper", interleaving_sweeper)
        # Largest and smallest alternate, and real with complex.
        order = [i for pair in zip(range(len(inputs)), reversed(range(len(inputs)))) for i in pair]
        for i in order:
            assert outcome(inputs[i]) == alone[i], i
        assert len(interleaved) > len(order)  # most solves sweep more than once


class TestPowerOfTwoScaling:
    def test_huge_entries_are_rotated(self):
        # Before pre-scaling the norm overflowed and the unrotated
        # diagonal [3, 1] came back.
        eigen = lo.hermitian_eigen(1e160 * np.array([[1.0, 1.0], [1.0, 3.0]]))
        expected = 1e160 * np.array([2.0 + math.sqrt(2.0), 2.0 - math.sqrt(2.0)])
        assert eigen.eigenvalues == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("k", [-900, -500, -1, 1, 300, 900])
    def test_eigenvectors_are_bitwise_scale_invariant(self, rng, k):
        a = random_matrix(rng, 6, 6, complex_=True)
        m = (a + a.conj().T) / 2.0
        base, scaled = lo.hermitian_eigen(m), lo.hermitian_eigen(np.ldexp(1.0, k) * m)
        assert np.array_equal(scaled.eigenvectors, base.eigenvectors)
        assert np.array_equal(scaled.eigenvalues, np.ldexp(base.eigenvalues, k))

    @pytest.mark.parametrize(
        "entries",
        [
            [[1.0, 1e-310], [1e-310, 1.0]],
            [[0.5, 5e-324 * (1 + 1j)], [5e-324 * (1 - 1j), 0.75]],
            [[1e300, 1e-10], [1e-10, 2e300]],
            # Normal off-diagonal entries keep the sweeps going, so the
            # subnormal pivot (0, 1) is reached; apq/|apq| was NaN there.
            [[1.0, 1e-310, 1e-3], [1e-310, 1.0, 0.0], [1e-3, 0.0, 2.0]],
            [[0.5, 5e-324 * (1 + 1j), 1e-3], [5e-324 * (1 - 1j), 0.75, 0.0], [1e-3, 0.0, 0.25]],
        ],
    )
    def test_subnormal_pivots_give_unitary_eigenvectors(self, entries):
        m = np.array(entries)
        n = m.shape[0]
        eigen = lo.hermitian_eigen(m)
        u = eigen.eigenvectors
        assert np.all(np.isfinite(u))
        assert lo.max_abs(u.conj().T @ u - np.eye(n)) <= UNITARY_TOL * n
        reference = np.linalg.eigvalsh(m)[::-1]
        assert lo.max_abs(eigen.eigenvalues - reference) <= 1e-14 * np.max(np.abs(reference))

    @pytest.mark.parametrize(
        "entries",
        [
            [[1e308, 0.0], [0.0, 1.0]],
            [[0.0, 1e308], [1e308, 0.0]],
            [[1e308, 5e307j], [-5e307j, 1e307]],
        ],
    )
    def test_entries_near_overflow(self, entries):
        # (M + M†)/2 overflows here unless M is scaled down first.
        m = np.array(entries)
        eigen = lo.hermitian_eigen(m)
        reference = np.linalg.eigvalsh(m / 1024.0)[::-1] * 1024.0
        assert np.all(np.isfinite(eigen.eigenvalues))
        assert lo.max_abs(eigen.eigenvalues - reference) <= 1e-14 * np.max(np.abs(reference))
        u = eigen.eigenvectors
        assert lo.max_abs(u.conj().T @ u - I2) <= UNITARY_TOL * 2

    def test_no_convergence_reports_caller_units(self):
        cfg = lo.ToleranceConfig(max_sweeps=1)
        with pytest.raises(NoConvergence) as base:
            lo.hermitian_eigen(NO_CONVERGENCE_4X4, cfg)
        with pytest.raises(NoConvergence) as scaled:
            lo.hermitian_eigen(np.ldexp(1.0, 400) * NO_CONVERGENCE_4X4, cfg)
        assert scaled.value.off_norm == np.ldexp(base.value.off_norm, 400)


class TestSymmetrizesItsInput:
    """``factorize`` passes T = L†·L as computed; ``hermitian_eigen`` symmetrizes it.

    So T and (T + T†)/2 must give the same solve bit for bit, including
    the products that come out of ``matmul`` not exactly Hermitian.
    """

    def test_unsymmetrized_products_solve_as_their_symmetrized_form(self):
        rng = np.random.default_rng(24)
        draws = [(n, c) for n in (1, 2, 3, 9, 33, 64) for c in (False, True) for _ in range(4)]
        asymmetric = 0
        for n, complex_ in draws:
            v = random_matrix(rng, n + 3, n, complex_=complex_)
            for k in (0, -250, 250):
                r = np.linalg.qr(np.ldexp(1.0, k) * v)[1]
                l_adjoint = np.linalg.qr(r.conj().T, mode="complete")[1]
                t = l_adjoint @ l_adjoint.conj().T
                symmetrized = (t + t.conj().T) / 2.0
                asymmetric += not np.array_equal(t, symmetrized)
                got, expected = lo.hermitian_eigen(t), lo.hermitian_eigen(symmetrized)
                case = (n, complex_, k)
                assert np.array_equal(got.eigenvalues, expected.eigenvalues), case
                assert np.array_equal(got.eigenvectors, expected.eigenvectors), case
                assert got.sweeps == expected.sweeps, case
        assert asymmetric > 0


# V†V = [[2, 1], [1, 2]], whose powers have a closed form.
TALL_2X2_METRIC = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])


class TestHermitianPower:
    """M^(1/2) is the polar factor H; M^(-1/2) is the kernel of Φ = V·M^(-1/2)."""

    def test_identity_inverse_sqrt(self):
        f = lo.factorize(I2)
        assert np.allclose(f.phi.matrix, I2, atol=1e-15)
        assert np.allclose(f.polar.positive, I2, atol=1e-15)

    def test_diagonal_inverse_sqrt(self):
        # M = diag(4, 9), so M^(-1/2) = diag(1/2, 1/3).
        v = np.diag([2.0, 3.0])
        phi = lo.factorize(v).phi.matrix
        assert np.allclose(phi, v @ np.diag([0.5, 1.0 / 3.0]), atol=1e-15)

    def test_inverse_sqrt_against_closed_form(self):
        v = TALL_2X2_METRIC
        f = lo.factorize(v)
        kernel = hermitian_2x2_power(2.0, 2.0, 1.0, -0.5)
        assert lo.max_abs(f.phi.matrix - v @ kernel) <= 1e-12
        assert lo.max_abs(f.polar.positive - hermitian_2x2_power(2.0, 2.0, 1.0, 0.5)) <= 1e-12
        # Φ†Φ = M^(-1/2)·M·M^(-1/2) recovers the identity
        assert lo.verify_orthonormal(f.phi.matrix) <= 1e-8

    def test_sqrt_squares_back(self, rng):
        v = random_matrix(rng, 5, 5)
        m = gram_metric(v)
        root = lo.factorize(v).polar.positive
        cfg = lo.DEFAULT_TOLERANCES
        assert lo.max_abs(root @ root - m) <= cfg.reconstruction_tol * lo.max_abs(m)

    def test_inverse_sqrt_identity_for_moderate_condition(self, rng):
        for _ in range(10):
            v = random_matrix(rng, 4, 4)
            d = lo.hermitian_eigen(gram_metric(v)).eigenvalues
            if d[0] / d[-1] > 1e6:
                continue
            phi = lo.factorize(v).phi.matrix
            assert lo.max_abs(phi.conj().T @ phi - np.eye(4)) <= 1e-8

    def test_singular_metric_diagnostics(self):
        # σ = (1, 1e-16): σ_1 is below max(n, m)·ε·σ_0 = 4.4e-16, so the
        # rank rule rejects V at index 1, with d_1 = 1e-32 and cond(M) inf.
        with pytest.raises(SingularMetric) as excinfo:
            lo.factorize(np.diag([1.0, 1e-16]))
        err = excinfo.value
        assert err.eigenvalue_index == 1
        assert err.eigenvalue == pytest.approx(1e-32)
        assert err.condition == math.inf
        assert str(err) == (
            "singular value 1 = 1.000000e-16 is at or below the rank cutoff "
            "max(n, m)·ε·σ_0 = 4.440892e-16"
        )


class TestPhaseConvention:
    def test_scales_largest_entry_real_nonnegative(self):
        u = np.array([[0.0, 1.0], [1j, 0.0]])
        fixed = lo.apply_phase_convention(u)
        assert np.allclose(fixed, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_tie_goes_to_lowest_row(self):
        s = 1.0 / math.sqrt(2.0)
        u = np.array([[-s], [s]])
        fixed = lo.apply_phase_convention(u)
        assert fixed[0, 0].real > 0.0

    def test_leaves_zero_columns_alone(self):
        u = np.zeros((2, 1), dtype=complex)
        assert np.array_equal(lo.apply_phase_convention(u), u)

    def test_matches_the_column_loop_bitwise(self, rng):
        for trial in range(400):
            n, m = rng.integers(1, 18, 2)
            u = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
            if trial % 4 == 1:
                u = np.round(2.0 * u)  # ties in modulus, signed zeros
            elif trial % 4 == 2:
                u[:, rng.integers(0, m, 2)] = 0.0  # zero columns
            elif trial % 4 == 3:
                u = u * np.ldexp(1.0, int(rng.integers(-1000, 1000)))
            fixed = lo.apply_phase_convention(u)
            assert fixed.tobytes() == phase_convention_by_columns(u).tobytes()


class TestToleranceConfig:
    def test_defaults(self):
        cfg = lo.ToleranceConfig()
        assert cfg.max_sweeps == 64
        assert [f.name for f in dataclasses.fields(cfg)] == ["max_sweeps"]

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"max_sweeps": 0}, ValueError),
            ({"max_sweeps": -1}, ValueError),
            # Any integer type is accepted, and held to the same bound.
            ({"max_sweeps": np.int64(0)}, ValueError),
            ({"max_sweeps": False}, ValueError),
            ({"max_sweeps": -(2**70)}, ValueError),
            # The solver stops at sweeps == max_sweeps, which a
            # non-integer never equals.
            ({"max_sweeps": 1.5}, TypeError),
            ({"max_sweeps": math.nan}, TypeError),
            ({"max_sweeps": "64"}, TypeError),
            # Rank is decided from V itself, by no setting.
            ({"rank_tol": 1e-12}, TypeError),
        ],
    )
    def test_rejects_bad_values(self, kwargs, error):
        with pytest.raises(error):
            lo.ToleranceConfig(**kwargs)

    def test_hermiticity_bound_is_a_constant_not_a_field(self):
        assert lowdin.linalg.HERMITICITY_TOL == 1e-10
        with pytest.raises(TypeError):
            lo.ToleranceConfig(hermiticity_tol=1e-10)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("orthonormality_tol", 1e-10),
            ("reconstruction_tol", 1e-9),
            ("eigen_convergence_tol", 1e-14),
        ],
    )
    def test_fixed_bounds_are_readable_constants_not_fields(self, name, value):
        assert getattr(lo.DEFAULT_TOLERANCES, name) == value
        assert getattr(lo.ToleranceConfig(max_sweeps=2), name) == value
        with pytest.raises(TypeError):
            lo.ToleranceConfig(**{name: value})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(lo.DEFAULT_TOLERANCES, name, 1.0)


class TestAsMatrix:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            lo.as_matrix(np.zeros((0, 2)))

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError):
            lo.as_matrix([1.0, 2.0])

    def test_rejects_infinite_entries(self):
        with pytest.raises(ValueError):
            lo.as_matrix([[np.inf, 0.0], [0.0, 1.0]])
