"""Shared generators for the test suite."""

import functools
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import lowdin as lo

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def random_matrix(rng, n, m, complex_=False):
    a = rng.uniform(-1.0, 1.0, (n, m))
    if complex_:
        a = a + 1j * rng.uniform(-1.0, 1.0, (n, m))
    return a


def random_full_rank(rng, n, m, complex_=False, metric_cond_limit=1e3, max_tries=2000):
    """Entries uniform in [-1, 1], redrawn until cond(V†V) is acceptable."""
    for _ in range(max_tries):
        a = random_matrix(rng, n, m, complex_)
        sv = np.linalg.svd(a, compute_uv=False)
        if sv[-1] > 0.0 and (sv[0] / sv[-1]) ** 2 <= metric_cond_limit:
            return a
    raise AssertionError(f"no well-conditioned {n}x{m} draw in {max_tries} tries")


def random_unitary(rng, n, complex_=False):
    a = rng.standard_normal((n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def exact_scales(v, ks=range(-1100, 601)):
    """The k of ``ks`` for which every nonzero real and imaginary part of 2^k·V is normal.

    Then 2^k·V is exact, so it is V scaled and not another matrix, as it
    is once a part rounds to a subnormal number or overflows.
    """
    parts = np.abs(np.asarray(v, dtype=np.complex128).view(np.float64))
    low, high = (math.frexp(float(x))[1] for x in (parts[parts > 0].min(), parts.max()))
    return [k for k in ks if low + k >= -1021 and high + k <= 1024]


def load_script(name):
    """The module ``scripts/<name>.py``, imported without running its main."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def cap_sweeps(monkeypatch):
    """``cap_sweeps(k)`` makes ``factorize``, and every view of it, stop at k sweeps.

    The sweep limit is a setting of ``hermitian_eigen`` alone, so a test
    that needs a capped solve above it binds a capped solver where
    ``factorize`` looks it up.
    """

    def cap(max_sweeps):
        capped = functools.partial(lo.hermitian_eigen, cfg=lo.ToleranceConfig(max_sweeps=max_sweeps))
        monkeypatch.setattr("lowdin.decompositions.hermitian_eigen", capped)

    return cap
