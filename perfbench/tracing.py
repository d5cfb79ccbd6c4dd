"""Spans around the public functions of lowdin, recorded from outside.

``install`` replaces every public function of ``lowdin.{cli, matrixio,
linalg, ortho, decompositions, pca, errors}`` with a timing wrapper, in
every one of those modules (and the package namespace) that binds it, so
``ortho.hermitian_eigen`` and ``pca.hermitian_eigen`` are wrapped as well
as ``linalg.hermitian_eigen``.  ``uninstall`` puts the original objects
back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import math
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

import numpy as np

MODULES = ("cli", "matrixio", "linalg", "ortho", "decompositions", "pca", "errors")
# Per-token and per-entry helpers: a span per call would cost more than the
# work it times.  Their time stays inside the parse and write spans.
UNWRAPPED = {"matrixio.parse_token", "matrixio.format_value", "matrixio.delimiter_for"}
EIGEN = "linalg.hermitian_eigen"
_MARK = "__perfbench_original__"  # on a wrapper: the function it wraps
_COUNTED = "__perfbench_counted__"  # on an exception: already counted


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.capture = False
        self.eigen_inputs: list[tuple] = []  # (span index, matrix, cfg)
        self.errors: Counter = Counter()  # (op id, exception type name) -> count

    def count_error(self, exc: BaseException) -> None:
        # An exception crosses every wrapped frame on its way out; count it once.
        if getattr(exc, _COUNTED, False):
            return
        try:
            setattr(exc, _COUNTED, True)
        except AttributeError:
            pass
        self.errors[(self.op, type(exc).__name__)] += 1

    def absorb(self, dump: dict, op) -> None:
        """Append the spans a traced child process wrote, as op ``op``."""
        offset = len(self.spans)
        for name, start, end, parent, _ in dump["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, op])
        for (_, kind), count in dump["errors"].items():
            self.errors[(op, kind)] += count
        for index, matrix, cfg in dump["eigen"]:
            self.eigen_inputs.append((index + offset, matrix, cfg))

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            if self.capture and name == EIGEN:
                cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
                self.eigen_inputs.append((index, np.array(args[0], copy=True), cfg))
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.count_error(exc)
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()

        setattr(wrapper, _MARK, fn)
        return wrapper


def _modules():
    package = importlib.import_module("lowdin")
    return [importlib.import_module(f"lowdin.{name}") for name in MODULES], package


def public_functions() -> dict:
    """Qualified name -> function, for every function the tracer wraps."""
    found = {}
    for module in _modules()[0]:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(module).items():
            qualified = f"{short}.{attr}"
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and qualified not in UNWRAPPED
            ):
                found[qualified] = obj
    return found


def install(tracer: Tracer) -> list:
    """Wrap every public function wherever it is bound; return the undo list."""
    wrappers = {fn: tracer.wrap(name, fn) for name, fn in public_functions().items()}
    modules, package = _modules()
    patched = []
    for module in modules + [package]:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                patched.append((module, attr, obj))
    return patched


def uninstall(patched: list) -> None:
    for module, attr, original in patched:
        setattr(module, attr, original)


def installed_wrappers() -> list:
    """Names still bound to a tracer wrapper (empty when tracing is off)."""
    modules, package = _modules()
    return [
        f"{module.__name__}.{attr}"
        for module in modules + [package]
        for attr, obj in vars(module).items()
        if hasattr(obj, _MARK)
    ]


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, reach)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result.append(end - start - covered)
    return result


def layer_totals(spans: list) -> dict:
    """name -> (total seconds, self seconds)."""
    totals = defaultdict(lambda: [0.0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span[0]]
        entry[0] += span[2] - span[1]
        entry[1] += own
    return {name: tuple(values) for name, values in totals.items()}


class SweepCounter:
    """Sweeps a hermitian_eigen call needed, found through the public API.

    The count is the smallest ``max_sweeps`` for which the solve does not
    raise NoConvergence.  The solver checks convergence before each sweep,
    so an input that needs no rotation still reports 1.  Results are cached
    per input, since several commands diagonalize the same matrix.
    """

    def __init__(self):
        self._cache: dict = {}
        linalg = importlib.import_module("lowdin.linalg")
        errors = importlib.import_module("lowdin.errors")
        self._solve = linalg.hermitian_eigen
        self._no_convergence = errors.NoConvergence
        self._other_failures = (ValueError, errors.LinalgError)
        self._default = linalg.DEFAULT_TOLERANCES

    def __call__(self, matrix, cfg=None):
        cfg = cfg or self._default
        key = (matrix.tobytes(), matrix.shape, cfg)
        if key not in self._cache:
            self._cache[key] = self._search(matrix, cfg)
        return self._cache[key]

    def _search(self, matrix, cfg):
        """None when the solve fails for a reason other than the sweep limit."""
        scale = float(np.linalg.norm(matrix))
        tol = cfg.eigen_convergence_tol
        # Largest k known to fail and smallest k known (or assumed) to succeed.
        failed, converged = 0, cfg.max_sweeps
        k = 2
        while converged - failed > 1:
            k = min(max(k, failed + 1), converged - 1)
            try:
                self._solve(matrix, dataclasses.replace(cfg, max_sweeps=k))
            except self._no_convergence as exc:
                failed = k
                # Jacobi converges quadratically near the end: guess how
                # many more squarings the relative off-diagonal norm needs.
                relative = exc.off_norm / scale if scale > 0.0 else 1.0
                more = 1
                if 0.0 < relative < 1.0 and tol < 1.0:
                    more = max(1, math.ceil(math.log2(math.log(tol) / math.log(relative))))
                k = failed + more
            except self._other_failures:
                return None
            else:
                converged = k
                k = converged - 1
        return converged


def lapack_seconds(matrix, repeats: int = 5) -> float:
    """Median time of numpy.linalg.eigh on the same matrix: a ceiling, not a backend."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        np.linalg.eigh(matrix)
        times.append(perf_counter() - start)
    return float(np.median(times))
