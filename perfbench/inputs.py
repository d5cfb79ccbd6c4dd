"""Deterministic inputs for the three workloads.

A workload's window of ops depends only on ``(seed, workload)``.  The
properties that set an op's cost (matrix size, conditioning, real or
complex) form a Latin hypercube per command: each takes the midpoints of
equal strata of its range.  Which values go together is fixed per
workload, not drawn from the seed, so windows for different seeds have
the same cost mix and a median or 90th-percentile op is the same size
for every seed.  The seed draws the matrix entries, from a per-op random
generator.  The library only ever sees the matrices (or the files
holding them) built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

COMMANDS = ("symmetric", "canonical", "polar", "svd", "pca", "verify", "relations")
LIBRARY_CALLS = ("symmetric", "canonical", "svd")
# verify appears twice per cycle so that op_ms.p50 falls inside the verify
# cluster, not in the gap between the m-sized commands (polar, relations)
# and the n-sized ones (pca, verify).
MULTI_FACTOR_CYCLE = ("polar", "relations", "verify", "pca", "verify")
HOSTILE_KINDS = ("bad_token", "ragged_row", "rank_deficient", "overflow_token", "huge_identity")

_WORKLOAD_IDS = {"cli-desk": 1, "solve-single": 2, "multi-factor": 3}
_CYCLES = {"cli-desk": COMMANDS, "solve-single": LIBRARY_CALLS, "multi-factor": MULTI_FACTOR_CYCLE}
# Ops per window: whole cycles of each workload's commands, and in
# cli-desk room for all five hostile kinds.  On a 2-vCPU Xeon a pass,
# host-speed probes included, takes about 12 to 15 s, so a 35 s run makes
# two or three passes; the broad size range of solve-single and
# multi-factor needs this many ops to set op_ms.p90.
WINDOW = {"cli-desk": 49, "solve-single": 45, "multi-factor": 50}
_DIMENSIONS = 3
# Seeds the pairing of the hypercube's strata, the same for every --seed.
_DESIGN_SEED = 20110517


@dataclass(frozen=True)
class Op:
    """One benchmark operation and the input it runs on."""

    index: int
    command: str
    matrix: np.ndarray | None  # the matrix the text encodes (None for unparseable text)
    text: str | None = None  # file contents for CLI ops
    fmt: str = "csv"
    hostile: str | None = None

    def input_bytes(self) -> bytes:
        """Everything the program receives for this op, as bytes."""
        if self.text is not None:
            return f"{self.command}|{self.fmt}|".encode() + self.text.encode()
        return f"{self.command}|".encode() + self.matrix.tobytes()


class OpStream:
    """Generates op ``i`` (0 <= i < WINDOW[workload]) of one workload for one seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in _WORKLOAD_IDS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self._id = _WORKLOAD_IDS[workload]
        self._cycle = len(_CYCLES[workload])
        per_command = WINDOW[workload] // self._cycle
        rng = np.random.default_rng([_DESIGN_SEED, self._id])
        # _strata[c, d, k]: stratum midpoint of dimension d for the k-th op of command c.
        self._strata = np.array(
            [[rng.permutation(per_command) for _ in range(_DIMENSIONS)] for _ in range(self._cycle)]
        )
        self._strata = (self._strata + 0.5) / per_command
        self._build = {
            "cli-desk": self._cli_desk,
            "solve-single": self._solve_single,
            "multi-factor": self._multi_factor,
        }[workload]

    def _point(self, i: int) -> np.ndarray:
        """Op i's point in the unit cube; ops i, i + cycle, ... share a command."""
        return self._strata[i % self._cycle, :, i // self._cycle]

    def _rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self._id, i])

    def op(self, i: int) -> Op:
        return self._build(i)

    def _cli_desk(self, i: int) -> Op:
        u = self._point(i)
        rng = self._rng(i)
        command = COMMANDS[i % len(COMMANDS)]
        fmt = ("csv", "tsv")[(i // 2) % 2]
        complex_ = i % 2 == 1
        n = 2 + int(7 * u[0])
        m = 1 + int(n * u[1])
        cond = 10.0 ** (6.0 * u[2])
        if i % 10 != 4:
            v = conditioned_matrix(rng, n, m, cond, complex_)
            return Op(i, command, v, format_text(v, fmt), fmt)
        kind = HOSTILE_KINDS[(i // 10) % len(HOSTILE_KINDS)]
        m = max(m, 2)
        v = conditioned_matrix(rng, n, m, 10.0, complex_)
        rows = [[_token(x) for x in row] for row in v]
        matrix = v
        if kind == "bad_token":
            rows[rng.integers(n)][rng.integers(m)] = "1.0.0"
            matrix = None
        elif kind == "ragged_row":
            rows[rng.integers(1, n)].pop()
            matrix = None
        elif kind == "rank_deficient":
            matrix = v.copy()
            matrix[:, 1] = matrix[:, 0]
            rows = [[_token(x) for x in row] for row in matrix]
        elif kind == "overflow_token":
            rows[rng.integers(n)][rng.integers(m)] = "1e999"
            matrix = None
        else:  # huge_identity: fine in double precision, but M = V†V overflows
            matrix = 1e200 * np.eye(n)
            rows = [[_token(x) for x in row] for row in matrix]
        delimiter = "," if fmt == "csv" else "\t"
        text = "".join(delimiter.join(row) + "\n" for row in rows)
        return Op(i, command, matrix, text, fmt, kind)

    def _solve_single(self, i: int) -> Op:
        u = self._point(i)
        rng = self._rng(i)
        m = 8 + int(57 * u[0])
        n = m + int((m + 1) * u[1])
        cond = 10.0 ** (10.0 * u[2])
        complex_ = (i // len(LIBRARY_CALLS)) % 2 == 1
        v = conditioned_matrix(rng, n, m, cond, complex_)
        return Op(i, LIBRARY_CALLS[i % len(LIBRARY_CALLS)], v)

    def _multi_factor(self, i: int) -> Op:
        u = self._point(i)
        rng = self._rng(i)
        n = 24 + int(41 * u[0])
        m = 4 + int(13 * u[1])
        fmt = ("csv", "tsv")[(i // 2) % 2]
        v = rng.standard_normal((n, m))
        if i % 2 == 1:
            v = (v + 1j * rng.standard_normal((n, m))) / math.sqrt(2.0)
        command = MULTI_FACTOR_CYCLE[i % len(MULTI_FACTOR_CYCLE)]
        return Op(i, command, v, format_text(v, fmt), fmt)


def conditioned_matrix(rng, n, m, metric_cond, complex_):
    """n x m matrix V = Q1·diag(σ)·Q2† with cond(V†V) = ``metric_cond``.

    σ runs geometrically from 1 down to metric_cond^(-1/2).
    """

    def isometry(rows, cols):
        a = rng.standard_normal((rows, cols))
        if complex_:
            a = a + 1j * rng.standard_normal((rows, cols))
        return np.linalg.qr(a)[0]

    sigma = metric_cond ** (-0.5 * np.linspace(0.0, 1.0, m))
    return (isometry(n, m) * sigma) @ isometry(m, m).conj().T


def _token(x) -> str:
    z = complex(x)
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag > 0.0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def format_text(v, fmt: str) -> str:
    """Delimited text in the grammar of the README's matrix file format."""
    delimiter = "," if fmt == "csv" else "\t"
    return "".join(delimiter.join(_token(x) for x in row) + "\n" for row in v)


def parse_text(text: str, fmt: str) -> np.ndarray:
    """Read a factor file written by the CLI, independently of lowdin."""
    delimiter = "," if fmt == "csv" else "\t"
    rows = [
        [complex(token.strip().replace("i", "j")) for token in line.split(delimiter)]
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    return np.array(rows, dtype=np.complex128)
