#!/usr/bin/env python3
"""Every residual against its bound, over a fixed grid of shapes and conditioning.

V is drawn with prescribed singular values, so cond(M) = cond(V†V) is
exact, for each shape in SHAPES, real and complex, at cond(M) = 1, 1e2,
..., 1e28, and factored at the default config.  Each cell counts the
draws the rank rule rejects (``rejected``): those whose smallest
singular value is at most max(n, m)·ε times the largest, which at
cond(M) = 1e28 (a ratio of 1e-14) are the draws of 64 x 64, 64 x 16 and
128 x 32.  For every key of ``Factorization.residuals()`` each cell
records the worst value over its admitted draws, the median and the
bound ``Factorization.bounds()`` gives, plus the most Jacobi sweeps a
metric solve took (``sweeps``) and the sweeps of all its admitted draws
together (``sweeps_total``), which shows the solver work a change saves
and not only its worst draw; a cell with no admitted draw has no
residuals and 0 sweeps.  The file also
holds the seed and the command line, its keys are sorted and it records
no time, so the same command with one BLAS thread writes the same bytes
on the same host and numpy.

Usage:
    OPENBLAS_NUM_THREADS=1 python3 scripts/accuracy.py --trials 20 --out ACCURACY.json
"""

import argparse
import json
import shlex
import sys

import numpy as np

import lowdin as lo

SEED = 0
SHAPES = ((3, 3), (8, 8), (32, 32), (64, 64), (40, 12), (64, 16), (128, 32))
LEVELS = [10.0**k for k in range(0, 29, 2)]


def _orthonormal_columns(rng, n, m, complex_):
    z = rng.standard_normal((n, m))
    if complex_:
        z = z + 1j * rng.standard_normal((n, m))
    return np.linalg.qr(z)[0]


def controlled_matrix(rng, shape, metric_condition, complex_=False):
    """An n x m V with cond(V†V) equal to the requested value."""
    n, m = shape
    singulars = np.geomspace(1.0, 1.0 / np.sqrt(metric_condition), m)
    left = _orthonormal_columns(rng, n, m, complex_)
    right = _orthonormal_columns(rng, m, m, complex_)
    return (left * singulars) @ right.conj().T


def cell(rng, shape, complex_, metric_condition, trials):
    """Worst, median and bound of every residual over the admitted draws, the sweeps and the rejected.

    ``sweeps`` is the most any admitted draw took, ``sweeps_total`` their
    sum, and ``rejected`` the number of draws that raised SingularMetric.
    """
    draws, rejected = [], 0
    for _ in range(trials):
        try:
            draws.append(lo.factorize(controlled_matrix(rng, shape, metric_condition, complex_)))
        except lo.SingularMetric:
            rejected += 1
    values = [f.residuals() for f in draws]
    residuals = {
        name: {
            "worst": max(v[name] for v in values),
            "median": float(np.median([v[name] for v in values])),
            "bound": bound,
        }
        for name, bound in (draws[0].bounds() if draws else {}).items()
    }
    sweeps = [f.eigen.sweeps for f in draws]
    return {
        "residuals": residuals,
        "sweeps": max(sweeps, default=0),
        "sweeps_total": sum(sweeps),
        "rejected": rejected,
    }


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--trials", type=int, default=20, help="draws per cell")
    parser.add_argument("--out", default="ACCURACY.json")
    args = parser.parse_args()
    if args.trials < 1:
        parser.error("--trials must be at least 1")

    rng = np.random.default_rng(SEED)
    cells = [
        {"shape": f"{n}x{m}", "dtype": "complex" if complex_ else "real", "cond": cond}
        | cell(rng, (n, m), complex_, cond, args.trials)
        for n, m in SHAPES
        for complex_ in (False, True)
        for cond in LEVELS
    ]
    table = {"command": shlex.join(["python3", *sys.argv]), "seed": SEED, "cells": cells}
    with open(args.out, "w", encoding="utf-8") as out:
        out.write(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
