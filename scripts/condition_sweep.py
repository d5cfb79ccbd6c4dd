#!/usr/bin/env python3
"""Residual growth as the metric condition number increases.

Builds square matrices with a prescribed singular value spread, so
cond(V†V) is controlled exactly, and tracks the key residuals as the
conditioning worsens, with the most Jacobi sweeps a metric solve took
at each level, from 1 to 1e28.  The default rank cutoff would reject
cond(V†V) >= 1/rank_tol = 1e12, so the sweep factors with rank_tol =
1e-300 instead (``CONFIG``).

Usage:
    python scripts/condition_sweep.py --dim 6 --trials 20
"""

import argparse

import numpy as np

import lowdin as lo


def controlled_matrix(rng, n, metric_condition):
    """Square V with cond(V†V) equal to the requested value."""
    spread = np.sqrt(metric_condition)
    singulars = np.geomspace(1.0, 1.0 / spread, n)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(singulars) @ q2.T


# rank_tol far below 1/1e28, so no level trips the rank cutoff.
CONFIG = lo.ToleranceConfig(rank_tol=1e-300)

# Printed column -> the Factorization.residuals entries it takes the worst of.
COLUMNS = {
    "orthonorm": ("phi_orthonormality", "lambda_orthonormality"),
    "polar": ("polar_reconstruction",),
    "svd": ("svd_reconstruction",),
    "relations": ("relation_lambda_phi_u", "relation_phi_w_udagger"),
}


def worst_level(rng, n, metric_condition, trials):
    """Worst value of each residual column, and the most Jacobi sweeps of a metric solve."""
    worst = dict.fromkeys(COLUMNS, 0.0)
    sweeps = 0
    wanted = [name for names in COLUMNS.values() for name in names]
    for _ in range(trials):
        f = lo.factorize(controlled_matrix(rng, n, metric_condition), CONFIG)
        residuals = f.residuals(*wanted)
        for column, names in COLUMNS.items():
            worst[column] = max(worst[column], *(residuals[name] for name in names))
        sweeps = max(sweeps, f.eigen.sweeps)
    return worst, sweeps


def worst_residuals(rng, n, metric_condition, trials):
    return worst_level(rng, n, metric_condition, trials)[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=6)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"dim {args.dim}, {args.trials} trials per condition level")
    print(f"{'cond(V†V)':>10}" + "".join(f"{column:>12}" for column in COLUMNS) + f"{'sweeps':>8}")
    for exponent in range(0, 29, 2):
        cond = 10.0**exponent
        worst, sweeps = worst_level(rng, args.dim, cond, args.trials)
        values = "".join(f"{value:>12.2e}" for value in worst.values())
        print(f"{cond:>10.0e}{values}{sweeps:>8}")


if __name__ == "__main__":
    main()
