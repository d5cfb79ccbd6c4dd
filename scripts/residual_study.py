#!/usr/bin/env python3
"""Residual survey over a random matrix ensemble.

Draws full-rank matrices with uniform entries, runs every factorization
and cross-identity, and prints worst/median residuals per check.  Useful
for eyeballing how much headroom the tolerance contracts have.

Usage:
    python scripts/residual_study.py --trials 200 --max-dim 8 --complex
"""

import argparse
from collections import defaultdict

import numpy as np

import lowdin as lo


def draw(rng, max_dim, complex_, cond_limit):
    while True:
        n = int(rng.integers(1, max_dim + 1))
        m = int(rng.integers(1, n + 1))
        v = rng.uniform(-1.0, 1.0, (n, m))
        if complex_:
            v = v + 1j * rng.uniform(-1.0, 1.0, (n, m))
        sv = np.linalg.svd(v, compute_uv=False)
        if sv[-1] > 0.0 and (sv[0] / sv[-1]) ** 2 <= cond_limit:
            return v


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--max-dim", type=int, default=8)
    parser.add_argument("--complex", action="store_true", dest="complex_")
    parser.add_argument("--cond-limit", type=float, default=1e6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    table = defaultdict(list)
    for _ in range(args.trials):
        v = draw(rng, args.max_dim, args.complex_, args.cond_limit)
        for name, value in lo.factorize(v).residuals().items():
            table[name].append(value)

    kind = "complex" if args.complex_ else "real"
    print(
        f"{args.trials} {kind} draws, n <= {args.max_dim}, "
        f"cond(V†V) <= {args.cond_limit:.0e}"
    )
    print(f"{'check':<24}{'median':>12}{'worst':>12}")
    for name, values in table.items():
        print(f"{name:<24}{np.median(values):>12.2e}{np.max(values):>12.2e}")


if __name__ == "__main__":
    main()
