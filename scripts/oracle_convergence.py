#!/usr/bin/env python3
"""Convergence study: gridded-oracle error minus global-solver error, per grid.

Fits random smooth instances (``generate_instance.make_dataset``, with f
scaled by --amplitude) with the global solver, then runs the brute-force grid
oracle over a refinement ladder and tabulates the gaps.
The gaps must stay nonnegative (dominance), shrink along the ladder
(nested candidate sets), and end up small at the finest grid.
"""

import argparse
import time

import numpy as np

from brokenline import DataSet, PNorm, best_fit, grid_oracle
from generate_instance import make_dataset

NORMS = {"1": PNorm.one(), "2": PNorm.two(), "inf": PNorm.infinity()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=12)
    parser.add_argument("--mu-max", type=int, default=12)
    parser.add_argument("--k-max", type=int, default=3)
    parser.add_argument("--amplitude", type=float, default=1.0)
    parser.add_argument("--grids", type=int, nargs="+", default=[1, 4, 16, 64])
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    norms = list(NORMS.items())

    header = f"{'inst':>4} {'mu':>3} {'k':>2} {'p':>4} {'best':>12}"
    header += "".join(f" gap@g={g:<4d}" for g in args.grids)
    print(header)
    totals = np.zeros(len(args.grids))
    t0 = time.time()
    for i in range(args.instances):
        k = int(rng.integers(1, args.k_max + 1))
        mu = int(rng.integers(k + 2, args.mu_max + 1))
        smooth = make_dataset(rng, "smooth", mu)
        data = DataSet(smooth.x, args.amplitude * smooth.f)
        label, p = norms[i % len(norms)]
        result = best_fit(data, k, p)
        gaps = [grid_oracle(data, k, p, g) - result.error for g in args.grids]
        totals += gaps
        row = f"{i:>4} {mu:>3} {k:>2} {label:>4} {result.error:>12.6f}"
        row += "".join(f" {gap:>10.3e}" for gap in gaps)
        print(row)
    mean = totals / args.instances
    print(f"{'mean':>4} {'':>3} {'':>2} {'':>4} {'':>12}" + "".join(f" {m:>10.3e}" for m in mean))
    print(f"# {args.instances} instances in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
