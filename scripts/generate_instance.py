#!/usr/bin/env python3
"""Write a random test instance as a two-column x,f CSV.

The RNG seed comes from --seed (default 0).
Kinds: 'noise' (uniform values), 'smooth' (sampled trig signal), 'planted'
(sampled exactly from a polyline with --k proper knots, so the optimal error
is zero).
"""

import argparse
import sys

import numpy as np

from brokenline import BrokenLine


def random_abscissae(rng, mu):
    xs = np.cumsum(rng.uniform(0.5, 1.5, mu + 2))
    return xs - xs[0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mu", type=int, default=10, help="number of inner abscissae")
    parser.add_argument("--k", type=int, default=2, help="knots for the planted kind")
    parser.add_argument("--kind", choices=["noise", "smooth", "planted"], default="smooth")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--out", default=None, help="output CSV path (default stdout)")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    xs = random_abscissae(rng, args.mu)

    if args.kind == "noise":
        fs = rng.uniform(-1.0, 1.0, args.mu + 2)
    elif args.kind == "smooth":
        t = xs / xs[-1]
        fs = rng.uniform(0.5, 1.5) * np.sin(rng.uniform(1, 3) * np.pi * t)
        fs += rng.uniform(0.1, 0.5) * np.cos(rng.uniform(3, 7) * t)
        fs += 0.02 * rng.standard_normal(args.mu + 2)
    else:
        inner = np.sort(rng.choice(xs[1:-1], size=min(args.k, args.mu), replace=False))
        ts = np.concatenate([[xs[0]], inner, [xs[-1]]])
        vs = np.cumsum(rng.uniform(-1.0, 1.0, len(ts)))
        gen = BrokenLine(ts, vs)
        fs = np.array([gen(float(x)) for x in xs])

    lines = ["x,f"] + [f"{float(x)!r},{float(f)!r}" for x, f in zip(xs, fs)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
