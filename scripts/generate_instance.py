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

from brokenline import BrokenLine, DataSet


KINDS = ("noise", "smooth", "planted")


def random_abscissae(rng, mu):
    xs = np.cumsum(rng.uniform(0.5, 1.5, mu + 2))
    return xs - xs[0]


def make_dataset(rng, kind, mu, k=2):
    """One random instance of ``kind`` on mu + 2 abscissae starting at 0."""
    xs = random_abscissae(rng, mu)
    if kind == "noise":
        fs = rng.uniform(-1.0, 1.0, mu + 2)
    elif kind == "smooth":
        t = xs / xs[-1]
        fs = rng.uniform(0.5, 1.5) * np.sin(rng.uniform(1, 3) * np.pi * t)
        fs += rng.uniform(0.1, 0.5) * np.cos(rng.uniform(3, 7) * t)
        fs += 0.02 * rng.standard_normal(mu + 2)
    elif kind == "planted":
        inner = np.sort(rng.choice(xs[1:-1], size=min(k, mu), replace=False))
        ts = np.concatenate([[xs[0]], inner, [xs[-1]]])
        vs = np.cumsum(rng.uniform(-1.0, 1.0, len(ts)))
        gen = BrokenLine(ts, vs)
        fs = np.array([gen(float(x)) for x in xs])
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return DataSet(xs, fs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mu", type=int, default=10, help="number of inner abscissae")
    parser.add_argument("--k", type=int, default=2, help="knots for the planted kind")
    parser.add_argument("--kind", choices=KINDS, default="smooth")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--out", default=None, help="output CSV path (default stdout)")
    args = parser.parse_args()

    data = make_dataset(np.random.default_rng(args.seed), args.kind, args.mu, args.k)
    lines = ["x,f"] + [f"{float(x)!r},{float(f)!r}" for x, f in zip(data.x, data.f)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
