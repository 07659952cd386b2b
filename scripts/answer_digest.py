#!/usr/bin/env python3
"""Fingerprint the package's answers on seeded inputs, one sha256 per section.

Two versions of the package give the same answers on these inputs exactly
when they print the same digests, so a change that should keep every answer
can be checked by running this script on both versions. Sections:

- best_fit: 420 answers (error bits, configuration, breakpoint bytes, proper
  knot count) on noise, smooth and planted data with mu 3-12, k 1-3 and
  p in {1, 2, inf, 1.5, 3}, each at unit scale and at x -> 60x + 1.7e9,
  f -> -2.5f + 100.
- grid_oracle: 50 values at g = 4.
- regularize: 9000 rebuilds (output breakpoint bytes): 3000 random pairs with
  mu 1-29 and up to 15 knots, the same pairs at the affine scale above, and
  3000 pairs on an integer grid with knots on half-integers.
- best_fit_p2_wide: 120 answers at p = 2 on noise, smooth and planted data
  with mu 13-40 and k 1-3, each at unit scale and at the affine scale above.
  Their p = 2 line tables are wider than best_fit's.
- chain_fits: 2000 fit_chain answers (breakpoint values and error bytes) at
  p in {1, inf}, on noise, on an integer grid and on noise at the affine
  scale above, with mu 0-20 and 0-3 knots. best_fit keeps only the winners'
  chain fits, so this is what sees a changed LP vertex on any other chain.
- best_fit_p2_large: 24 answers at p = 2 on smooth and planted data with
  mu 100-300 and k 1-3, each at unit scale and at the affine scale above.
  Their p = 2 line tables span 102-302 points.
- best_fit_lp_wide: 24 answers at p in {1, inf, 1.5, 3} on smooth and noise
  data with mu 20-60 and k 2-3, each at unit scale and at the affine scale
  above. They read the bound's dynamic program and its general-p block set
  at wider mu than best_fit does.

An answer that raises is recorded by the exception's type name. --quick
runs a small slice of every section in a few seconds. --answers also prints
one line per answer before its section's digest: section, index, the first
16 hex digits of the answer's sha256, then the error in hex and the
configuration (a best_fit answer), the value in hex (grid_oracle), the
error in hex (chain_fits) or the exception's name. Two versions can then be
diffed answer by answer.

    PYTHONPATH=src python scripts/answer_digest.py [--seed N] [--quick] [--answers]
"""

import argparse
import hashlib
import struct

import numpy as np

from brokenline import (
    BrokenLine,
    ChainProblem,
    DataSet,
    PNorm,
    best_fit,
    fit_chain,
    grid_oracle,
    regularize,
)
from generate_instance import KINDS, make_dataset

NORMS = [PNorm.one(), PNorm.two(), PNorm.infinity(), PNorm.general(1.5), PNorm.general(3.0)]
LP_NORMS = [p for p in NORMS if p.p != 2.0]


def affine(data: DataSet) -> DataSet:
    return DataSet(60.0 * data.x + 1.7e9, -2.5 * data.f + 100.0)


def answer(fn, *args) -> tuple[str, bytes]:
    """A label and the bytes of what ``fn(*args)`` returns, or the name of what it raises."""
    try:
        out = fn(*args)
    except Exception as exc:
        label = f"raised {type(exc).__name__}"
        return label, label.encode()
    if isinstance(out, BrokenLine):
        return "", out.t.tobytes() + out.v.tobytes()
    if isinstance(out, float):
        return out.hex(), struct.pack("<d", out)
    if isinstance(out, tuple):  # fit_chain's (polyline, error)
        return out[1].hex(), out[0].v.tobytes() + struct.pack("<d", out[1])
    spline = out.spline.t.tobytes() + out.spline.v.tobytes()
    label = f"{out.error.hex()} {out.config}"
    return label, f"{label} {out.proper_knot_count} ".encode() + spline


def best_fit_answers(rng: np.random.Generator, instances: int):
    for i in range(instances):
        kind, p = KINDS[i % len(KINDS)], NORMS[(i // len(KINDS)) % len(NORMS)]
        mu, k = int(rng.integers(3, 13)), int(rng.integers(1, 4))
        data = make_dataset(rng, kind, mu, k)
        yield answer(best_fit, data, k, p)
        yield answer(best_fit, affine(data), k, p)


def best_fit_p2_wide_answers(rng: np.random.Generator, instances: int):
    for i in range(instances):
        mu, k = int(rng.integers(13, 41)), int(rng.integers(1, 4))
        data = make_dataset(rng, KINDS[i % len(KINDS)], mu, k)
        yield answer(best_fit, data, k, PNorm.two())
        yield answer(best_fit, affine(data), k, PNorm.two())


def best_fit_p2_large_answers(rng: np.random.Generator, instances: int):
    for i in range(instances):
        mu, k = int(rng.integers(100, 301)), int(rng.integers(1, 4))
        data = make_dataset(rng, ("smooth", "planted")[i % 2], mu, k)
        yield answer(best_fit, data, k, PNorm.two())
        yield answer(best_fit, affine(data), k, PNorm.two())


def best_fit_lp_wide_answers(rng: np.random.Generator, instances: int):
    for i in range(instances):
        kind, p = ("smooth", "noise")[i % 2], LP_NORMS[(i // 2) % len(LP_NORMS)]
        mu, k = int(rng.integers(20, 61)), int(rng.integers(2, 4))
        data = make_dataset(rng, kind, mu, k)
        yield answer(best_fit, data, k, p)
        yield answer(best_fit, affine(data), k, p)


def oracle_answers(rng: np.random.Generator, values: int):
    for i in range(values):
        kind, p = KINDS[i % len(KINDS)], NORMS[(i // len(KINDS)) % len(NORMS)]
        mu, k = int(rng.integers(3, 7)), int(rng.integers(1, 3))
        yield answer(grid_oracle, make_dataset(rng, kind, mu, k), k, p, 4)


def random_polyline(rng: np.random.Generator, a: float, b: float, max_knots: int) -> BrokenLine:
    knots = np.unique(rng.uniform(a, b, int(rng.integers(0, max_knots + 1))))
    knots = knots[(a < knots) & (knots < b)]
    ts = np.concatenate([[a], knots, [b]])
    return BrokenLine(ts, rng.uniform(-1.0, 1.0, len(ts)))


def grid_pair(rng: np.random.Generator) -> tuple[DataSet, BrokenLine]:
    """Integer abscissae and values, a polyline with knots on half-integers."""
    mu = int(rng.integers(1, 9))
    halves = np.arange(1, 2 * mu + 2)
    count = int(rng.integers(0, min(6, len(halves)) + 1))
    knots = np.sort(rng.choice(halves, size=count, replace=False)) / 2.0
    ts = np.concatenate([[0.0], knots, [mu + 1.0]])
    data = DataSet(np.arange(mu + 2.0), rng.integers(-3, 4, mu + 2).astype(float))
    return data, BrokenLine(ts, rng.integers(-3, 4, len(ts)).astype(float))


def regularize_answers(rng: np.random.Generator, pairs: int):
    for _ in range(pairs):
        data = make_dataset(rng, "noise", int(rng.integers(1, 30)))
        s = random_polyline(rng, data.a, data.b, 15)
        yield answer(regularize, data, s)
        moved = BrokenLine(60.0 * s.t + 1.7e9, -2.5 * s.v + 100.0)
        yield answer(regularize, affine(data), moved)
        yield answer(regularize, *grid_pair(rng))


def chain_fit_answers(rng: np.random.Generator, chains: int):
    for i in range(chains):
        mu, p = int(rng.integers(0, 21)), (PNorm.one(), PNorm.infinity())[i % 2]
        if i % 3 == 1:
            data = DataSet(np.arange(mu + 2.0), rng.integers(-3, 4, mu + 2).astype(float))
        else:
            data = make_dataset(rng, "noise", mu)
            data = affine(data) if i % 3 == 2 else data
        knots = rng.choice(np.arange(1, mu + 1), min(int(rng.integers(0, 4)), mu), replace=False)
        yield answer(fit_chain, data, ChainProblem(0, mu + 1, tuple(sorted(map(int, knots)))), p)


def sections(seed: int, quick: bool):
    """(name, answers) per section; each section draws from its own generator."""
    table = (
        ("best_fit", best_fit_answers, 12, 210),
        ("grid_oracle", oracle_answers, 5, 50),
        ("regularize", regularize_answers, 50, 3000),
        ("best_fit_p2_wide", best_fit_p2_wide_answers, 3, 60),
        ("chain_fits", chain_fit_answers, 50, 2000),
        ("best_fit_p2_large", best_fit_p2_large_answers, 1, 12),
        ("best_fit_lp_wide", best_fit_lp_wide_answers, 1, 12),
    )
    for i, (name, make, few, many) in enumerate(table):
        yield name, make(np.random.default_rng([seed, i]), few if quick else many)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--quick", action="store_true", help="a small slice of every section")
    parser.add_argument("--answers", action="store_true", help="also print one line per answer")
    args = parser.parse_args()
    for name, answers in sections(args.seed, args.quick):
        digest, count = hashlib.sha256(), 0
        for label, item in answers:
            item_digest = hashlib.sha256(item)
            digest.update(item_digest.digest())
            if args.answers:
                print(f"{name} {count} {item_digest.hexdigest()[:16]} {label}".rstrip())
            count += 1
        print(f"{name} {count} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
