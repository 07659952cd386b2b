"""Seeded benchmark instances and the four workloads that cycle through them.

Instance shapes follow the generators of ``tests/conftest.py``: abscissae with
uniform(0.5, 1.5) spacing starting at 0, smooth low-frequency trig signals with
mild noise, uniform noise, and data sampled exactly from a planted polyline.
They are written out again here so the benchmark depends on the package's
public API only.

Every workload is a fixed cycle of shapes (data kind, mu, k, p). A run walks
the cycle again and again, and instance ``(cycle, slot)`` draws its data from
its own generator seeded by ``(seed, workload, cycle, slot)``. So the mix of
sizes is the same in every run, the data differs with the seed, and the first
cycles of a long run are the same instances as those of a short one.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Literal

import numpy as np

from brokenline import BrokenLine, DataSet, Junction, KnotConfig, PNorm

Kind = Literal["smooth", "noise", "planted"]


@dataclass(frozen=True)
class Shape:
    kind: Kind
    mu: int
    k: int
    p: float

    def norm(self) -> PNorm:
        return PNorm(self.p)


@dataclass(frozen=True)
class Instance:
    cycle: int
    slot: int
    shape: Shape
    data: DataSet

    @property
    def label(self) -> str:
        s = self.shape
        return f"{self.cycle}.{self.slot} {s.kind} mu={s.mu} k={s.k} p={s.norm().label()}"


@dataclass(frozen=True)
class Workload:
    name: str
    op: Literal["best_fit", "grid_oracle"]
    shapes: tuple[Shape, ...]
    # Every probe_every-th instance is re-solved untimed in affine-changed
    # units. The period is coprime with len(shapes), so the probed slot
    # rotates over every shape; probes of general p are slow, hence the
    # longer period there.
    probe_every: int | None

    def instance(self, seed: int, cycle: int, slot: int) -> Instance:
        salt = zlib.crc32(self.name.encode())
        rng = np.random.default_rng([seed % 2**64, salt, cycle, slot])
        shape = self.shapes[slot]
        return Instance(cycle, slot, shape, make_data(rng, shape))


def random_abscissae(rng: np.random.Generator, mu: int) -> np.ndarray:
    xs = np.cumsum(rng.uniform(0.5, 1.5, mu + 2))
    return xs - xs[0]


def noise_dataset(rng: np.random.Generator, mu: int) -> DataSet:
    return DataSet(random_abscissae(rng, mu), rng.uniform(-1.0, 1.0, mu + 2))


def smooth_dataset(rng: np.random.Generator, mu: int, noise: float = 0.02) -> DataSet:
    xs = random_abscissae(rng, mu)
    t = xs / xs[-1]
    a1, a2 = rng.uniform(0.5, 1.5), rng.uniform(0.1, 0.5)
    w1, w2 = rng.uniform(1.0, 3.0), rng.uniform(3.0, 7.0)
    fs = a1 * np.sin(w1 * np.pi * t + rng.uniform(0, np.pi)) + a2 * np.cos(w2 * t)
    return DataSet(xs, fs + noise * rng.standard_normal(mu + 2))


def random_valid_config(rng: np.random.Generator, mu: int, k: int) -> KnotConfig:
    """Rejection-sample a junction placement satisfying the pruning rules."""
    while True:
        r = int(rng.integers(0, k + 1))
        kinds = rng.integers(0, 2, r)
        qs = sorted(rng.choice(np.arange(1, mu + 1), size=r, replace=False)) if r else []
        config = KnotConfig(
            tuple(
                Junction("gap" if kinds[i] and q <= mu - 1 else "data", int(q))
                for i, q in enumerate(qs)
            )
        )
        try:
            config.validate(mu)
        except ValueError:
            continue
        return config


def planted_dataset(rng: np.random.Generator, mu: int, k: int) -> DataSet:
    """Data sampled exactly from a polyline whose knots follow a valid config.

    Every junction gets a slope jump of at least 0.3 and gap knots sit well
    inside their gap, so the optimum error is zero up to rounding.
    """
    xs = random_abscissae(rng, mu)
    knot_ts = []
    for j in random_valid_config(rng, mu, k).junctions:
        if j.kind == "data":
            knot_ts.append(float(xs[j.q]))
        else:
            lo, hi = xs[j.q], xs[j.q + 1]
            knot_ts.append(float(lo + (hi - lo) * rng.uniform(0.2, 0.8)))
    ts = np.concatenate([[xs[0]], knot_ts, [xs[-1]]])
    slopes = [rng.uniform(-1.0, 1.0)]
    for _ in range(len(ts) - 2):
        slopes.append(slopes[-1] + rng.uniform(0.3, 1.2) * (1 if rng.uniform() < 0.5 else -1))
    vs = [rng.uniform(-1.0, 1.0)]
    for i in range(len(ts) - 1):
        vs.append(vs[-1] + slopes[i] * (ts[i + 1] - ts[i]))
    spline = BrokenLine(ts, np.array(vs))
    return DataSet(xs, np.array([spline(float(x)) for x in xs]))


def make_data(rng: np.random.Generator, shape: Shape) -> DataSet:
    if shape.kind == "smooth":
        return smooth_dataset(rng, shape.mu)
    if shape.kind == "noise":
        return noise_dataset(rng, shape.mu)
    return planted_dataset(rng, shape.mu, shape.k)


INF = math.inf
GRID_PER_GAP = 16  # grid_oracle resolution of oracle-grid

# Why each workload exists is recorded in BENCHMARK.json; pgen-smooth is left
# out of it because its figures spread too much between seeds (see README.md).
# Sizes are kept small enough that a 30 s run on a 2-core machine times
# 110-200 calls, so that the tail is the 90th percentile with more than ten
# samples beyond it. Each cycle has the largest shape twice or two similar
# largest shapes, and an odd number of shapes where their times form separate
# clusters, so the median and the tail each fall inside one cluster of
# similar calls, not between two.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "l2-smooth",
            "best_fit",
            (
                Shape("smooth", 8, 3, 2.0),
                Shape("planted", 9, 3, 2.0),
                Shape("smooth", 10, 3, 2.0),
                Shape("smooth", 18, 2, 2.0),
                Shape("planted", 20, 2, 2.0),
                Shape("smooth", 24, 2, 2.0),
                Shape("smooth", 24, 2, 2.0),
            ),
            probe_every=8,
        ),
        Workload(
            "lp-noise",
            "best_fit",
            tuple(Shape("noise", mu, 3, p) for mu in (7, 8, 9) for p in (1.0, INF)),
            probe_every=5,
        ),
        Workload(
            "pgen-smooth",
            "best_fit",
            (
                Shape("smooth", 5, 1, 3.0),
                Shape("smooth", 8, 1, 3.0),
                Shape("smooth", 5, 2, 3.0),
                Shape("smooth", 6, 2, 3.0),
                Shape("smooth", 4, 1, 1.5),
                Shape("smooth", 5, 1, 1.5),
                Shape("smooth", 5, 1, 1.5),
            ),
            probe_every=41,
        ),
        Workload(
            "oracle-grid",
            "grid_oracle",
            tuple(Shape("smooth", mu, 2, p) for mu in (6, 8) for p in (1.0, 2.0, INF))
            + (Shape("smooth", 8, 2, 1.0),),
            probe_every=None,
        ),
    )
}
