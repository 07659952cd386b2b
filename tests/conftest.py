import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from brokenline import BrokenLine, DataSet, Junction, KnotConfig

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

# The RNG seed of test-instance generation. Golden values in the tests hold at
# this seed only.
SEED = 20260810


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(SEED)


def make_rng(offset: int = 0) -> np.random.Generator:
    return np.random.default_rng(SEED + offset)


def random_abscissae(rng: np.random.Generator, mu: int) -> np.ndarray:
    xs = np.cumsum(rng.uniform(0.5, 1.5, mu + 2))
    return xs - xs[0]


def random_dataset(rng: np.random.Generator, mu: int) -> DataSet:
    return DataSet(random_abscissae(rng, mu), rng.uniform(-1.0, 1.0, mu + 2))


def smooth_dataset(
    rng: np.random.Generator, mu: int, noise: float = 0.02, amplitude: float = 1.0
) -> DataSet:
    """Sampled random low-frequency trig signal with mild noise."""
    xs = random_abscissae(rng, mu)
    t = xs / xs[-1]
    a1, a2 = rng.uniform(0.5, 1.5), rng.uniform(0.1, 0.5)
    w1, w2 = rng.uniform(1.0, 3.0), rng.uniform(3.0, 7.0)
    fs = a1 * np.sin(w1 * np.pi * t + rng.uniform(0, np.pi)) + a2 * np.cos(w2 * t)
    fs = amplitude * fs + noise * rng.standard_normal(mu + 2)
    return DataSet(xs, fs)


def random_polyline(
    rng: np.random.Generator, a: float, b: float, max_knots: int
) -> BrokenLine:
    k = int(rng.integers(0, max_knots + 1))
    knots = np.sort(rng.uniform(a, b, k))
    knots = knots[(knots > a + 1e-9) & (knots < b - 1e-9)]
    if len(knots):
        knots = knots[np.insert(np.diff(knots) > 1e-6, 0, True)]
    ts = np.concatenate([[a], knots, [b]])
    return BrokenLine(ts, rng.uniform(-1.0, 1.0, len(ts)))


def random_valid_config(rng: np.random.Generator, mu: int, k: int) -> KnotConfig:
    """Rejection-sample a junction placement satisfying the pruning rules."""
    while True:
        r = int(rng.integers(0, k + 1))
        kinds = rng.integers(0, 2, r)
        qs = sorted(rng.choice(np.arange(1, mu + 1), size=r, replace=False)) if r else []
        junctions = tuple(
            Junction("gap" if kinds[i] and q <= mu - 1 else "data", int(q))
            for i, q in enumerate(qs)
        )
        config = KnotConfig(junctions)
        try:
            config.validate(mu)
        except ValueError:
            continue
        return config


def planted_instance(
    rng: np.random.Generator, mu: int, k: int
) -> tuple[DataSet, BrokenLine, KnotConfig]:
    """Data sampled exactly from a polyline whose knots follow a valid config.

    Gap knots sit well inside their gap and every junction gets a slope jump
    of at least 0.3, so the planted knots are unambiguously proper.
    """
    xs = random_abscissae(rng, mu)
    config = random_valid_config(rng, mu, k)
    knot_ts = []
    for j in config.junctions:
        if j.kind == "data":
            knot_ts.append(float(xs[j.q]))
        else:
            lo, hi = xs[j.q], xs[j.q + 1]
            knot_ts.append(float(lo + (hi - lo) * rng.uniform(0.2, 0.8)))
    ts = np.concatenate([[xs[0]], knot_ts, [xs[-1]]])
    slopes = [rng.uniform(-1.0, 1.0)]
    for _ in range(len(ts) - 2):
        jump = rng.uniform(0.3, 1.2) * (1 if rng.uniform() < 0.5 else -1)
        slopes.append(slopes[-1] + jump)
    vs = [rng.uniform(-1.0, 1.0)]
    for i in range(len(ts) - 1):
        vs.append(vs[-1] + slopes[i] * (ts[i + 1] - ts[i]))
    spline = BrokenLine(ts, np.array(vs))
    fs = np.array([spline(float(x)) for x in xs])
    return DataSet(xs, fs), spline, config
