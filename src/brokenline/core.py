"""Domain types for broken-line approximation: data sets, polylines, norms, knot labels."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class DomainError(ValueError):
    """An abscissa or spline lies outside the domain it is used with."""


def _frozen_array(values: Iterable[float]) -> np.ndarray:
    arr = np.array(values, dtype=float)  # a copy: the caller's array stays writable
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DataSet:
    """Discrete approximation target: strictly increasing abscissae with values.

    ``x`` holds x_0 < x_1 < ... < x_{mu+1}; ``f`` the sampled values. The two
    outermost abscissae are the domain ends a and b, the mu inner ones are the
    candidate data-knot positions.
    """

    x: np.ndarray
    f: np.ndarray

    def __post_init__(self) -> None:
        points = BrokenLine(self.x, self.f)  # BrokenLine owns the point-set rules
        object.__setattr__(self, "x", points.t)
        object.__setattr__(self, "f", points.v)

    @property
    def a(self) -> float:
        return float(self.x[0])

    @property
    def b(self) -> float:
        return float(self.x[-1])

    @property
    def mu(self) -> int:
        return len(self.x) - 2

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class BrokenLine:
    """Continuous piecewise-linear function given by its breakpoint polyline.

    ``t`` is strictly increasing, first entry a and last entry b; ``v`` are the
    values at the breakpoints. Evaluation is linear interpolation, so the
    function is continuous by construction. Interior breakpoints are the
    (candidate) knots.
    """

    t: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _frozen_array(self.t))
        object.__setattr__(self, "v", _frozen_array(self.v))
        if self.t.ndim != 1 or self.v.ndim != 1 or len(self.t) != len(self.v):
            raise ValueError("abscissae and values must be parallel 1-d sequences")
        if len(self.t) < 2:
            raise ValueError("need at least two points")
        if not (np.isfinite(self.t).all() and np.isfinite(self.v).all()):
            raise ValueError("abscissae and values must be finite")
        if not (self.t[1:] > self.t[:-1]).all():
            raise ValueError("abscissae must be strictly increasing")

    @property
    def a(self) -> float:
        return float(self.t[0])

    @property
    def b(self) -> float:
        return float(self.t[-1])

    @property
    def knot_count(self) -> int:
        """Number of interior breakpoints; membership in S^1_k means knot_count <= k."""
        return len(self.t) - 2

    @property
    def knots(self) -> np.ndarray:
        return self.t[1:-1]

    def slopes(self) -> np.ndarray:
        """Slope of every linear piece, left to right."""
        return np.diff(self.v) / np.diff(self.t)

    def __call__(self, x: float) -> float:
        return evaluate(self, x)


@dataclass(frozen=True)
class PNorm:
    """A discrete l_p norm selector, 1 <= p <= inf.

    The tag (one/two/infinity/general) is derived from ``p``; ``PNorm.general``
    rejects p outside (1, inf) so the special cases stay canonical.
    """

    p: float

    def __post_init__(self) -> None:
        if math.isnan(self.p) or self.p < 1.0:
            raise ValueError(f"p must satisfy 1 <= p <= inf, got {self.p}")

    @classmethod
    def one(cls) -> "PNorm":
        return cls(1.0)

    @classmethod
    def two(cls) -> "PNorm":
        return cls(2.0)

    @classmethod
    def infinity(cls) -> "PNorm":
        return cls(math.inf)

    @classmethod
    def general(cls, p: float) -> "PNorm":
        if not (1.0 < p < math.inf):
            raise ValueError(f"general p must satisfy 1 < p < inf, got {p}")
        return cls(float(p))

    @property
    def is_infinity(self) -> bool:
        return math.isinf(self.p)

    def label(self) -> str:
        if self.is_infinity:
            return "inf"
        if self.p == int(self.p):
            return str(int(self.p))
        return repr(self.p)


class PositionKind(enum.Enum):
    DATA = "data"
    INTERIOR = "interior"


@dataclass(frozen=True)
class KnotLabel:
    """Classification of one interior breakpoint relative to a data set.

    ``kind`` is DATA when the knot coincides bit-equal with an abscissa x_q
    (then ``q`` is the data index), INTERIOR when x_q < t < x_{q+1} (then ``q``
    is the gap index).
    """

    index: int
    position: float
    proper: bool
    kind: PositionKind
    q: int


@dataclass(frozen=True)
class RegularizationBounds:
    """Value/slope bounds of one spline over a data set.

    m_second bounds the divided differences of the spline's values at the
    abscissae, m_prime their magnitudes, m_fourth = m_prime + (b-a)*m_second
    bounds the function values of the slope-regularized rebuild, and
    m = max(m_second, m_fourth) bounds both.
    """

    m_prime: float
    m_second: float
    m_fourth: float
    m: float


def evaluate(s: BrokenLine, x: float) -> float:
    """Evaluate the polyline at x in [a, b]; at a breakpoint returns its stored value."""
    return float(evaluate_many(s, [x])[0])


def evaluate_many(s: BrokenLine, xs: Sequence[float]) -> np.ndarray:
    """Vectorized :func:`evaluate`."""
    xs = np.asarray(xs, dtype=float)
    if len(xs) == 0:
        return np.empty(0)
    if not (s.t[0] <= xs.min() and xs.max() <= s.t[-1]):  # NaN fails too
        raise DomainError(f"abscissae outside [{s.t[0]}, {s.t[-1]}]")
    i = np.clip(np.searchsorted(s.t, xs, side="right") - 1, 0, len(s.t) - 2)
    t0, t1 = s.t[i], s.t[i + 1]
    vals = s.v[i] + (xs - t0) * (s.v[i + 1] - s.v[i]) / (t1 - t0)
    exact = t0 == xs
    vals[exact] = s.v[i[exact]]
    right_end = xs == s.t[-1]
    vals[right_end] = s.v[-1]
    return vals


def check_domain(s: BrokenLine, data: DataSet) -> None:
    """Raise DomainError unless the spline and the data share the interval [a, b]."""
    if s.a != data.a or s.b != data.b:
        raise DomainError("spline and data must share the interval [a, b]")


def coincident(a: float, b: float) -> bool:
    """Equal up to rounding: |a - b| <= 1e-12 * (|a| + |b|)."""
    return abs(a - b) <= 1e-12 * (abs(a) + abs(b))


def default_slope_tolerance(s: BrokenLine) -> float:
    """Relative properness threshold: 1e-9 * max piece slope magnitude."""
    return 1e-9 * float(np.max(np.abs(s.slopes())))


def proper_mask(s: BrokenLine, tau: float) -> np.ndarray:
    """True at each interior breakpoint whose slope change exceeds ``tau``."""
    return np.abs(np.diff(s.slopes())) > tau


def classify_knots(s: BrokenLine, data: DataSet) -> tuple[KnotLabel, ...]:
    """Label every interior breakpoint with properness and its position class.

    A knot is proper when the slopes of its two pieces differ by more than
    1e-9 * max|slope| (``default_slope_tolerance``). Data knots require
    bit-equality with an abscissa; anything else lies strictly inside some
    gap (x_q, x_{q+1}).
    """
    check_domain(s, data)
    proper = proper_mask(s, default_slope_tolerance(s))
    labels = []
    for j in range(1, len(s.t) - 1):
        t = float(s.t[j])
        idx = int(np.searchsorted(data.x, t, side="right")) - 1
        kind = PositionKind.DATA if data.x[idx] == t else PositionKind.INTERIOR
        labels.append(KnotLabel(j, t, proper[j - 1], kind, idx))
    return tuple(labels)


def proper_knot_positions(s: BrokenLine, data: DataSet) -> np.ndarray:
    labels = classify_knots(s, data)
    return np.array([lab.position for lab in labels if lab.proper])


def spike_fixture(i: int) -> BrokenLine:
    """Polyline on [-1, 1] equal to 1 at {-1, 0, 1} but peaking at (i+1)/2.

    The family shows that polylines bounded on a grid can grow without bound
    between grid points as i increases: the breakpoints are exactly
    (-1, 1), (-1/i, 1/i), (1/2, (i+1)/2), (1, 1).
    """
    if i < 2:
        raise ValueError(f"fixture index must be >= 2, got {i}")
    return BrokenLine(
        t=np.array([-1.0, -1.0 / i, 0.5, 1.0]),
        v=np.array([1.0, 1.0 / i, (i + 1) / 2.0, 1.0]),
    )
