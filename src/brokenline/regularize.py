"""Slope-bounding rebuild of a polyline that preserves its values at the data abscissae.

Sweeping the gaps between consecutive abscissae left to right, the procedure
irons out oscillations by replacing the polyline between data abscissae with
chords through already-fixed points, occasionally looking one gap ahead. The
result keeps every value s(x_j) unchanged, never gains a proper knot, and has
all slopes bounded by the largest divided difference of those values.

The construction is deliberately a literal transcription of the full case
analysis (including the one-knot look-ahead constructions with the auxiliary
chord, tangent and secant lines), not a minimal smoother: the case dispatch
itself is the behavior under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BrokenLine,
    DataSet,
    DomainError,
    RegularizationBounds,
    default_slope_tolerance,
    evaluate_many,
)


def divided_difference_bound(data: DataSet, s: BrokenLine) -> RegularizationBounds:
    """Value and divided-difference bounds of ``s`` sampled at the data abscissae.

    m_second is the largest chord slope between consecutive sampled values,
    m_prime the largest sampled magnitude, m_fourth = m_prime + (b-a)*m_second,
    and m = max(m_second, m_fourth).
    """
    if s.a != data.a or s.b != data.b:
        raise DomainError("spline and data must share the interval [a, b]")
    vals = evaluate_many(s, data.x)
    m_prime = float(np.max(np.abs(vals)))
    m_second = float(np.max(np.abs(np.diff(vals) / np.diff(data.x))))
    m_fourth = m_prime + (data.b - data.a) * m_second
    return RegularizationBounds(m_prime, m_second, m_fourth, max(m_second, m_fourth))


@dataclass
class _Polyline:
    """Mutable breakpoint list used during the sweep."""

    ts: list[float]
    vs: list[float]
    abscissae: tuple[float, ...] = ()

    def value(self, x: float) -> float:
        i = int(np.searchsorted(self.ts, x, side="right")) - 1
        if i >= 0 and self.ts[i] == x:
            return self.vs[i]
        if i == len(self.ts) - 1:
            return self.vs[-1]
        t0, t1 = self.ts[i], self.ts[i + 1]
        return self.vs[i] + (x - t0) * (self.vs[i + 1] - self.vs[i]) / (t1 - t0)

    def slope_right_of(self, x: float) -> float:
        i = int(np.searchsorted(self.ts, x, side="right")) - 1
        i = min(max(i, 0), len(self.ts) - 2)
        return (self.vs[i + 1] - self.vs[i]) / (self.ts[i + 1] - self.ts[i])

    def proper_knots_in(self, lo: float, hi: float, tau: float, *, closed_right: bool = False) -> list[float]:
        out = []
        for j in range(1, len(self.ts) - 1):
            t = self.ts[j]
            inside = lo < t <= hi if closed_right else lo < t < hi
            if inside and self._proper(j, tau):
                out.append(t)
        return out

    def is_proper_knot_at(self, x: float, tau: float) -> bool:
        for j in range(1, len(self.ts) - 1):
            if self.ts[j] == x:
                return self._proper(j, tau)
        return False

    def _proper(self, j: int, tau: float) -> bool:
        left = (self.vs[j] - self.vs[j - 1]) / (self.ts[j] - self.ts[j - 1])
        right = (self.vs[j + 1] - self.vs[j]) / (self.ts[j + 1] - self.ts[j])
        return abs(right - left) > tau

    def replace(self, points: list[tuple[float, float]]) -> None:
        """Replace the polyline on [points[0].t, points[-1].t] by the given breakpoints.

        A span end that lands strictly inside an existing piece truncates it;
        the sampled values on the surviving stub are pinned as explicit
        breakpoints so they stay bit-identical under later interpolation.
        """
        u, w = points[0][0], points[-1][0]
        head = [(t, v) for t, v in zip(self.ts, self.vs) if t < u]
        tail = [(t, v) for t, v in zip(self.ts, self.vs) if t > w]
        pins_left: list[tuple[float, float]] = []
        if u not in self.ts and head:
            left_bp = head[-1][0]
            pins_left = [
                (x, self.value(x)) for x in self.abscissae if left_bp < x < u
            ]
        pins_right: list[tuple[float, float]] = []
        if w not in self.ts and tail:
            right_bp = tail[0][0]
            pins_right = [
                (x, self.value(x)) for x in self.abscissae if w < x < right_bp
            ]
        merged = head + pins_left + points + pins_right + tail
        self.ts = [t for t, _ in merged]
        self.vs = [v for _, v in merged]

    def negate(self) -> None:
        self.vs = [-v for v in self.vs]


@dataclass(frozen=True)
class _Chord:
    """Line through (x0, y0) with the given slope."""

    x0: float
    y0: float
    slope: float

    @classmethod
    def through(cls, x0: float, y0: float, x1: float, y1: float) -> "_Chord":
        return cls(x0, y0, (y1 - y0) / (x1 - x0))

    def __call__(self, x: float) -> float:
        return self.y0 + (x - self.x0) * self.slope


def _coincident(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * (abs(a) + abs(b))


def _first_crossing_down(
    pl: _Polyline, line: _Chord, start: float, stop: float
) -> tuple[float, float]:
    """Leftmost x in (start, stop] where the polyline comes back down onto ``line``.

    Assumes the difference polyline - line starts at zero in ``start`` and is
    positive immediately to the right; the search walks segment ends left to
    right and resolves the crossing in closed form, ties toward the smaller
    abscissa. Segment ends within rounding noise of the line count as lying
    on it, so the crossing is where the polyline leaves the line for good
    rather than a spurious micro-touch next to ``start``.
    """
    probes = [t for t in pl.ts if start < t < stop] + [stop]
    prev_x, prev_d = start, 0.0
    for x in probes:
        d = pl.value(x) - line(x)
        noise = 1e-12 * (abs(pl.value(x)) + abs(line(x)))
        if d < -noise:
            if prev_d > 0.0:
                xhat = prev_x + prev_d * (x - prev_x) / (prev_d - d)
            else:
                xhat = prev_x
            return xhat, line(xhat)
        prev_x, prev_d = x, d
    return stop, line(stop)


def _first_crossing(
    pl: _Polyline, line: _Chord, start: float, stop: float
) -> float | None:
    """Leftmost crossing of the polyline with ``line`` on [start, stop].

    Expects the polyline to start above the line and end below it; returns
    None when floating point leaves no sign change to resolve.
    """
    probes = [start] + [t for t in pl.ts if start < t < stop] + [stop]
    prev_x = prev_d = None
    for x in probes:
        d = pl.value(x) - line(x)
        if prev_d is not None and prev_d > 0.0 >= d:
            return prev_x + prev_d * (x - prev_x) / (prev_d - d)
        prev_x, prev_d = x, d
    return None


def _chord_replace(pl: _Polyline, u: float, w: float) -> None:
    pl.replace([(u, pl.value(u)), (w, pl.value(w))])


def _iron_one_knot_below(pl: _Polyline, X: np.ndarray, q: int, t: float, tau: float) -> None:
    """Exactly one proper knot t in the open gap, lying strictly below the chord.

    Dispatches on the position of the polyline relative to the gap chord and
    the forward tangent at x_q, looking one gap ahead; the final interval is
    flattened outright.
    """
    x_prev, x_q = float(X[q - 1]), float(X[q])
    sigma = _Chord.through(x_prev, pl.value(x_prev), x_q, pl.value(x_q))
    if q == len(X) - 1:
        _chord_replace(pl, x_prev, x_q)
        return
    x_next = float(X[q + 1])
    s_next = pl.value(x_next)
    if s_next <= sigma(x_next):
        # The polyline re-crosses the extended chord inside the next gap:
        # flatten everything up to that crossing.
        xhat, vhat = _first_crossing_down(pl, sigma, x_q, x_next)
        if xhat == x_next:
            vhat = s_next
        elif xhat == x_q:
            vhat = pl.value(x_q)
        points = [(x_prev, pl.value(x_prev))]
        if x_q < xhat:
            points.append((x_q, pl.value(x_q)))
        points.append((xhat, vhat))
        pl.replace(points)
        return
    right_knots = pl.proper_knots_in(x_q, x_next, tau, closed_right=True)
    if len(right_knots) == 1:
        t2 = right_knots[0]
        phi = _Chord(x_q, pl.value(x_q), pl.slope_right_of(x_q))
        phi_next = phi(x_next)
        if _coincident(s_next, phi_next):
            return  # straight through the next gap; the lone knot sits on x_{q+1}
        if s_next < phi_next:
            psi = _Chord.through(x_q, pl.value(x_q), x_next, s_next)
            xhat = _first_crossing(pl, psi, x_prev, t)
            if xhat is None or not (x_prev < xhat < t):
                # Degenerate: bend at the knot itself, keeping its stored value
                # so the polyline left of it stays untouched bit-for-bit.
                start_point = (t, pl.value(t))
            else:
                start_point = (xhat, psi(xhat))
            pl.replace([start_point, (x_q, pl.value(x_q)), (x_next, s_next)])
        else:
            chi = _Chord.through(t2, pl.value(t2), x_next, s_next)
            denom = sigma.slope - chi.slope
            xhat = (chi(x_q) - sigma(x_q)) / denom + x_q if denom != 0.0 else t2
            xhat = min(max(xhat, x_q), t2)
            pl.replace(
                [
                    (x_prev, pl.value(x_prev)),
                    (x_q, pl.value(x_q)),
                    (xhat, sigma(xhat)),
                    (x_next, s_next),
                ]
            )
        return
    if not right_knots:
        return  # lone knot; both adjacent slopes are already divided differences
    _chord_replace(pl, x_prev, x_q)
    _chord_replace(pl, x_q, x_next)


def _iron_gap(pl: _Polyline, X: np.ndarray, q: int, tau: float) -> None:
    x_prev, x_q = float(X[q - 1]), float(X[q])
    gap_knots = pl.proper_knots_in(x_prev, x_q, tau)
    if q == 1:
        if gap_knots:
            _chord_replace(pl, x_prev, x_q)
        return
    if not gap_knots:
        return
    if len(gap_knots) >= 2:
        _chord_replace(pl, x_prev, x_q)
        return
    t = gap_knots[0]
    if pl.is_proper_knot_at(x_prev, tau) or pl.is_proper_knot_at(x_q, tau):
        _chord_replace(pl, x_prev, x_q)
        return
    sigma = _Chord.through(x_prev, pl.value(x_prev), x_q, pl.value(x_q))
    s_t = pl.value(t)
    if _coincident(s_t, sigma(t)):
        _chord_replace(pl, x_prev, x_q)  # knot sits on the chord: merge it away
        return
    if s_t < sigma(t):
        _iron_one_knot_below(pl, X, q, t, tau)
    else:
        pl.negate()
        _iron_one_knot_below(pl, X, q, t, tau)
        pl.negate()


def _tidy(pl: _Polyline, X: np.ndarray, tau: float) -> None:
    """Drop improper breakpoints whose removal leaves all sampled values bit-equal.

    The case dispatch only ever counts proper knots, so improper breakpoints
    are invisible to the construction either way; removal is purely cosmetic
    and therefore must not perturb a single sampled bit.
    """
    xs = set(float(x) for x in X)
    changed = True
    while changed:
        changed = False
        for j in range(1, len(pl.ts) - 1):
            if pl._proper(j, tau):
                continue
            lo, hi = pl.ts[j - 1], pl.ts[j + 1]
            covered = [x for x in xs if lo < x < hi]
            trimmed = _Polyline(pl.ts[: j] + pl.ts[j + 1 :], pl.vs[: j] + pl.vs[j + 1 :])
            if all(trimmed.value(x) == pl.value(x) for x in covered):
                pl.ts, pl.vs = trimmed.ts, trimmed.vs
                changed = True
                break


def regularize(data: DataSet, s: BrokenLine) -> BrokenLine:
    """Rebuild ``s`` gap by gap so its slopes obey the divided-difference bound.

    The output polyline keeps the values of ``s`` at every data abscissa (and
    with them every approximation error), never gains a proper knot, and obeys
    |slope| <= m_second and |value| <= m_fourth from
    :func:`divided_difference_bound`.
    """
    if s.a != data.a or s.b != data.b:
        raise DomainError("spline and data must share the interval [a, b]")
    tau = default_slope_tolerance(s)
    pl = _Polyline(
        list(map(float, s.t)), list(map(float, s.v)), tuple(map(float, data.x))
    )
    _tidy(pl, data.x, tau)
    for q in range(1, len(data.x)):
        _iron_gap(pl, data.x, q, tau)
    _tidy(pl, data.x, tau)
    return BrokenLine(np.array(pl.ts), np.array(pl.vs))
