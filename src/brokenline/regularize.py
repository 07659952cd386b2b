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
    RegularizationBounds,
    check_domain,
    coincident,
    default_slope_tolerance,
    evaluate_many,
    proper_mask,
)


def divided_difference_bound(data: DataSet, s: BrokenLine) -> RegularizationBounds:
    """Value and divided-difference bounds of ``s`` sampled at the data abscissae.

    m_second is the largest chord slope between consecutive sampled values,
    m_prime the largest sampled magnitude, m_fourth = m_prime + (b-a)*m_second,
    and m = max(m_second, m_fourth).
    """
    check_domain(s, data)
    vals = evaluate_many(s, data.x)
    m_prime = float(np.max(np.abs(vals)))
    m_second = float(np.max(np.abs(np.diff(vals) / np.diff(data.x))))
    m_fourth = m_prime + (data.b - data.a) * m_second
    return RegularizationBounds(m_prime, m_second, m_fourth, max(m_second, m_fourth))


def _replace(s: BrokenLine, X: np.ndarray, points: list[tuple[float, float]]) -> BrokenLine:
    """``s`` with its part on [points[0].t, points[-1].t] replaced by the given breakpoints.

    A span end that lands strictly inside an existing piece truncates it;
    the sampled values on the surviving stub are pinned as explicit
    breakpoints so they stay bit-identical under later interpolation.
    """
    u, w = points[0][0], points[-1][0]
    head, tail = s.t < u, s.t > w
    pins_left = pins_right = X[:0]
    if u not in s.t and head.any():
        pins_left = X[(s.t[head][-1] < X) & (X < u)]
    if w not in s.t and tail.any():
        pins_right = X[(w < X) & (X < s.t[tail][0])]
    ts, vs = zip(*points)
    return BrokenLine(
        np.concatenate([s.t[head], pins_left, ts, pins_right, s.t[tail]]),
        np.concatenate(
            [s.v[head], evaluate_many(s, pins_left), vs, evaluate_many(s, pins_right), s.v[tail]]
        ),
    )


def _negate(s: BrokenLine) -> BrokenLine:
    return BrokenLine(s.t, -s.v)


def _proper_knots(s: BrokenLine, tau: float) -> list[float]:
    return s.knots[proper_mask(s, tau)].tolist()


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


def _first_crossing_down(
    s: BrokenLine, line: _Chord, start: float, stop: float
) -> tuple[float, float]:
    """Leftmost x in (start, stop] where the polyline comes back down onto ``line``.

    Assumes the difference polyline - line starts at zero in ``start`` and is
    positive immediately to the right; the search walks segment ends left to
    right and resolves the crossing in closed form, ties toward the smaller
    abscissa. Segment ends within rounding noise of the line count as lying
    on it, so the crossing is where the polyline leaves the line for good
    rather than a spurious micro-touch next to ``start``.
    """
    probes = s.t[(start < s.t) & (s.t < stop)].tolist() + [stop]
    prev_x, prev_d = start, 0.0
    for x, value in zip(probes, evaluate_many(s, probes).tolist()):
        d = value - line(x)
        if d < 0.0 and not coincident(value, line(x)):
            if prev_d > 0.0:
                xhat = prev_x + prev_d * (x - prev_x) / (prev_d - d)
            else:
                xhat = prev_x
            return xhat, line(xhat)
        prev_x, prev_d = x, d
    return stop, line(stop)


def _first_crossing(
    s: BrokenLine, line: _Chord, start: float, stop: float
) -> float | None:
    """Leftmost crossing of the polyline with ``line`` on [start, stop].

    Expects the polyline to start above the line and end below it; returns
    None when floating point leaves no sign change to resolve.
    """
    probes = [start] + s.t[(start < s.t) & (s.t < stop)].tolist() + [stop]
    prev_x = prev_d = None
    for x, value in zip(probes, evaluate_many(s, probes).tolist()):
        d = value - line(x)
        if prev_d is not None and prev_d > 0.0 >= d:
            return prev_x + prev_d * (x - prev_x) / (prev_d - d)
        prev_x, prev_d = x, d
    return None


def _chord_replace(s: BrokenLine, X: np.ndarray, u: float, w: float) -> BrokenLine:
    vu, vw = evaluate_many(s, [u, w]).tolist()
    return _replace(s, X, [(u, vu), (w, vw)])


def _iron_one_knot_below(s: BrokenLine, X: np.ndarray, q: int, t: float, tau: float) -> BrokenLine:
    """Exactly one proper knot t in the open gap, lying strictly below the chord.

    Dispatches on the position of the polyline relative to the gap chord and
    the forward tangent at x_q, looking one gap ahead; the final interval is
    flattened outright.
    """
    x_prev, x_q = float(X[q - 1]), float(X[q])
    v_prev, v_q = evaluate_many(s, [x_prev, x_q]).tolist()
    sigma = _Chord.through(x_prev, v_prev, x_q, v_q)
    if q == len(X) - 1:
        return _chord_replace(s, X, x_prev, x_q)
    x_next = float(X[q + 1])
    s_next = s(x_next)
    if s_next <= sigma(x_next):
        # The polyline re-crosses the extended chord inside the next gap:
        # flatten everything up to that crossing.
        xhat, vhat = _first_crossing_down(s, sigma, x_q, x_next)
        if xhat == x_next:
            vhat = s_next
        elif xhat == x_q:
            vhat = v_q
        points = [(x_prev, v_prev)]
        if x_q < xhat:
            points.append((x_q, v_q))
        points.append((xhat, vhat))
        return _replace(s, X, points)
    right_knots = [u for u in _proper_knots(s, tau) if x_q < u <= x_next]
    if len(right_knots) == 1:
        t2 = right_knots[0]
        slope_q = float(s.slopes()[np.searchsorted(s.t, x_q, side="right") - 1])
        phi = _Chord(x_q, v_q, slope_q)  # forward tangent at x_q
        phi_next = phi(x_next)
        if t2 == x_next or coincident(s_next, phi_next):
            return s  # straight through the next gap; the lone knot sits on x_{q+1}
        if s_next < phi_next:
            psi = _Chord.through(x_q, v_q, x_next, s_next)
            xhat = _first_crossing(s, psi, x_prev, t)
            if xhat is None or not (x_prev < xhat < t):
                # Degenerate: bend at the knot itself, keeping its stored value
                # so the polyline left of it stays untouched bit-for-bit.
                start_point = (t, s(t))
            else:
                start_point = (xhat, psi(xhat))
            return _replace(s, X, [start_point, (x_q, v_q), (x_next, s_next)])
        chi = _Chord.through(t2, s(t2), x_next, s_next)
        denom = sigma.slope - chi.slope
        xhat = (chi(x_q) - sigma(x_q)) / denom + x_q if denom != 0.0 else t2
        xhat = min(max(xhat, x_q), t2)
        points = [(x_prev, v_prev), (x_q, v_q), (xhat, sigma(xhat)), (x_next, s_next)]
        return _replace(s, X, points)
    if not right_knots:
        return s  # lone knot; both adjacent slopes are already divided differences
    return _chord_replace(_chord_replace(s, X, x_prev, x_q), X, x_q, x_next)


def _iron_gap(s: BrokenLine, X: np.ndarray, q: int, tau: float) -> BrokenLine:
    x_prev, x_q = float(X[q - 1]), float(X[q])
    if not np.any((x_prev < s.t) & (s.t < x_q)):
        return s  # no breakpoint inside the gap, so no gap knot to iron
    proper = _proper_knots(s, tau)
    gap_knots = [u for u in proper if x_prev < u < x_q]
    if q == 1:
        return _chord_replace(s, X, x_prev, x_q) if gap_knots else s
    if not gap_knots:
        return s
    if len(gap_knots) >= 2 or x_prev in proper or x_q in proper:
        return _chord_replace(s, X, x_prev, x_q)
    t = gap_knots[0]
    v_prev, v_q, s_t = evaluate_many(s, [x_prev, x_q, t]).tolist()
    sigma = _Chord.through(x_prev, v_prev, x_q, v_q)
    if coincident(s_t, sigma(t)):
        return _chord_replace(s, X, x_prev, x_q)  # knot sits on the chord: merge it away
    if s_t < sigma(t):
        return _iron_one_knot_below(s, X, q, t, tau)
    return _negate(_iron_one_knot_below(_negate(s), X, q, t, tau))


def _tidy(s: BrokenLine, X: np.ndarray, tau: float) -> BrokenLine:
    """Drop improper breakpoints whose removal leaves all sampled values bit-equal.

    The case dispatch only ever counts proper knots, so improper breakpoints
    are invisible to the construction either way; removal is purely cosmetic
    and therefore must not perturb a single sampled bit.
    """
    sampled = evaluate_many(s, X)  # every kept removal leaves these bit-equal
    proper = proper_mask(s, tau)
    j = 1
    while j < len(s.t) - 1:
        if not proper[j - 1]:
            trimmed = BrokenLine(np.delete(s.t, j), np.delete(s.v, j))
            if np.array_equal(evaluate_many(trimmed, X), sampled):
                # Only the neighbours of j changed: earlier breakpoints keep
                # their verdicts, so the scan resumes at j - 1.
                s, proper, j = trimmed, proper_mask(trimmed, tau), max(j - 1, 1)
                continue
        j += 1
    return s


def regularize(data: DataSet, s: BrokenLine) -> BrokenLine:
    """Rebuild ``s`` gap by gap so its slopes obey the divided-difference bound.

    The output polyline keeps the values of ``s`` at every data abscissa (and
    with them every approximation error), never gains a proper knot, and obeys
    |slope| <= m_second and |value| <= m_fourth from
    :func:`divided_difference_bound`. The proper-knot threshold is the input's
    and stays fixed for the whole rebuild.
    """
    check_domain(s, data)
    tau = default_slope_tolerance(s)
    s = _tidy(s, data.x, tau)
    for q in range(1, len(data.x)):
        s = _iron_gap(s, data.x, q, tau)
    return _tidy(s, data.x, tau)
