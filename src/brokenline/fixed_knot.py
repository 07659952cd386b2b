"""Best approximation with a fixed knot vector: the convex inner solver.

Every knot configuration examined by the global search reduces to fits of this
kind: a continuous polyline with prescribed breakpoints whose values are the
unknowns ("hat" coordinates); a chain without knots is the two-breakpoint
case. p = 2 is linear least squares, p = 1 and p = inf are linear programs
solved by the built-in simplex, and general p uses damped Newton on the smooth
convex objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BrokenLine, DataSet, PNorm
from .norms import residual_norm
from .simplex import solve_lp


class ConfigurationError(ValueError):
    """A knot placement leaves some piece without data to determine it."""


@dataclass(frozen=True)
class Line:
    """y = slope * x + intercept."""

    slope: float
    intercept: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise ValueError("line coefficients must be finite")

    def __call__(self, x: float) -> float:
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class ChainProblem:
    """A contiguous data block [lo, hi] with internal knots at data abscissae.

    ``knot_indices`` are data indices strictly between lo and hi; every piece
    between consecutive breakpoints must cover at least two data abscissae
    counting the shared endpoints.
    """

    lo: int
    hi: int
    knot_indices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        idx = (self.lo, *self.knot_indices, self.hi)
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"chain indices (lo, *knots, hi) = {idx} must be strictly increasing")

    def breakpoint_indices(self) -> tuple[int, ...]:
        return (self.lo, *self.knot_indices, self.hi)


def hat_design(xs: np.ndarray, bps: np.ndarray) -> np.ndarray:
    """Interpolation-weight rows of a polyline with breakpoints ``bps`` at ``xs``.

    Each abscissa contributes one row holding the two hat weights of the piece
    covering it; an abscissa lying bit-equal on a breakpoint gets weight one
    there, because its w is exactly 0.
    """
    rows = np.arange(len(xs))
    A = np.zeros((len(xs), len(bps)))
    piece = np.searchsorted(bps[1:-1], xs, side="right")  # inner breakpoints <= x: 0 .. d-2
    w = (xs - bps[piece]) / (bps[piece + 1] - bps[piece])
    A[rows, piece] = 1.0 - w
    A[rows, piece + 1] = w
    return A


_NEWTON_GTOL = 1e-10
_NEWTON_MAX_ITER = 200


def _newton_fit(A: np.ndarray, fs: np.ndarray, p: float) -> np.ndarray:
    """Damped Newton for min sum |f - A beta|^p, 1 < p < inf, p != 2.

    The stopping rule and smoothing are absolute, so f is first divided by
    the power of two nearest max|f|, which keeps the rescaling exact, and the
    least-squares fit is the start. For p < 2 the second derivative blows up
    at zero residual, so the objective is smoothed to sum (r^2 + mu^2)^(p/2)
    with mu driven down to 1e-12 by continuation. A step is taken only if it
    strictly decreases the objective.
    """
    top = float(np.max(np.abs(fs)))
    scale = 2.0 ** round(math.log2(top)) if top > 0 else 1.0
    fs = fs / scale
    beta, *_ = np.linalg.lstsq(A, fs, rcond=None)
    mus = [0.0] if p >= 2.0 else [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12]

    def objective(b: np.ndarray, mu: float) -> float:
        r = fs - A @ b
        return float(np.sum((r * r + mu * mu) ** (p / 2.0)))

    for mu in mus:
        for _ in range(_NEWTON_MAX_ITER):
            r = fs - A @ beta
            s2 = r * r + mu * mu
            grad = -A.T @ (p * r * s2 ** (p / 2.0 - 1.0))
            if float(np.linalg.norm(grad)) <= _NEWTON_GTOL:
                break
            if mu == 0.0:
                weights = p * (p - 1.0) * np.abs(r) ** (p - 2.0)
            else:
                weights = p * s2 ** (p / 2.0 - 2.0) * ((p - 1.0) * r * r + mu * mu)
            H = (A * weights[:, None]).T @ A
            H[np.diag_indices_from(H)] += 1e-14 * (1.0 + float(np.trace(H)))
            try:
                step = np.linalg.solve(H, -grad)
            except np.linalg.LinAlgError:
                step = -grad
            base = objective(beta, mu)
            alpha = 1.0
            while alpha > 1e-14:
                cand = beta + alpha * step
                if objective(cand, mu) < base:
                    beta = cand
                    break
                alpha /= 2.0
            else:
                break
    return scale * beta


def _lp_fit(A: np.ndarray, fs: np.ndarray, p: PNorm) -> np.ndarray:
    """Solve the l_1 or l_inf fitting LP over free coefficients ``beta``.

    Free variables are split into positive and negative parts; the residual
    bound variables eps satisfy -eps <= f - A beta <= eps, as the rows
    ``[A, -A, -E] <= f`` and then ``[-A, A, -E] <= -f``, each with a slack.
    The simplex starts at beta = 0 with each eps basic in the tight row of
    its pair (Barrodale & Roberts, 1973): for l_1, eps_i in row i if
    f_i < 0, else in row n+i; for l_inf, the one eps in the row of least
    right-hand side. The tableau, objective row last, is written there
    directly: each tight row is negated, the rows it binds (its pair row, or
    for l_inf every other row) have it subtracted, and the objective row is
    c minus the negated tight rows, accumulated in row order. That is what
    pivots on the -1 entries of the eps columns would give, value for value,
    so the start right-hand sides (|f_i| and 2|f_i|, or b - min b) are never
    negative. Negation is written ``0.0 - row`` so that its zeros are +0, as
    after a pivot; the l_inf tableau then matches the pivoted one bit for
    bit. The slack identity and the eps columns' -1s are diagonals of the
    row-major constraint rows, written through strided views of their
    ``reshape``, not index arrays.
    """
    n, d = A.shape
    n_eps = 1 if p.is_infinity else n
    m, slack = 2 * n, 2 * d + n_eps
    width = slack + m + 1
    tableau = np.zeros((m + 1, width))
    T, obj = tableau[:m], tableau[m]
    T[:n, :d] = T[n:, d : 2 * d] = A
    T[:n, d : 2 * d] = T[n:, :d] = -A
    T.reshape(m // n_eps, -1)[:, 2 * d :: width + 1] = -1.0
    T.reshape(-1)[slack :: width + 1] = 1.0
    T[:n, -1] = fs
    T[n:, -1] = -fs
    if p.is_infinity:  # every row is bound; the tight one is rewritten below
        tight, bound = np.argmin(T[:, -1:], axis=0), slice(None)
    else:
        rows = np.arange(n)
        tight = np.where(fs < 0, rows, rows + n)
        bound = np.where(fs < 0, rows + n, rows)
    tight_rows = T[tight]
    T[bound] -= tight_rows
    T[tight] = tight_rows = 0.0 - tight_rows
    obj[2 * d : slack] = 1.0
    obj -= np.add.accumulate(tight_rows, axis=0)[-1]
    basis = slack + np.arange(m)
    basis[tight] = 2 * d + np.arange(n_eps)
    x = solve_lp(tableau, basis)
    return x[:d] - x[d : 2 * d]


def _fit_coefficients(A: np.ndarray, fs: np.ndarray, p: PNorm) -> np.ndarray:
    if p.p == 2.0:
        beta, *_ = np.linalg.lstsq(A, fs, rcond=None)
        return beta
    if p.p == 1.0 or p.is_infinity:
        return _lp_fit(A, fs, p)
    return _newton_fit(A, fs, p.p)


def fit_line(xs, fs, p: PNorm) -> tuple[Line, float]:
    """Line minimizing the p-norm of residuals over the given points.

    p = 2 uses the centered closed form. Other norms fit the end values of the
    line in the hat basis on [min xs, max xs] (``fit_values``), which stays
    well conditioned at any offset of x.
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if len(xs) != len(fs) or len(xs) < 1:
        raise ValueError("need matching xs/fs with at least one point")
    if p.p == 2.0:
        xm, fm = xs.mean(), fs.mean()
        sxx = float(np.dot(xs - xm, xs - xm))
        slope = float(np.dot(xs - xm, fs - fm)) / sxx if sxx > 0 else 0.0
        line = Line(slope, float(fm - slope * xm))
        return line, residual_norm(fs - (line.slope * xs + line.intercept), p)
    lo, hi = float(xs.min()), float(xs.max())
    if lo == hi:
        A = np.ones((len(xs), 1))
        values = _fit_coefficients(A, fs, p)
        return Line(0.0, float(values[0])), residual_norm(fs - A @ values, p)
    values, err = fit_values(xs, fs, np.array([lo, hi]), p)
    slope = float(values[1] - values[0]) / (hi - lo)
    return Line(slope, float(values[0]) - slope * lo), err


def fit_values(
    xs: np.ndarray, fs: np.ndarray, bps: np.ndarray, p: PNorm
) -> tuple[np.ndarray, float]:
    """Optimal breakpoint values of a polyline with fixed breakpoints ``bps``."""
    A = hat_design(xs, bps)
    values = _fit_coefficients(A, fs, p)
    return values, residual_norm(fs - A @ values, p)


def fit_chain(data: DataSet, chain: ChainProblem, p: PNorm) -> tuple[BrokenLine, float]:
    """Best polyline over one chain: fixed data knots, free breakpoint values.

    Every chain, with or without internal knots, is fitted in the hat basis
    on its breakpoints; ``ChainProblem`` already guarantees each piece covers
    two data abscissae. The returned polyline spans the chain block
    [x_lo, x_hi] only.
    """
    if not (0 <= chain.lo and chain.hi <= len(data.x) - 1):
        raise ValueError("chain block outside the data set")
    xs = data.x[chain.lo : chain.hi + 1]
    fs = data.f[chain.lo : chain.hi + 1]
    bps = data.x[list(chain.breakpoint_indices())]
    values, err = fit_values(xs, fs, bps, p)
    return BrokenLine(bps, values), err


def fit_fixed_knots(
    data: DataSet, knots, p: PNorm
) -> tuple[BrokenLine, float]:
    """Best polyline over the full data set with interior knots fixed at ``knots``.

    The knots may sit anywhere strictly inside (a, b), on or off the data
    abscissae; only the breakpoint values are optimized.
    """
    knots = np.asarray(knots, dtype=float)
    if len(knots) and not (
        np.all(np.diff(knots) > 0) and data.a < knots[0] and knots[-1] < data.b
    ):
        raise ValueError("knots must be strictly increasing inside (a, b)")
    bps = np.concatenate(([data.a], knots, [data.b]))
    for lo, hi in zip(bps, bps[1:]):
        if not np.any((lo <= data.x) & (data.x <= hi)):
            raise ConfigurationError(f"piece [{lo}, {hi}] covers no data abscissae")
    values, err = fit_values(data.x, data.f, bps, p)
    return BrokenLine(bps, values), err
