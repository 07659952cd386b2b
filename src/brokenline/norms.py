"""Discrete l_p objective: the norm of the residual vector f - s(X)."""

from __future__ import annotations

import math

import numpy as np

from .core import BrokenLine, DataSet, PNorm, check_domain, evaluate_many


def pow2_above(values: np.ndarray) -> float:
    """Least power of two above max|values|, or 1; dividing by it is exact barring underflow."""
    return math.ldexp(1.0, math.frexp(float(np.max(np.abs(values), initial=0.0)))[1])


def residual_norm(r: np.ndarray, p: PNorm) -> float:
    """l_p norm of a residual vector, safe from over- and underflow for p > 1.

    For general p the norm is computed in the max-factored form
    ``max|r| * (sum (|r|/max|r|)^p)^(1/p)`` so that huge p never overflows.
    At p = 2 a sum of squares out of range is taken again on r / ``pow2_above(r)``.
    """
    r = np.asarray(r, dtype=float)
    if p.is_infinity:
        return float(np.abs(r).max())
    if p.p == 1.0:
        return float(np.abs(r).sum())
    if p.p == 2.0:
        # np.vdot, unlike np.dot, raises no floating-point warning, so the
        # overflow handled below stays silent without a costly np.errstate.
        squares = float(np.vdot(r, r))
        if 2.0**-900 <= squares < math.inf:
            return math.sqrt(squares)
        scale = pow2_above(r)
        r = r / scale
        return scale * math.sqrt(np.dot(r, r))
    top = float(np.abs(r).max())
    if top == 0.0:
        return 0.0
    scaled = np.abs(r) / top
    return float(top * (scaled**p.p).sum() ** (1.0 / p.p))


def error_norm(data: DataSet, s: BrokenLine, p: PNorm) -> float:
    """Approximation error ||f - s(X)||_p of a polyline against the data."""
    check_domain(s, data)
    return residual_norm(data.f - evaluate_many(s, data.x), p)
