"""Dense tableau simplex with Bland's rule for the fitting LPs.

A chain on n points gives 2n rows (1004 at mu = 500), but most chains are
short, so numpy's per-call overhead, not arithmetic, sets a pivot's cost: each
pivot takes one scan for the entering column, one sort for the ratio test and
one broadcast update of the whole tableau, objective row included. There is
no auxiliary phase: the caller writes the tableau at a feasible vertex it
knows. Bland's anti-cycling rule makes the returned vertex deterministic,
which pins down a canonical minimizer whenever the l_1 / l_inf fit is not
unique.
"""

from __future__ import annotations

import numpy as np

_TOL = 1e-9  # pivot entries and reduced costs; the fitting LPs' c and A are unit-free
_MAX_ITER = 20000  # pivots


class SimplexError(RuntimeError):
    """Infeasible start, unbounded LP, or iteration limit hit."""


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    prow = T[row]
    prow /= prow[col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * prow


def solve_lp(T: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Minimize from a tableau written at a feasible vertex.

    ``T`` holds one row per constraint and the objective row last, one column
    per variable (slacks included) and the right-hand side last; the
    objective row holds the reduced costs and minus the objective value.
    ``basis[r]`` is the variable basic in constraint row ``r``. Both are
    updated in place. A negative right-hand side raises
    :class:`SimplexError`. Returns the optimal vertex over every column of
    ``T`` but the last.
    """
    rhs, rc = T[:-1, -1], T[-1, :-1]
    if (rhs < 0.0).any():
        raise SimplexError("start is not a feasible vertex")
    for pivots in range(_MAX_ITER + 1):
        eligible = rc < -_TOL
        j = int(eligible.argmax())  # Bland: smallest eligible index
        if not eligible[j]:
            break
        if pivots == _MAX_ITER:
            raise SimplexError("simplex iteration limit exceeded")
        col = T[:-1, j]
        rows = (col > _TOL).nonzero()[0]
        if not len(rows):
            raise SimplexError("LP is unbounded")
        # Bland: least ratio, ties to the smallest basis label
        leave = int(rows[np.lexsort((basis[rows], rhs[rows] / col[rows]))[0]])
        _pivot(T, leave, j)
        basis[leave] = j
    x = np.zeros(T.shape[1] - 1)
    x[basis] = rhs
    return x
