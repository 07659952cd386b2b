"""Dense tableau simplex with Bland's rule for the tiny fitting LPs.

The fitting problems here have a few dozen rows at most, so a dense tableau is
plenty. There is no auxiliary phase: the caller writes the tableau at a
feasible vertex it knows. Bland's anti-cycling rule makes the returned vertex
deterministic, which pins down a canonical minimizer whenever the l_1 / l_inf
fit is not unique.
"""

from __future__ import annotations

import numpy as np

_TOL = 1e-9  # pivot entries and reduced costs; the fitting LPs' c and A are unit-free
_MAX_ITER = 20000


class SimplexError(RuntimeError):
    """Infeasible start, unbounded LP, or iteration limit hit."""


def _pivot(T: np.ndarray, obj: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    obj -= obj[col] * T[row]


def _iterate(T: np.ndarray, obj: np.ndarray, basis: np.ndarray) -> None:
    for _ in range(_MAX_ITER):
        entering = np.flatnonzero(obj[:-1] < -_TOL)
        if len(entering) == 0:
            return
        j = int(entering[0])  # Bland: smallest eligible index
        col = T[:, j]
        rows = np.flatnonzero(col > _TOL)
        if len(rows) == 0:
            raise SimplexError("LP is unbounded")
        ratios = T[rows, -1] / col[rows]
        best = ratios.min()
        ties = rows[ratios == best]
        leave = int(ties[np.argmin(basis[ties])])  # Bland: smallest basis index
        _pivot(T, obj, leave, j)
        basis[leave] = j
    raise SimplexError("simplex iteration limit exceeded")


def solve_lp(T: np.ndarray, obj: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Minimize from a tableau written at a feasible vertex.

    ``T`` holds one row per constraint, one column per variable (slacks
    included) and the right-hand side last; ``obj`` holds the reduced costs
    and minus the objective value last; ``basis[r]`` is the variable basic in
    row ``r``. All three are updated in place. A negative right-hand side
    raises :class:`SimplexError`. Returns the optimal vertex over every
    column of ``T`` but the last.
    """
    if (T[:, -1] < 0.0).any():
        raise SimplexError("start is not a feasible vertex")
    _iterate(T, obj, basis)
    x = np.zeros(T.shape[1] - 1)
    x[basis] = T[:, -1]
    return x
