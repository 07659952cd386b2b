"""Dense tableau simplex with Bland's rule for the tiny fitting LPs.

The fitting problems here have a few dozen rows at most, so a dense tableau is
plenty. There is no auxiliary phase: the caller starts the LP at a feasible
vertex it knows, given as pivots on the slack tableau. Bland's anti-cycling
rule makes the returned vertex deterministic, which pins down a canonical
minimizer whenever the l_1 / l_inf fit is not unique.
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


def solve_lp(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    start: tuple[tuple[int, int], ...] = (),
) -> tuple[np.ndarray, float]:
    """Minimize ``c @ x`` subject to ``A @ x <= b`` and ``x >= 0``.

    The slack basis is feasible when ``b >= 0``. Otherwise ``start`` lists the
    ``(row, column)`` pivots that take it to a feasible vertex; a negative
    right-hand side left after them raises :class:`SimplexError`. Returns the
    optimal vertex and objective value.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    m, n = A.shape

    T = np.zeros((m, n + m + 1))
    T[:, :n] = A
    T[np.arange(m), n + np.arange(m)] = 1.0
    T[:, -1] = b
    obj = np.zeros(n + m + 1)
    obj[:n] = c
    basis = n + np.arange(m)
    for row, col in start:
        _pivot(T, obj, row, col)
        basis[row] = col
    if (T[:, -1] < 0.0).any():
        raise SimplexError("start is not a feasible vertex")
    _iterate(T, obj, basis)

    x = np.zeros(n)
    in_x = basis < n
    x[basis[in_x]] = T[in_x, -1]
    return x, float(c @ x)
