import math

import numpy as np
import pytest

from brokenline import (
    ChainProblem,
    ConfigurationError,
    DataSet,
    PNorm,
    fit_chain,
    fit_fixed_knots,
    fit_line,
    residual_norm,
)
from brokenline import fixed_knot, simplex
from brokenline.fixed_knot import Line, hat_design
from brokenline.simplex import _TOL, SimplexError, _pivot, solve_lp

from conftest import make_rng, random_dataset

ALL_NORMS = [PNorm.one(), PNorm.two(), PNorm.infinity()]

# sqrt(1/6): frozen from the independent grid oracle run before the build
CHAIN_GOLDEN = 0.408248290463863


def pivoted_start(c, A, b, start=()):
    """Slack tableau of min c @ x, A @ x <= b, x >= 0, taken through ``start``.

    Returns the tableau, objective row last, and the basis. ``start`` lists
    (row, column) pivots made with the simplex's own ``_pivot``. Taken
    through the start pivots of ``fitting_lp``, this is the reference for
    the tableau ``_lp_fit`` writes in closed form.
    """
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[np.arange(m), n + np.arange(m)] = 1.0
    T[:m, -1] = b
    T[m, :n] = c
    basis = n + np.arange(m)
    for row, col in start:
        _pivot(T, row, col)
        basis[row] = col
    return T, basis


def fitting_lp(A, fs, p):
    """The l_1 / l_inf fitting LP of ``_lp_fit`` as (c, A_ub, b_ub, start pivots)."""
    n, d = A.shape
    E = np.ones((n, 1)) if p.is_infinity else np.eye(n)
    c = np.concatenate([np.zeros(2 * d), np.ones(E.shape[1])])
    A_ub = np.block([[A, -A, -E], [-A, A, -E]])
    b_ub = np.concatenate([fs, -fs])
    if p.is_infinity:
        start = ((int(np.argmin(b_ub)), 2 * d),)
    else:
        start = tuple((i if fs[i] < 0 else n + i, 2 * d + i) for i in range(n))
    return c, A_ub, b_ub, start


def seeded_hat_lps():
    """(A, fs) of 120 seeded hat-design fitting LPs with n = 3..10 points.

    Integer f gives exact zeros, which pick the tight row, and ties for the
    l_inf argmin row and in the ratio test; half the cases sit at epoch-sized
    x, and every tenth has -0.0 entries in f.
    """
    rng = make_rng(63)
    for case in range(120):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(0, min(3, n - 2) + 1))
        xs = np.cumsum(rng.uniform(0.5, 1.5, n))
        if case % 2:
            xs = 60.0 * xs + 1.7e9
        fs = rng.uniform(-1.0, 1.0, n)
        if case % 3:
            fs = rng.integers(-1, 2, n).astype(float)
        if case % 10 == 9:
            fs[rng.integers(0, n, 2)] = -0.0
        knots = sorted(rng.choice(np.arange(1, n - 1), k, replace=False))
        yield hat_design(xs, xs[[0, *knots, n - 1]]), fs


def outer_pivot(T, obj, row, col):
    """One pivot with an ``np.outer`` update, the reference for ``simplex._pivot``."""
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    obj -= obj[col] * T[row]


def bland_reference(T, obj, basis):
    """Bland's rule step by step, the reference for ``solve_lp``.

    The constraint rows ``T`` and the objective row ``obj`` are separate
    arrays; each step scans with ``flatnonzero``, breaks ratio ties by
    ``min`` then ``argmin`` and pivots with ``outer_pivot``. Updates all three
    in place and returns the vertex, the number of pivots and how many of
    them the smallest-basis-label rule sent to a row other than the first of
    the tied ratios.
    """
    pivots = label_picks = 0
    while True:
        entering = np.flatnonzero(obj[:-1] < -_TOL)
        if len(entering) == 0:
            break
        j = int(entering[0])
        col = T[:, j]
        rows = np.flatnonzero(col > _TOL)
        ratios = T[rows, -1] / col[rows]
        ties = rows[ratios == ratios.min()]
        leave = int(ties[np.argmin(basis[ties])])
        label_picks += leave != ties[0]
        outer_pivot(T, obj, leave, j)
        basis[leave] = j
        pivots += 1
    x = np.zeros(T.shape[1] - 1)
    x[basis] = T[:, -1]
    return x, pivots, label_picks


def fancy_index_start(A, fs, p):
    """``_lp_fit``'s start tableau with index arrays for the diagonals, its reference."""
    n, d = A.shape
    n_eps = 1 if p.is_infinity else n
    m, slack = 2 * n, 2 * d + n_eps
    T = np.zeros((m, slack + m + 1))
    T[:n, :d] = T[n:, d : 2 * d] = A
    T[:n, d : 2 * d] = T[n:, :d] = -A
    T[np.arange(m), 2 * d + np.arange(m) % n_eps] = -1.0
    T[np.arange(m), slack + np.arange(m)] = 1.0
    T[:n, -1] = fs
    T[n:, -1] = -fs
    if p.is_infinity:
        tight = np.argmin(T[:, -1:], axis=0)
        bound = np.flatnonzero(np.arange(m) != tight[0])
    else:
        rows = np.arange(n)
        tight = np.where(fs < 0, rows, rows + n)
        bound = np.where(fs < 0, rows + n, rows)
    T[bound] -= T[tight]
    T[tight] = 0.0 - T[tight]
    obj = np.zeros(slack + m + 1)
    obj[2 * d : slack] = 1.0
    obj -= np.add.accumulate(T[tight], axis=0)[-1]
    basis = slack + np.arange(m)
    basis[tight] = 2 * d + np.arange(n_eps)
    return T, obj, basis


def clipped_hat_design(xs, bps):
    """``hat_design`` with the piece found by a clipped search over every breakpoint, its reference."""
    n, d = len(xs), len(bps)
    A = np.zeros((n, d))
    piece = np.clip(np.searchsorted(bps, xs, side="right") - 1, 0, d - 2)
    w = (xs - bps[piece]) / (bps[piece + 1] - bps[piece])
    A[np.arange(n), piece] = 1.0 - w
    A[np.arange(n), piece + 1] = w
    return A


def captured_starts(monkeypatch):
    """Spy on ``fixed_knot.solve_lp``; return the list of (T, basis) copies it is handed."""
    seen = []

    def spy(T, basis):
        seen.append((T.copy(), basis.copy()))
        return solve_lp(T, basis)

    monkeypatch.setattr(fixed_knot, "solve_lp", spy)
    return seen


def counting_pivots(monkeypatch):
    """Wrap ``simplex._pivot`` and return the list it appends one entry to per pivot."""
    made = []
    pivot = simplex._pivot

    def counted(*args):
        made.append(args[1:])
        pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", counted)
    return made


# max x+y st x+2y<=4, 3x+y<=6  ->  min -(x+y), optimum at (8/5, 6/5)
KNOWN_LP = (np.array([-1.0, -1.0]), np.array([[1.0, 2.0], [3.0, 1.0]]), np.array([4.0, 6.0]))


class TestSimplex:
    def test_known_optimum(self):
        x = solve_lp(*pivoted_start(*KNOWN_LP))
        assert abs(KNOWN_LP[0] @ x[:2] - (-2.8)) <= 1e-9
        assert np.allclose(x[:2], [1.6, 1.2], atol=1e-9)

    def test_iteration_limit(self, monkeypatch):
        # _MAX_ITER caps the pivots: one fewer than the LP needs raises, as many solves.
        made = counting_pivots(monkeypatch)
        solve_lp(*pivoted_start(*KNOWN_LP))
        assert len(made) >= 1
        monkeypatch.setattr(simplex, "_MAX_ITER", len(made) - 1)
        with pytest.raises(SimplexError, match="iteration limit"):
            solve_lp(*pivoted_start(*KNOWN_LP))
        monkeypatch.setattr(simplex, "_MAX_ITER", len(made))
        x = solve_lp(*pivoted_start(*KNOWN_LP))
        assert np.allclose(x[:2], [1.6, 1.2], atol=1e-9)

    def test_negative_rhs_uses_start_pivots(self):
        # min x st -x <= -3, started with x basic in row 0  ->  x = 3
        x = solve_lp(*pivoted_start(np.array([1.0]), np.array([[-1.0]]), np.array([-3.0]), ((0, 0),)))
        assert abs(x[0] - 3.0) <= 1e-9

    def test_unbounded_detected(self):
        with pytest.raises(SimplexError):
            solve_lp(*pivoted_start(np.array([-1.0]), np.array([[-1.0]]), np.array([0.0])))

    def test_infeasible_detected(self):
        with pytest.raises(SimplexError):
            solve_lp(
                *pivoted_start(np.array([0.0]), np.array([[1.0], [-1.0]]), np.array([1.0, -2.0]))
            )

    def test_infeasible_start_rejected(self):
        # -x <= -3 and x <= 1: the start x = 3 leaves row 1 at 1 - 3 < 0
        with pytest.raises(SimplexError):
            solve_lp(
                *pivoted_start(
                    np.array([1.0]), np.array([[-1.0], [1.0]]), np.array([-3.0, 1.0]), ((0, 0),)
                )
            )

    @pytest.mark.parametrize("p", [PNorm.one(), PNorm.infinity()])
    def test_closed_form_start_matches_pivots(self, p, monkeypatch):
        # _lp_fit writes its start tableau directly. On seeded hat-design LPs
        # it must equal the slack tableau taken through the start pivots,
        # value for value, and the solved vertex must match bit for bit.
        # A -0.0 in f may flip the sign of a zero slack or eps in the l_1
        # vertex, never a coefficient.
        seen = captured_starts(monkeypatch)
        for A, fs in seeded_hat_lps():
            d = A.shape[1]
            seen.clear()
            beta = fixed_knot._lp_fit(A, fs, p)
            assert len(seen) == 1
            c, A_ub, b_ub, start = fitting_lp(A, fs, p)
            T, basis = pivoted_start(c, A_ub, b_ub, start)
            T0, basis0 = seen[0]
            assert np.array_equal(T0[:-1], T[:-1]) and np.array_equal(basis0, basis)
            assert np.array_equal(T0[-1, :-1], T[-1, :-1])  # the objective value is never read
            if p.is_infinity:
                assert T0[:-1].tobytes() == T[:-1].tobytes()
            x = solve_lp(T, basis)
            assert beta.tobytes() == (x[:d] - x[d : 2 * d]).tobytes()
            if np.signbit(fs[fs == 0.0]).any():
                assert np.array_equal(solve_lp(T0, basis0), x)
            else:
                assert solve_lp(T0, basis0).tobytes() == x.tobytes()

    @pytest.mark.parametrize("p", [PNorm.one(), PNorm.infinity()])
    def test_solve_lp_matches_the_reference_loop(self, p, monkeypatch):
        # solve_lp must take Bland's path pivot for pivot: the same vertex,
        # final tableau, objective row included, and basis, byte for byte.
        # The sample has ratio ties that the smallest basis label breaks
        # away from the first tied row.
        made = counting_pivots(monkeypatch)
        label_picks = 0
        for A, fs in seeded_hat_lps():
            T, basis = pivoted_start(*fitting_lp(A, fs, p))
            ref_T, ref_obj, ref_basis = T[:-1].copy(), T[-1].copy(), basis.copy()
            x_ref, pivots, picks = bland_reference(ref_T, ref_obj, ref_basis)
            label_picks += picks
            made.clear()
            x = solve_lp(T, basis)
            assert len(made) == pivots
            assert x.tobytes() == x_ref.tobytes() and basis.tobytes() == ref_basis.tobytes()
            assert T.tobytes() == np.vstack([ref_T, ref_obj]).tobytes()
        assert label_picks > 0

    @pytest.mark.parametrize("p", [PNorm.one(), PNorm.infinity()])
    def test_start_tableau_matches_the_index_array_writer(self, p, monkeypatch):
        # _lp_fit writes the slack and eps diagonals through strided views;
        # its start must equal the index-array writer's byte for byte, from
        # n = 2 points with d = n coefficients to the one-coefficient constant fit.
        seen = captured_starts(monkeypatch)
        rng = make_rng(64)
        for n in range(2, 14):
            xs = np.cumsum(rng.uniform(0.5, 1.5, n))
            fs = rng.integers(-2, 3, n).astype(float) if n % 2 else rng.uniform(-1.0, 1.0, n)
            if n % 4 == 1:
                fs[n // 2] = -0.0
            for d in range(1, n + 1):
                if d == 1:
                    A = np.ones((n, 1))
                else:
                    knots = sorted(rng.choice(np.arange(1, n - 1), d - 2, replace=False))
                    A = hat_design(xs, xs[[0, *knots, n - 1]])
                seen.clear()
                fixed_knot._lp_fit(A, fs, p)
                T, obj, basis = fancy_index_start(A, fs, p)
                assert seen[0][0].tobytes() == np.vstack([T, obj]).tobytes()
                assert seen[0][1].tobytes() == basis.tobytes()

    @pytest.mark.parametrize("p", [PNorm.one(), PNorm.infinity()])
    def test_chain_fits_match_highs(self, p):
        # The same fitting LP solved by an independent solver (HiGHS).
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = make_rng(60)
        for _ in range(100):
            data = random_dataset(rng, int(rng.integers(2, 9)))
            n = len(data.x)
            k = int(rng.integers(0, min(3, n - 2) + 1))
            knots = tuple(sorted(rng.choice(np.arange(1, n - 1), k, replace=False)))
            chain = ChainProblem(0, n - 1, tuple(int(i) for i in knots))
            _, err = fit_chain(data, chain, p)
            A = hat_design(data.x, data.x[list(chain.breakpoint_indices())])
            d = A.shape[1]
            E = np.ones((n, 1)) if p.is_infinity else np.eye(n)
            res = linprog(
                np.concatenate([np.zeros(d), np.ones(E.shape[1])]),
                A_ub=np.block([[A, -E], [-A, -E]]),
                b_ub=np.concatenate([data.f, -data.f]),
                bounds=[(None, None)] * d + [(0, None)] * E.shape[1],
                method="highs",
            )
            assert res.status == 0
            assert abs(err - res.fun) <= 1e-9 * (1.0 + abs(res.fun))


class TestFitLine:
    @pytest.mark.parametrize("p", ALL_NORMS)
    def test_collinear_any_norm(self, p):
        line, err = fit_line([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], p)
        assert err <= 1e-12
        assert abs(line.slope - 1.0) <= 1e-9 and abs(line.intercept) <= 1e-9

    def test_three_point_least_squares(self):
        line, err = fit_line([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], PNorm.two())
        assert line.slope == 0.0
        assert abs(line.intercept - 1.0 / 3.0) <= 1e-12
        assert abs(err - math.sqrt(2.0 / 3.0)) <= 1e-12

    def test_three_point_minimax(self):
        line, err = fit_line([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], PNorm.infinity())
        assert abs(line.slope) <= 1e-9
        assert abs(line.intercept - 0.5) <= 1e-9
        assert abs(err - 0.5) <= 1e-12

    def test_single_point(self):
        for p in ALL_NORMS + [PNorm.general(1.5), PNorm.general(3.0)]:
            for f0 in (2.0, -3.7, 0.0, 1e-13, 1e160):
                for x0 in (1.0, -5.0, 1.7e9):
                    line, err = fit_line([x0], [f0], p)
                    assert (line.slope, line.intercept, err) == (0.0, f0, 0.0)

    @pytest.mark.parametrize(
        "p, centre",
        [
            (PNorm.two(), 2.3),
            (PNorm.one(), 2.0),
            (PNorm.infinity(), 3.0),
            (PNorm.general(1.5), None),
            (PNorm.general(3.0), None),
        ],
    )
    def test_equal_abscissae_fit_a_constant(self, p, centre):
        # Mean at p=2, median at p=1, midrange at p=inf; other p minimize directly.
        fs = np.array([3.0, -1.0, 0.5, 7.0, 2.0])
        line, err = fit_line(np.full(5, 2.0), fs, p)
        assert line.slope == 0.0
        if centre is not None:
            assert abs(line.intercept - centre) <= 1e-9
        assert err == pytest.approx(float(residual_norm(fs - line.intercept, p)), rel=1e-12)
        for c in np.linspace(-1.0, 7.0, 161):
            assert err <= float(residual_norm(fs - c, p)) * (1.0 + 1e-9)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_line([], [], PNorm.two())

    @pytest.mark.parametrize("slope", [math.inf, math.nan])
    def test_line_rejects_a_non_finite_slope(self, slope):
        with pytest.raises(ValueError, match="finite"):
            Line(slope, 0.0)

    def test_lad_vertex_property(self):
        rng = make_rng(10)
        for _ in range(200):
            n = int(rng.integers(3, 12))
            xs = np.sort(rng.uniform(0, 10, n))
            xs += np.arange(n) * 1e-6  # keep abscissae distinct
            fs = rng.uniform(-1, 1, n)
            line, err = fit_line(xs, fs, PNorm.one())
            hits = np.sum(np.abs(fs - (line.slope * xs + line.intercept)) <= 1e-9)
            assert hits >= 2

    def test_minimax_perturbation_certificate(self):
        rng = make_rng(11)
        for _ in range(100):
            n = int(rng.integers(3, 12))
            xs = np.sort(rng.uniform(0, 10, n)) + np.arange(n) * 1e-6
            fs = rng.uniform(-1, 1, n)
            line, err = fit_line(xs, fs, PNorm.infinity())
            scale = 1.0 + np.max(np.abs(fs))
            delta = 1e-6 * scale
            for ds, di in [(delta, 0), (-delta, 0), (0, delta), (0, -delta)]:
                perturbed = np.max(
                    np.abs(fs - ((line.slope + ds) * xs + line.intercept + di))
                )
                assert perturbed >= err - 1e-12

    @pytest.mark.parametrize("p", [1.5, 3.5])
    def test_general_p_beats_grid(self, p):
        rng = make_rng(12)
        xs = np.sort(rng.uniform(0, 5, 8))
        fs = rng.uniform(-1, 1, 8)
        pn = PNorm.general(p)
        line, err = fit_line(xs, fs, pn)
        slopes = np.linspace(-2, 2, 81)
        intercepts = np.linspace(-2, 2, 81)
        grid_best = min(
            float(np.sum(np.abs(fs - (m * xs + c)) ** p) ** (1 / p))
            for m in slopes
            for c in intercepts
        )
        assert err <= grid_best + 1e-6

    @pytest.mark.parametrize("p", [PNorm.one(), PNorm.infinity(), PNorm.general(3.0)])
    def test_epoch_scale_abscissae(self, p):
        data = random_dataset(make_rng(7), 10)
        _, base = fit_line(data.x, data.f, p)
        _, err = fit_line(60.0 * data.x + 1.7e9, -2.5 * data.f + 100.0, p)
        assert abs(err - 2.5 * base) <= 1e-6 * 2.5 * base


class TestFitChain:
    def test_hat_design_matches_the_clipped_search(self):
        # Abscissae on the end and inner breakpoints, between them and at
        # epoch scale, with two to six breakpoints: the same bytes.
        rng = make_rng(65)
        for case in range(200):
            xs = np.cumsum(rng.uniform(0.5, 1.5, int(rng.integers(2, 12))))
            if case % 2:
                xs = 60.0 * xs + 1.7e9
            inner = rng.choice(xs[1:-1], min(int(rng.integers(0, 5)), len(xs) - 2), replace=False)
            bps = np.concatenate([[xs[0]], np.sort(inner), [xs[-1]]])
            if case % 3 == 0 and len(xs) > 2:  # breakpoints off the abscissae
                bps[1:-1] = np.sort(rng.uniform(xs[0], xs[-1], len(bps) - 2))
                bps = np.unique(bps)
            assert hat_design(xs, bps).tobytes() == clipped_hat_design(xs, bps).tobytes()

    def test_collinear_interpolation(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0])
        s, err = fit_chain(data, ChainProblem(0, 3, (1,)), PNorm.two())
        assert err <= 1e-12
        assert np.allclose(s.v, [0.0, 1.0, 3.0], atol=1e-12)

    def test_step_data_golden(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 1.0])
        s, err = fit_chain(data, ChainProblem(0, 3, (1,)), PNorm.two())
        assert abs(err - CHAIN_GOLDEN) <= 1e-12

    def test_delegates_to_fit_line(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 4.0, 5.0])
        for p in ALL_NORMS:
            line, line_err = fit_line(data.x, data.f, p)
            s, err = fit_chain(data, ChainProblem(0, 3), p)
            assert abs(err - line_err) <= 1e-12 * (1.0 + abs(line_err))
            for v, end in zip(s.v, (line(0.0), line(3.0))):
                assert abs(float(v) - end) <= 1e-12 * (1.0 + abs(end))

    def test_least_squares_orthogonality(self):
        rng = make_rng(13)
        for _ in range(50):
            data = random_dataset(rng, int(rng.integers(3, 10)))
            hi = len(data.x) - 1
            knots = sorted(
                int(q) for q in rng.choice(np.arange(1, hi), rng.integers(0, 3), replace=False)
            )
            s, err = fit_chain(data, ChainProblem(0, hi, tuple(knots)), PNorm.two())
            A = hat_design(data.x, s.t)
            r = data.f - A @ s.v
            scale = 1.0 + float(np.max(np.abs(data.f)))
            assert np.max(np.abs(A.T @ r)) <= 1e-8 * scale

    def test_adding_knot_never_hurts(self):
        rng = make_rng(14)
        for _ in range(30):
            data = random_dataset(rng, 6)
            for p in ALL_NORMS:
                _, base = fit_chain(data, ChainProblem(0, 7, (3,)), p)
                _, refined = fit_chain(data, ChainProblem(0, 7, (3, 5)), p)
                assert refined <= base + 1e-12

    def test_minimax_breakpoint_perturbation(self):
        rng = make_rng(15)
        for _ in range(30):
            data = random_dataset(rng, 6)
            s, err = fit_chain(data, ChainProblem(0, 7, (2, 5)), PNorm.infinity())
            A = hat_design(data.x, s.t)
            scale = 1.0 + float(np.max(np.abs(data.f)))
            delta = 1e-6 * scale
            for i in range(len(s.v)):
                for sign in (1.0, -1.0):
                    v = s.v.copy()
                    v[i] += sign * delta
                    assert np.max(np.abs(data.f - A @ v)) >= err - 1e-12

    @pytest.mark.parametrize("p", [1.2, 1.5])
    def test_newton_stops_on_exact_fit(self, p, monkeypatch):
        # Zero residuals leave the smoothed objective flat, so Newton must stop
        # once no step strictly decreases it instead of running every iteration.
        calls = []
        solve = np.linalg.solve

        def counting_solve(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        xs = np.arange(8.0)
        _, err = fit_chain(DataSet(xs, 0.5 * xs - 1.0), ChainProblem(0, 7), PNorm.general(p))
        assert err <= 1e-12
        assert len(calls) <= 20

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            ChainProblem(3, 3)
        with pytest.raises(ValueError):
            ChainProblem(0, 4, (3, 2))

    def test_rejects_a_chain_past_the_end_of_the_data(self):
        data = DataSet(np.arange(5.0), np.zeros(5))
        with pytest.raises(ValueError, match="outside the data set"):
            fit_chain(data, ChainProblem(2, 5), PNorm.two())


class TestFitFixedKnots:
    def test_matches_chain_on_data_knots(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 1.0])
        s, err = fit_fixed_knots(data, [1.0], PNorm.two())
        assert abs(err - CHAIN_GOLDEN) <= 1e-12

    def test_off_grid_knot(self):
        data = DataSet([0.0, 1.0, 3.0, 4.0], [0.0, 1.0, 1.0, 0.0])
        s, err = fit_fixed_knots(data, [2.0], PNorm.two())
        assert err <= 1e-12

    def test_rejects_empty_piece(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 1.0])
        with pytest.raises(ConfigurationError):
            fit_fixed_knots(data, [1.2, 1.7], PNorm.two())

    def test_rejects_unsorted_knots(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            fit_fixed_knots(data, [2.0, 1.0], PNorm.two())

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_general_p_gradient(self, p):
        rng = make_rng(16)
        data = random_dataset(rng, 6)
        s, err = fit_fixed_knots(data, [float(data.x[3])], PNorm.general(p))
        A = hat_design(data.x, s.t)
        r = data.f - A @ s.v
        mu = 1e-12 if p < 2 else 0.0
        grad = -A.T @ (p * r * (r * r + mu * mu) ** (p / 2.0 - 1.0))
        assert np.linalg.norm(grad) <= 1e-8
