import numpy as np
import pytest

from brokenline import (
    BrokenLine,
    DataSet,
    DomainError,
    PNorm,
    classify_knots,
    divided_difference_bound,
    error_norm,
    regularize,
    spike_fixture,
)
from brokenline.core import evaluate_many, proper_knot_positions

from conftest import make_rng, random_dataset, random_polyline

NORMS = [PNorm.one(), PNorm.two(), PNorm.infinity()]


def check_postconditions(data: DataSet, s: BrokenLine) -> None:
    """The five rebuild guarantees, at the documented tolerances."""
    bounds = divided_difference_bound(data, s)
    out = regularize(data, s)
    before = evaluate_many(s, data.x)
    after = evaluate_many(out, data.x)
    # (1) values at the abscissae preserved bit-for-bit
    assert after.tolist() == before.tolist()
    # (2) slopes bounded by the divided-difference bound
    assert np.max(np.abs(out.slopes())) <= bounds.m_second * (1 + 1e-12) + 1e-15
    # (3) values bounded everywhere (piecewise linear: checking breakpoints suffices)
    assert np.max(np.abs(out.v)) <= bounds.m_fourth * (1 + 1e-12) + 1e-15
    # (4) no new proper knots
    assert len(proper_knot_positions(out, data)) <= len(proper_knot_positions(s, data))
    # (5) every approximation error unchanged
    for p in NORMS:
        e0, e1 = error_norm(data, s, p), error_norm(data, out, p)
        assert abs(e0 - e1) <= 1e-12 * (1 + abs(e0))


class TestDividedDifferenceBound:
    def test_fixture_bounds(self):
        data = DataSet([-1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        b = divided_difference_bound(data, spike_fixture(10))
        assert abs(b.m_second) <= 1e-12
        assert abs(b.m_prime - 1.0) <= 1e-12
        assert abs(b.m_fourth - 1.0) <= 1e-12
        assert abs(b.m - 1.0) <= 1e-12

    def test_interpolating_step(self):
        data = DataSet([0.0, 1.0, 2.0], [0.0, 2.0, 2.0])
        b = divided_difference_bound(data, BrokenLine(data.x, data.f))
        assert b.m_prime == 2.0 and b.m_second == 2.0
        assert b.m_fourth == 6.0 and b.m == 6.0

    def test_zero_function(self):
        data = DataSet([0.0, 1.0, 2.0], [5.0, -1.0, 0.0])
        b = divided_difference_bound(data, BrokenLine([0.0, 2.0], [0.0, 0.0]))
        assert b.m_prime == 0.0 and b.m_second == 0.0 and b.m == 0.0

    def test_domain_mismatch(self):
        data = DataSet([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(DomainError):
            divided_difference_bound(data, BrokenLine([0.0, 2.0], [0.0, 0.0]))


class TestRegularize:
    def test_fixture_flattens_to_one(self):
        data = DataSet([-1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        out = regularize(data, spike_fixture(10))
        grid = np.linspace(-1.0, 1.0, 201)
        assert max(abs(out(float(x)) - 1.0) for x in grid) <= 1e-12

    def test_chord_interpolant_unchanged(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0], [1.0, -2.0, 0.0, 4.0])
        s = BrokenLine(data.x, [1.0, -2.0, 0.0, 4.0])
        out = regularize(data, s)
        # unchanged up to improper-knot removal: surviving breakpoints only at
        # abscissae, with bit-equal values
        for t, v in zip(out.t, out.v):
            idx = int(np.flatnonzero(data.x == t)[0])
            assert v == s.v[idx]
        assert evaluate_many(out, data.x).tolist() == s.v.tolist()

    def test_random_pairs_postconditions(self):
        rng = make_rng(30)
        for _ in range(300):
            data = random_dataset(rng, int(rng.integers(1, 11)))
            s = random_polyline(rng, data.a, data.b, 5)
            check_postconditions(data, s)

    def test_integer_data_bit_exact(self):
        rng = make_rng(31)
        for _ in range(100):
            mu = int(rng.integers(1, 7))
            xs = np.arange(mu + 2, dtype=float)
            data = DataSet(xs, rng.integers(-3, 4, mu + 2).astype(float))
            k = int(rng.integers(0, 4))
            knots = np.sort(rng.choice(np.arange(1, 2 * (mu + 1)), k, replace=False)) / 2.0
            ts = np.unique(np.concatenate([[0.0], knots, [mu + 1.0]]))
            s = BrokenLine(ts, rng.integers(-3, 4, len(ts)).astype(float))
            before = evaluate_many(s, data.x)
            out = regularize(data, s)
            after = evaluate_many(out, data.x)
            assert before.tolist() == after.tolist()

    def test_second_application_stable(self):
        rng = make_rng(32)
        for _ in range(50):
            data = random_dataset(rng, int(rng.integers(1, 9)))
            s = random_polyline(rng, data.a, data.b, 5)
            once = regularize(data, s)
            bounds_in = divided_difference_bound(data, s)
            bounds_out = divided_difference_bound(data, once)
            assert abs(bounds_out.m_second - bounds_in.m_second) <= 1e-12 * (
                1 + bounds_in.m_second
            )
            check_postconditions(data, once)

    def test_knot_count_never_increases(self):
        rng = make_rng(33)
        for _ in range(200):
            data = random_dataset(rng, int(rng.integers(1, 9)))
            s = random_polyline(rng, data.a, data.b, 5)
            out = regularize(data, s)
            assert len(proper_knot_positions(out, data)) <= len(
                proper_knot_positions(s, data)
            )

    def test_small_values_scale_exactly(self):
        # The thresholds are relative to the data, so at f x 2^-43 (a power of
        # two, exact) the output is the unit output times 2^-43 and still
        # gains no proper knot.
        rng = make_rng(200)
        c = 2.0**-43
        for _ in range(200):
            data = random_dataset(rng, int(rng.integers(1, 11)))
            s = random_polyline(rng, data.a, data.b, 5)
            unit = regularize(data, s)
            small_data = DataSet(data.x, c * data.f)
            small_s = BrokenLine(s.t, c * s.v)
            out = regularize(small_data, small_s)
            assert np.array_equal(out.t, unit.t)
            assert np.array_equal(out.v, c * unit.v)
            assert len(proper_knot_positions(out, small_data)) <= len(
                proper_knot_positions(small_s, small_data)
            )

    def test_domain_mismatch(self):
        data = DataSet([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(DomainError):
            regularize(data, BrokenLine([0.0, 2.0], [0.0, 0.0]))

    @pytest.mark.xfail(
        strict=True,
        reason="at x -> 60x + 1.7e9 the rebuild gains a proper knot that the unit-scale rebuild "
        "does not (slope jump 26% of max|slope|)",
    )
    def test_epoch_scale_gains_no_proper_knot(self):
        rng = np.random.default_rng(189)
        unit = random_dataset(rng, int(rng.integers(1, 8)))
        s = random_polyline(rng, unit.a, unit.b, 4)
        data = DataSet(60 * unit.x + 1.7e9, unit.f)
        s = BrokenLine(60 * s.t + 1.7e9, s.v)
        out = regularize(data, s)
        assert len(proper_knot_positions(out, data)) <= len(proper_knot_positions(s, data))


E, D = 2.0**-31, 2.0**-32  # slope changes straddle the 1e-9 * max|slope| threshold
V = 2.0**-29 * (1 - D)


class TestExactOutputs:
    """Bit-exact outputs on small inputs, one per branch of the case dispatch named."""

    @pytest.mark.parametrize(
        "x, t, v, out_t, out_v",
        [
            pytest.param(
                [0.0, 1.0, 2.0],
                [0.0, 1.5, 2.0],
                [999998.9999999991, 999998.9999999972, 999999.0000000019],
                [0.0, 1.0, 2.0],
                ["0x1.e847dfffffff8p+19", "0x1.e847dffffffedp+19", "0x1.e847e00000010p+19"],
                id="gap-knot-coincident-with-chord",
            ),
            pytest.param(
                [0.0, 1.0, 2.0, 3.0],
                [0.0, 1.5, 2.0, 3.0 - D, 3.0],
                [2 * E, -E, 0.0, V, V + (2.0**-29 - 1.5) * D],
                [0.0, 1.5, 2.0, 3.0],
                ["0x1.0p-30", "-0x1.0p-31", "0x0.0p+0", "0x1.ap-30"],
                id="secant-crossing-finds-no-sign-change",
            ),
            pytest.param(
                [0.0, 1.0, 2.0, 3.0, 4.0],
                [0.0, 1.5, 2.0, 3.0, 4.0],
                [2 * E, -E, 0.0, -(2.0**-33), 1.5 - 2.0**-33],
                [0.0, 1.0, 2.0, 3.0, 4.0],
                ["0x1.0p-30", "0x0.0p+0", "0x0.0p+0", "-0x1.0p-33", "0x1.7fffffff8p+0"],
                id="chord-recrossing-at-x_q",
            ),
            pytest.param(
                [0.0, 1.0, 2.0, 3.0],
                [0.0, 1.5, 2.5, 3.0],
                [1.0, -1.0, 2.0, -1.0],
                [0.0, 1.0, 2.0, 3.0],
                ["0x1.0p+0", "-0x1.5555555555554p-2", "0x1.0p-1", "-0x1.0p+0"],
                id="chord-recrossing-inside-next-gap",
            ),
            pytest.param(
                [0.0, 1.0, 2.0, 3.0],
                [0.0, 1.5, 2.5, 3.0],
                [-1.0, 2.0, 3.0, -2.0],
                [0.0, 1.0, 2.0, 3.0],
                ["-0x1.0p+0", "0x1.0p+0", "0x1.4p+1", "-0x1.0p+1"],
                id="secant-above-tangent",
            ),
            pytest.param(
                [0.0, 1.0, 2.0, 3.0, 4.0],
                [0.0, 1.5, 2.5, 4.0],
                [0.0, -2.0, 1.0, -1.0],
                [0.0, 1.5, 2.0, 3.0, 4.0],
                ["0x0.0p+0", "-0x1.0p+1", "-0x1.0p-1", "0x1.5555555555556p-2", "-0x1.0p+0"],
                id="bend-at-the-knot",
            ),
            pytest.param(
                [-1.0, 0.0, 1.0],
                [-1.0, -0.1, 0.5, 1.0],
                [1.0, 0.1, 5.5, 1.0],
                [-1.0, 0.0, 1.0],
                ["0x1.0p+0", "0x1.0000000000001p+0", "0x1.0p+0"],
                id="spike-fixture",
            ),
        ],
    )
    def test_exact_output(self, x, t, v, out_t, out_v):
        out = regularize(DataSet(x, np.zeros(len(x))), BrokenLine(t, v))
        assert [float(a).hex() for a in out.t] == [a.hex() for a in out_t]
        assert [float(a).hex() for a in out.v] == [float.fromhex(a).hex() for a in out_v]


def coarse_proper_count(s: BrokenLine, tau_coarse: float) -> int:
    """Slope discontinuities above a coarse threshold.

    Inputs whose knots sit within ~1e-8 of the abscissae make properness at
    the default 1e-9-relative threshold ill-posed: displacing such a knot
    onto its abscissa (value-preservingly) shifts nearby slopes by amounts
    right at that threshold, so the count flips on measurement artifacts of
    the input geometry. Counting at a coarser threshold that dominates those
    artifacts makes the comparison meaningful again; genuine slope jumps are
    orders of magnitude above it.
    """
    slopes = s.slopes()
    return int(np.sum(np.abs(np.diff(slopes)) > tau_coarse))


class TestAdversarialGeometry:
    """Hostile inputs: knots a hair off the abscissae, extreme scales, tiny gaps.

    Properness of knots flanked by near-degenerate segments is not decidable
    at the default threshold (the slope measurement itself is noise), so the
    knot-count comparison uses the noise-aware count; the other four
    postconditions are asserted at their regular tolerances plus the same
    slope-noise allowance.
    """

    def test_postconditions_under_adversarial_inputs(self):
        rng = make_rng(888)
        for trial in range(600):
            style = trial % 5
            mu = int(rng.integers(1, 12))
            if style == 0:
                xs = np.cumsum(rng.uniform(1e-4, 1e-3, mu + 2))
            elif style == 1:
                wide = rng.uniform(1.0, 10.0, mu + 2)
                narrow = rng.uniform(1e-3, 1e-2, mu + 2)
                xs = np.cumsum(np.where(rng.uniform(size=mu + 2) < 0.5, narrow, wide))
            else:
                xs = np.cumsum(rng.uniform(0.5, 1.5, mu + 2))
            xs -= xs[0]
            scale = 1000.0 if style == 2 else (100.0 if style == 4 else 1.0)
            data = DataSet(xs, rng.uniform(-1, 1, mu + 2) * scale)
            a, b = data.a, data.b
            kk = int(rng.integers(0, 11))
            if style == 3 and mu >= 1:
                base = rng.choice(xs[1:-1], size=min(kk, mu), replace=False)
                knots = np.sort(base + rng.uniform(-1e-9, 1e-9, len(base)) * (b - a))
            else:
                knots = np.sort(rng.uniform(a, b, kk))
            knots = knots[(knots > a + 1e-12 * (b - a)) & (knots < b - 1e-12 * (b - a))]
            if len(knots):
                knots = knots[np.insert(np.diff(knots) > 1e-12 * (b - a), 0, True)]
            ts = np.concatenate([[a], knots, [b]])
            s = BrokenLine(ts, rng.uniform(-1, 1, len(ts)) * scale)

            bounds = divided_difference_bound(data, s)
            out = regularize(data, s)
            before = evaluate_many(s, data.x)
            after = evaluate_many(out, data.x)
            np.testing.assert_allclose(after, before, rtol=1e-12, atol=1e-12 * scale)
            vscale = 1.0 + float(np.max(np.abs(out.v)))
            slope_noise = 64 * np.finfo(float).eps * vscale / float(np.min(np.diff(out.t)))
            assert np.max(np.abs(out.slopes())) <= bounds.m_second * (1 + 1e-12) + slope_noise
            assert np.max(np.abs(out.v)) <= bounds.m_fourth * (1 + 1e-12) + 1e-12 * scale
            tau_coarse = 1e-6 * (1.0 + float(np.max(np.abs(s.slopes()))))
            assert coarse_proper_count(out, tau_coarse) <= coarse_proper_count(s, tau_coarse)
            for p in NORMS:
                e0, e1 = error_norm(data, s, p), error_norm(data, out, p)
                assert abs(e0 - e1) <= 1e-12 * (1 + abs(e0))
