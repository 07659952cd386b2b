import functools
import itertools

import numpy as np
import pytest

from brokenline import (
    BrokenLine,
    ChainProblem,
    DataSet,
    FitResult,
    Infeasible,
    Junction,
    KnotConfig,
    PNorm,
    best_fit,
    check_structure,
    enumerate_configs,
    error_norm,
    fit_chain,
    grid_oracle,
    solve_config,
)
from brokenline.norms import residual_norm
from brokenline.solver import _lower_bound

from conftest import make_rng, planted_instance, random_dataset, smooth_dataset

NORMS = [PNorm.one(), PNorm.two(), PNorm.infinity()]

# Frozen from the independent brute-force oracles run before the build:
# - least-squares error of the W-shaped 5-point instance with one free knot
# - pruned configuration count for mu=9, k=2 by naive generate-and-filter
W_GOLDEN = 0.8944271909999157
CONFIG_COUNT_GOLDEN_MU9_K2 = 131
STEP_GOLDEN = 0.408248290463863  # sqrt(1/6)


def naive_configs(mu: int, k: int) -> set[tuple[tuple[str, int], ...]]:
    """Independent generate-and-filter enumeration for cross-checking."""
    slots = [("data", q) for q in range(1, mu + 1)] + [
        ("gap", q) for q in range(1, mu)
    ]
    slots.sort(key=lambda s: 2 * s[1] + (1 if s[0] == "gap" else 0))
    found = set()
    for r in range(k + 1):
        for sel in itertools.combinations(slots, r):
            start = 0
            for kind, q in sel:
                if q - start + 1 < 2:
                    break
                start = q if kind == "data" else q + 1
            else:
                if (mu + 1) - start + 1 >= 2:
                    found.add(sel)
    return found


class TestEnumerateConfigs:
    def test_mu2_k1(self):
        configs = enumerate_configs(2, 1)
        as_tuples = {tuple((j.kind, j.q) for j in c.junctions) for c in configs}
        assert as_tuples == {
            (),
            (("data", 1),),
            (("data", 2),),
            (("gap", 1),),
        }

    def test_mu2_k0(self):
        assert len(enumerate_configs(2, 0)) == 1

    def test_mu9_k2_golden_count(self):
        configs = enumerate_configs(9, 2)
        assert len(configs) == CONFIG_COUNT_GOLDEN_MU9_K2

    @pytest.mark.parametrize("mu,k", [(3, 2), (5, 3), (9, 2), (7, 4)])
    def test_matches_naive_filter(self, mu, k):
        got = {tuple((j.kind, j.q) for j in c.junctions) for c in enumerate_configs(mu, k)}
        assert got == naive_configs(mu, k)

    def test_lexicographic_order(self):
        configs = enumerate_configs(6, 3)
        keys = [c.sort_key() for c in configs]
        assert keys == sorted(keys)

    def test_all_valid(self):
        for c in enumerate_configs(8, 3):
            c.validate(8)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            enumerate_configs(0, 1)
        with pytest.raises(ValueError):
            enumerate_configs(3, -1)


class TestSolveConfig:
    def test_gap_intersection_interpolates(self):
        data = DataSet([0.0, 1.0, 3.0, 4.0], [0.0, 1.0, 1.0, 0.0])
        result = solve_config(data, KnotConfig((Junction("gap", 1),)), PNorm.two())
        assert isinstance(result, FitResult)
        assert result.error <= 1e-12
        assert abs(result.spline.t[1] - 2.0) <= 1e-12
        assert abs(result.spline.v[1] - 2.0) <= 1e-12

    def test_parallel_lines_infeasible(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 1.0])
        result = solve_config(data, KnotConfig((Junction("gap", 1),)), PNorm.two())
        assert isinstance(result, Infeasible)
        assert result.reason == "parallel"

    def test_identical_lines_improper(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0])
        result = solve_config(data, KnotConfig((Junction("gap", 1),)), PNorm.two())
        assert isinstance(result, Infeasible)
        assert result.reason == "improper"

    def test_data_knot_golden(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 1.0])
        result = solve_config(data, KnotConfig((Junction("data", 1),)), PNorm.two())
        assert isinstance(result, FitResult)
        assert abs(result.error - STEP_GOLDEN) <= 1e-12

    def test_intersection_outside_gap_infeasible(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.9, 0.5, 0.0])
        result = solve_config(data, KnotConfig((Junction("gap", 2),)), PNorm.two())
        if isinstance(result, FitResult):
            lo, hi = 2.0, 3.0
            assert lo < result.spline.t[1] < hi

    def test_rejects_invalid_config(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            solve_config(data, KnotConfig((Junction("gap", 2),)), PNorm.two())
        with pytest.raises(ValueError):
            solve_config(
                data,
                KnotConfig((Junction("data", 1), Junction("gap", 1))),
                PNorm.two(),
            )
        with pytest.raises(ValueError):
            solve_config(data, KnotConfig((Junction("foo", 1),)), PNorm.two())


class TestBestFit:
    def test_w_shape_golden(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, 1.0, 0.0])
        result = best_fit(data, 1, PNorm.two())
        assert abs(result.error - W_GOLDEN) <= 1e-12 * (1 + W_GOLDEN)
        assert len(result.config.junctions) == 1

    def test_tent_recovery(self):
        data = DataSet([0.0, 1.0, 3.0, 4.0], [0.0, 1.0, 1.0, 0.0])
        result = best_fit(data, 1, PNorm.two())
        assert result.error <= 1e-12
        assert abs(result.spline.t[1] - 2.0) <= 1e-12

    def test_interpolation_shortcut(self):
        data = DataSet([0.0, 1.0, 2.0], [0.3, -0.4, 0.9])
        result = best_fit(data, 2, PNorm.one())
        assert result.error == 0.0
        assert np.array_equal(result.spline.t, data.x)

    @pytest.mark.parametrize("p", NORMS)
    def test_zero_error_recovery_planted(self, p):
        rng = make_rng(50)
        for _ in range(15):
            mu = int(rng.integers(3, 10))
            k = int(rng.integers(1, 4))
            if mu < k + 1:
                continue
            data, spline, config = planted_instance(rng, mu, k)
            scale = 1.0 + float(np.max(np.abs(data.f)))
            result = best_fit(data, k, p)
            assert result.error <= 1e-10 * scale

    def test_zero_error_arbitrary_positions(self):
        # Generating polyline ignores the pruning rules entirely: two knots in
        # one gap and one in a boundary gap. Completeness must still find 0.
        xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        gen = BrokenLine([0.0, 0.4, 2.3, 2.6, 7.0], [0.0, 0.5, 1.0, 2.0, 0.5])
        data = DataSet(xs, [gen(float(x)) for x in xs])
        result = best_fit(data, 3, PNorm.two())
        assert result.error <= 1e-10

    def test_monotone_in_k(self):
        rng = make_rng(51)
        for _ in range(10):
            data = random_dataset(rng, 8)
            for p in NORMS:
                errors = [best_fit(data, k, p).error for k in range(4)]
                for a, b in zip(errors, errors[1:]):
                    assert b <= a + 1e-12

    @pytest.mark.parametrize("p", NORMS)
    def test_error_is_recomputable(self, p):
        rng = make_rng(52)
        for _ in range(10):
            data = random_dataset(rng, int(rng.integers(3, 11)))
            result = best_fit(data, 2, p)
            again = error_norm(data, result.spline, p)
            assert abs(again - result.error) <= 1e-12 * (1 + again)
            assert result.spline.knot_count <= 2

    def test_fixed_knot_consistency(self):
        # Exhaustive reference: solve every configuration and take the
        # (error, sort_key) minimum; the search must return it bit-for-bit.
        # Planted data makes many configurations tie at zero error.
        # The random mu=7, k=3 case lets the bound prune most configurations;
        # its f x 1e-13 copy checks that the pruning is scale-free.
        rng = make_rng(53)
        cases = [(random_dataset(rng, 7), 2), (smooth_dataset(rng, 6), 2)]
        cases += [(planted_instance(rng, mu, k)[0], k) for mu, k in ((5, 2), (4, 3))]
        wide = random_dataset(make_rng(58), 7)
        cases += [(wide, 3), (DataSet(wide.x, 1e-13 * wide.f), 3)]
        for p in NORMS + [PNorm.general(1.5), PNorm.general(3.0)]:
            for data, k in cases:
                result = best_fit(data, k, p)
                # fit_chain is a pure function of its chain; sharing fits only
                # saves time.
                fit = functools.cache(lambda chain: fit_chain(data, chain, p))
                outcomes = [
                    solve_config(data, c, p, _fit=fit) for c in enumerate_configs(data.mu, k)
                ]
                ref = min(
                    (out for out in outcomes if isinstance(out, FitResult)),
                    key=lambda out: (out.error, out.config.sort_key()),
                )
                assert result.error == ref.error
                assert result.config == ref.config
                assert np.array_equal(result.spline.t, ref.spline.t)
                assert np.array_equal(result.spline.v, ref.spline.v)
                assert result.proper_knot_count == ref.proper_knot_count

    @pytest.mark.parametrize("p", [PNorm.one(), PNorm.infinity()])
    def test_epoch_scale_abscissae(self, p):
        data = random_dataset(make_rng(7), 10)
        moved = DataSet(60.0 * data.x + 1.7e9, -2.5 * data.f + 100.0)
        base = best_fit(data, 2, p)
        result = best_fit(moved, 2, p)
        assert abs(result.error - 2.5 * base.error) <= 1e-6 * 2.5 * base.error

    def test_lower_bound_below_rank(self):
        # The bound behind best_fit's pruning never exceeds a configuration's
        # chain-error rank by more than the stop margin.
        rng = make_rng(59)
        cases = [(random_dataset(rng, 7), 3), (smooth_dataset(rng, 6), 2)]
        cases += [(planted_instance(rng, 5, 2)[0], 2)]
        for p in NORMS + [PNorm.general(1.5), PNorm.general(3.0)]:
            for data, k in cases:
                fit = functools.cache(lambda chain: fit_chain(data, chain, p))
                slack = 1e-9 * float(np.max(np.abs(data.f)))
                for cfg in enumerate_configs(data.mu, k):
                    rank = residual_norm(np.array([fit(c)[1] for c in cfg.chains(data.mu)]), p)
                    bound = _lower_bound(data, cfg, p, lambda a, b: fit(ChainProblem(a, b))[1])
                    assert bound <= rank * (1.0 + 1e-9) + slack

    def test_small_values_keep_the_optimum(self):
        data = random_dataset(make_rng(7), 10)
        base = best_fit(data, 2, PNorm.one())
        result = best_fit(DataSet(data.x, 1e-13 * data.f), 2, PNorm.one())
        assert str(result.config) == "g3+g7"
        assert abs(result.error - 1e-13 * base.error) <= 1e-9 * 1e-13 * base.error

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_general_p_error_scales_with_f(self, p):
        data = random_dataset(make_rng(7), 10)
        norm = PNorm.general(p)
        base = best_fit(data, 2, norm)
        for scale in (1e-9, 1e-13):
            result = best_fit(DataSet(data.x, scale * data.f), 2, norm)
            assert abs(result.error - scale * base.error) <= 1e-9 * scale * base.error

    @pytest.mark.parametrize("p", NORMS + [PNorm.general(1.5), PNorm.general(3.0)])
    def test_error_moves_with_affine_units(self, p):
        # x -> alpha*x + beta and f -> gamma*f + delta scale the optimal error
        # by |gamma|; the maps cover epoch-sized offsets, tiny and huge values.
        # Noisy data keeps the optimum away from zero, where rounding the moved
        # abscissae alone would show.
        rng = make_rng(60)
        cases = [(random_dataset(rng, 7), 2), (smooth_dataset(rng, 8), 2)]
        cases += [(random_dataset(rng, 6), 3), (random_dataset(rng, 9), 1)]
        cases += [(smooth_dataset(rng, 6), 3), (random_dataset(rng, 5), 2)]
        maps = [(60.0, 1.7e9, -2.5, 100.0), (1e-6, 3.0, 1e7, -4e7), (2.0, 0.0, 1e-12, 0.0)]
        for data, k in cases:
            base = best_fit(data, k, p).error
            for alpha, beta, gamma, delta in maps:
                moved = DataSet(alpha * data.x + beta, gamma * data.f + delta)
                error = best_fit(moved, k, p).error
                assert abs(error - abs(gamma) * base) <= 1e-6 * abs(gamma) * base

    @pytest.mark.parametrize("p", NORMS)
    def test_proper_knots_at_any_scale(self, p):
        data = random_dataset(make_rng(7), 10)
        for moved in (
            DataSet(data.x, 1e-13 * data.f),
            DataSet(data.x, 1e-9 * data.f),
            DataSet(1e9 * data.x, data.f),
        ):
            result = best_fit(moved, 2, p)
            assert result.proper_knot_count == 2
            assert check_structure(moved, result.spline, p).all_pass

    def test_rejects_negative_k(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            best_fit(data, -1, PNorm.two())


class TestGridOracle:
    def test_zero_error_instance_found_at_any_grid(self):
        rng = make_rng(55)
        data, _, _ = planted_instance(rng, 6, 2)
        for g in (1, 4):
            assert grid_oracle(data, 2, PNorm.two(), g) <= 1e-10

    @pytest.mark.parametrize("p", NORMS)
    def test_dominance(self, p):
        rng = make_rng(56)
        for _ in range(6):
            data = random_dataset(rng, int(rng.integers(3, 9)))
            k = int(rng.integers(0, 3))
            result = best_fit(data, k, p)
            for g in (1, 4):
                assert result.error <= grid_oracle(data, k, p, g) + 1e-10

    def test_monotone_in_grid(self):
        rng = make_rng(57)
        data = smooth_dataset(rng, 8)
        for p in NORMS:
            values = [grid_oracle(data, 2, p, g) for g in (1, 4, 16)]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-12

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_general_p_scales_with_f(self, p):
        data = random_dataset(make_rng(7), 6)
        norm = PNorm.general(p)
        base = grid_oracle(data, 1, norm, 4)
        for scale in (1e-9, 1e-13):
            value = grid_oracle(DataSet(data.x, scale * data.f), 1, norm, 4)
            assert abs(value - scale * base) <= 1e-12 * scale * base

    def test_rejects_bad_grid(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            grid_oracle(data, 1, PNorm.two(), 0)
