import functools
import itertools

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import brokenline.solver
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
from brokenline.core import evaluate_many, proper_knot_positions
from brokenline.norms import pow2_above, residual_norm
from brokenline.solver import (
    _LINE_TABLES,
    _batched_design,
    _bound_dag,
    _configs_by_bound,
    _configs_by_key,
    _lower_bound,
    _lp_errors_batch,
    _oracle_errors,
    _p2_line_errors,
)

from conftest import make_rng, planted_instance, random_dataset, smooth_dataset

NORMS = [PNorm.one(), PNorm.two(), PNorm.infinity()]

# Frozen from the independent brute-force oracles run before the build:
# - least-squares error of the W-shaped 5-point instance with one free knot
# - pruned configuration count for mu=9, k=2 by naive generate-and-filter
W_GOLDEN = 0.8944271909999157
CONFIG_COUNT_GOLDEN_MU9_K2 = 131
STEP_GOLDEN = 0.408248290463863  # sqrt(1/6)
# - grid_oracle on smooth_dataset(default_rng(1500 + i), mu), as it stood when
#   each pattern was searched alone: (mu, k, p, g, value)
ORACLE_GOLDEN = [
    (8, 2, PNorm.one(), 16, 0.37447619108472235),
    (8, 2, PNorm.two(), 16, 0.20350670745612784),
    (8, 2, PNorm.infinity(), 16, 0.03463362387766185),
    (9, 3, PNorm.infinity(), 16, 0.027399716005283372),
    (8, 2, PNorm.general(1.5), 4, 0.07503884568163599),
]


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


def p2_line_errors_by_length(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The p=2 line table one block length at a time, the reference for _p2_line_errors."""
    n, scale = len(x), pow2_above(f)
    x, f = x / pow2_above(x), f / scale
    E = np.zeros((n, n))
    for length in range(3, n + 1):
        dx = sliding_window_view(x, length)
        df = sliding_window_view(f, length)
        for _ in range(2):
            dx = dx - dx.mean(axis=1, keepdims=True)
            df = df - df.mean(axis=1, keepdims=True)
        slope = np.sum(dx * df, axis=1) / np.sum(dx * dx, axis=1)
        r = df - slope[:, None] * dx
        a = np.arange(n - length + 1)
        E[a, a + length - 1] = np.sqrt(np.sum(r * r, axis=1))
    return scale * E


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

    @pytest.mark.parametrize("mu", range(1, 7))
    def test_validate_accepts_exactly_the_naive_configs(self, mu):
        slots = [Junction(kind, q) for kind in ("data", "gap") for q in range(-2, mu + 3)]
        valid = naive_configs(mu, 3)
        for r in range(4):
            for seq in itertools.product(slots, repeat=r):
                try:
                    KnotConfig(seq).validate(mu)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == (tuple((j.kind, j.q) for j in seq) in valid), seq

    def test_unknown_junction_kind(self):
        with pytest.raises(ValueError, match="unknown junction kind"):
            Junction("foo", 1)

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

    @pytest.mark.parametrize("p", NORMS)
    def test_given_fits_give_the_same_outcome(self, p):
        data = random_dataset(make_rng(61), 6)
        for config in enumerate_configs(data.mu, 2):
            fits = [fit_chain(data, chain, p) for chain in config.chains(data.mu)]
            own, given = solve_config(data, config, p), solve_config(data, config, p, fits)
            if isinstance(own, Infeasible):
                assert given == own
            else:
                assert (given.error, given.config) == (own.error, own.config)
                assert given.proper_knot_count == own.proper_knot_count
                assert given.spline.t.tolist() == own.spline.t.tolist()
                assert given.spline.v.tolist() == own.spline.v.tolist()

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

    def test_chains_built_once_per_ranked_config(self, monkeypatch):
        # The rank and the assembly share one chain split per configuration;
        # only a configuration whose bound ends the walk goes unsplit.
        split, streamed = [], []
        chains, stream = KnotConfig.chains, brokenline.solver._configs_by_bound

        def counted_chains(config, mu):
            split.append(config)
            return chains(config, mu)

        def counted_stream(*args):
            for bound, config in stream(*args):
                streamed.append(config)
                yield bound, config

        monkeypatch.setattr(KnotConfig, "chains", counted_chains)
        monkeypatch.setattr(brokenline.solver, "_configs_by_bound", counted_stream)
        best_fit(random_dataset(make_rng(123), 12), 3, PNorm.two())
        assert len(streamed) - 1 <= len(split) and split == streamed[: len(split)]
        assert len(split) > 100

    @pytest.mark.parametrize("epoch", [False, True])
    @pytest.mark.parametrize("p", NORMS)
    def test_line_planted_gets_no_junction(self, p, epoch):
        # Every configuration fits a line within slack, so the tie rule
        # picks the one with the fewest junctions.
        data = planted_instance(make_rng(20), 20, 2)[0]
        if epoch:
            data = DataSet(60.0 * data.x + 1.7e9, -2.5 * data.f + 100.0)
        assert best_fit(data, 2, p).config == KnotConfig()

    def test_exact_fits_are_walked_first_and_assembled_once(self, monkeypatch):
        # When some bound admits a fit within slack, the walk offers those
        # configurations in sort_key order before the stream pops any, and
        # the first fit within slack wins. Otherwise the stream decides, and
        # it skips what the walk offered, so no configuration is assembled
        # twice. On a line the walk assembles one configuration.
        popped, walked, assembled = [], [], []
        stream, walk = brokenline.solver._configs_by_bound, brokenline.solver._configs_by_key
        solve = brokenline.solver.solve_config

        def counted_stream(*args):
            for bound, config in stream(*args):
                popped.append(config)
                yield bound, config

        def counted_walk(*args):
            for config in walk(*args):
                walked.append(config)
                yield config

        def counted_solve(data, config, *args):
            assembled.append(config)
            return solve(data, config, *args)

        def run(data, k, p):
            for log in (popped, walked, assembled):
                log.clear()
            result = best_fit(data, k, p)
            assert len(assembled) == len(set(assembled))
            return result

        monkeypatch.setattr(brokenline.solver, "_configs_by_bound", counted_stream)
        monkeypatch.setattr(brokenline.solver, "_configs_by_key", counted_walk)
        monkeypatch.setattr(brokenline.solver, "solve_config", counted_solve)
        run(planted_instance(make_rng(20), 20, 2)[0], 2, PNorm.two())
        assert popped == [] and walked == assembled == [KnotConfig()]
        data, _, config = planted_instance(make_rng(26), 9, 3)
        for p in NORMS:
            assert run(data, 3, p).config == config and popped == []
            assert all(c.sort_key() <= config.sort_key() for c in walked)
        run(random_dataset(make_rng(0), 6), 3, PNorm.two())
        assert walked and popped
        run(random_dataset(make_rng(123), 12), 3, PNorm.two())
        assert walked == []

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
        # Exhaustive reference: solve every configuration and apply the tie
        # rule. If any error is within slack = 1e-9*max|f|, the least
        # sort_key among those wins; otherwise the (error, sort_key) minimum
        # does. The search must return it bit-for-bit. Planted data makes
        # many configurations tie at zero error; the line-planted case and
        # its epoch-scale copy tie at every junction count.
        # The random mu=7, k=3 case lets the bound prune most configurations;
        # its f x 1e-13 copy checks that the pruning is scale-free.
        rng = make_rng(53)
        cases = [(random_dataset(rng, 7), 2), (smooth_dataset(rng, 6), 2)]
        cases += [(planted_instance(rng, mu, k)[0], k) for mu, k in ((5, 2), (4, 3))]
        wide = random_dataset(make_rng(58), 7)
        cases += [(wide, 3), (DataSet(wide.x, 1e-13 * wide.f), 3)]
        line = planted_instance(rng, 6, 0)[0]
        cases += [(line, 2), (DataSet(60.0 * line.x + 1.7e9, -2.5 * line.f + 100.0), 2)]
        # The walk finds no fit within slack on these, and the stream decides.
        cases += [(random_dataset(make_rng(0), 4), 2), (random_dataset(make_rng(0), 6), 3)]
        for p in NORMS + [PNorm.general(1.5), PNorm.general(3.0)]:
            for data, k in cases:
                result = best_fit(data, k, p)
                # fit_chain is a pure function of its chain; sharing fits only
                # saves time.
                fit = functools.cache(lambda chain: fit_chain(data, chain, p))
                outcomes = [
                    solve_config(data, c, p, [fit(chain) for chain in c.chains(data.mu)])
                    for c in enumerate_configs(data.mu, k)
                ]
                feasible = [out for out in outcomes if isinstance(out, FitResult)]
                slack = 1e-9 * float(np.max(np.abs(data.f)))
                exact = [out for out in feasible if out.error <= slack]
                ref = min(
                    exact or feasible,
                    key=lambda out: (0.0 if exact else out.error, out.config.sort_key()),
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

    def test_stream_matches_enumeration(self):
        # The best-first stream yields exactly the enumerated configurations
        # whose bound is at or below a cut-off, with the same bounds, in
        # nondecreasing bound order. The walk over the same tables yields
        # exactly the same configurations, in sort_key order. At
        # p in {1, 2, inf} both sides read the closed-form line table, which
        # test_p2_line_table_matches_fit_chain and
        # test_lp_line_tables_match_fit_chain check.
        rng = make_rng(59)
        cases = [(random_dataset(rng, 7), 3), (smooth_dataset(rng, 6), 2)]
        cases += [(planted_instance(rng, 5, 2)[0], 2)]
        for p in NORMS + [PNorm.general(1.5), PNorm.general(3.0)]:
            for data, k in cases:
                fit = functools.cache(lambda chain: fit_chain(data, chain, p))
                line_error = lambda a, b: fit(ChainProblem(a, b))[1]  # noqa: E731
                if p.p in _LINE_TABLES:
                    table = _LINE_TABLES[p.p](data.x, data.f)
                    line_error = lambda a, b: table[a, b]  # noqa: E731
                ref = {
                    c: _lower_bound(data, c, p, line_error) for c in enumerate_configs(data.mu, k)
                }
                # Cut between two clearly distinct bounds near the median, and
                # nowhere, so rounding cannot move a configuration across.
                values = sorted(set(ref.values()))
                mid = next(
                    i for i in range(len(values) // 2, len(values) - 1)
                    if values[i + 1] > values[i] * (1.0 + 1e-9)
                )
                dag = _bound_dag(data, k, p, line_error)
                for cutoff in (0.5 * (values[mid] + values[mid + 1]), np.inf):
                    walked = list(_configs_by_key(dag, cutoff))
                    assert walked == sorted(
                        (c for c, b in ref.items() if b <= cutoff), key=KnotConfig.sort_key
                    )
                    got = list(
                        itertools.takewhile(
                            lambda entry: entry[0] <= cutoff, _configs_by_bound(dag)
                        )
                    )
                    bounds = [bound for bound, _ in got]
                    assert bounds == sorted(bounds)
                    assert len(got) == len({cfg for _, cfg in got})
                    assert {cfg for _, cfg in got} == {c for c, b in ref.items() if b <= cutoff}
                    for bound, cfg in got:
                        assert abs(bound - ref[cfg]) <= 1e-12 * ref[cfg]

    def test_p2_line_table_matches_fit_chain(self):
        # The closed-form table is within 1e-9*max|f| of the least-squares
        # no-knot chain fits, at epoch-sized x and tiny f too, and the bound
        # it feeds stays below every configuration's rank.
        p = PNorm.two()
        data = random_dataset(make_rng(61), 9)
        planted = planted_instance(make_rng(62), 9, 3)[0]
        cases = [
            data,
            DataSet(60.0 * data.x + 1.7e9, -2.5 * data.f + 100.0),
            DataSet(data.x, 1e-13 * data.f),
            planted,
            DataSet(60.0 * planted.x + 1.7e9, -2.5 * planted.f + 100.0),
        ]
        for data in cases:
            fit = functools.cache(lambda chain: fit_chain(data, chain, p))
            table = _p2_line_errors(data.x, data.f)
            slack = 1e-9 * float(np.max(np.abs(data.f)))
            n = len(data.x)
            for a in range(n):
                for b in range(a + 2, n):
                    assert abs(table[a, b] - fit(ChainProblem(a, b))[1]) <= slack
            for cfg in enumerate_configs(data.mu, 3):
                rank = residual_norm(np.array([fit(c)[1] for c in cfg.chains(data.mu)]), p)
                bound = _lower_bound(data, cfg, p, lambda a, b: table[a, b])
                assert bound <= rank * (1.0 + 1e-9) + slack

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_p2_line_table_matches_the_per_length_loop(self, monkeypatch):
        # The chunked table agrees with a pass per block length, at every
        # scale the search must handle. A budget of 100 entries splits the
        # blocks of one length over several chunks and puts blocks of two
        # lengths in one chunk; a row's masked sum can round differently
        # with the chunk's width, so entries agree to rounding.
        rng = make_rng(63)
        for mu in (0, 1, 2, 3, 9, 24, 40):
            data = random_dataset(rng, mu)
            for x, f in [
                (data.x, data.f),
                (60.0 * data.x + 1.7e9, -2.5 * data.f + 100.0),
                (data.x, 1e-13 * data.f),
                (data.x, 1e160 * data.f),
                (data.x, 1e-170 * data.f),
            ]:
                table = _p2_line_errors(x, f)
                ref = p2_line_errors_by_length(x, f)
                np.testing.assert_allclose(table, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(f)))
                with monkeypatch.context() as patch:
                    patch.setattr(brokenline.solver, "_BLOCK_CHUNK", 100)
                    np.testing.assert_allclose(_p2_line_errors(x, f), table, rtol=1e-13)

    @pytest.mark.parametrize("epoch", [False, True])
    def test_p2_line_table_is_zero_inside_a_planted_piece(self, epoch):
        # A line fits a block inside one piece of a planted polyline
        # exactly, so its entry must stay far below the search's margin of
        # 1e-9*max|f|, or the bound would prune the zero-error optimum. A
        # table from running sums of x, x^2, f and xf reads up to about
        # 5e-10*max|f| on these blocks at unit scale and 4e-3*max|f| at
        # epoch scale.
        data, spline, _ = planted_instance(make_rng(76), 20, 2)  # knots d2 and g5
        if epoch:
            x = 60.0 * data.x + 1.7e9
            spline = BrokenLine(60.0 * spline.t + 1.7e9, -2.5 * spline.v + 100.0)
            data = DataSet(x, evaluate_many(spline, x))
        table = _p2_line_errors(data.x, data.f)
        knots = spline.t[1:-1]
        assert len(knots) == 2
        for a, b in itertools.combinations(range(len(data.x)), 2):
            if not np.any((data.x[a] < knots) & (knots < data.x[b])):
                assert table[a, b] <= 1e-12 * np.max(np.abs(data.f))

    @pytest.mark.parametrize("p", [PNorm.one(), PNorm.infinity()])
    def test_lp_line_tables_match_fit_chain(self, p, monkeypatch):
        # The closed-form l_1 and l_inf tables are within 1e-9*max|f| of the
        # no-knot LP chain fits, at epoch-sized x and tiny f too, and the
        # bound they feed stays below every configuration's rank. On blocks
        # of up to 8 points they also match a plain pass over every pair
        # (l_1: the best line through two points) or every triple (l_inf:
        # half the middle point's miss from the outer chord). Taking the
        # pairs a few at a time, as large data does, changes no entry.
        table_of = _LINE_TABLES[p.p]
        data = random_dataset(make_rng(61), 9)
        planted = planted_instance(make_rng(62), 9, 3)[0]
        cases = [
            data,
            DataSet(60.0 * data.x + 1.7e9, -2.5 * data.f + 100.0),
            DataSet(data.x, 1e-13 * data.f),
            planted,
            DataSet(60.0 * planted.x + 1.7e9, -2.5 * planted.f + 100.0),
        ]
        for data in cases:
            fit = functools.cache(lambda chain: fit_chain(data, chain, p))
            table = table_of(data.x, data.f)
            slack = 1e-9 * float(np.max(np.abs(data.f)))
            n = len(data.x)
            for a in range(n):
                for b in range(a + 2, n):
                    assert abs(table[a, b] - fit(ChainProblem(a, b))[1]) <= slack
            for cfg in enumerate_configs(data.mu, 3):
                rank = residual_norm(np.array([fit(c)[1] for c in cfg.chains(data.mu)]), p)
                bound = _lower_bound(data, cfg, p, lambda a, b: table[a, b])
                assert bound <= rank * (1.0 + 1e-9) + slack
            with monkeypatch.context() as patch:
                patch.setattr(brokenline.solver, "_PAIR_CHUNK", 7)
                assert np.array_equal(table_of(data.x, data.f), table)

            x, f = data.x.tolist(), data.f.tolist()

            def miss(i, j, m):
                slope = (f[j] - f[i]) / (x[j] - x[i])
                return abs(f[m] - (f[i] + slope * (x[m] - x[i])))

            for a in range(n):
                for b in range(a + 2, min(a + 8, n)):
                    if p.is_infinity:
                        ref = max(
                            miss(i, j, m) / 2.0
                            for i, m, j in itertools.combinations(range(a, b + 1), 3)
                        )
                    else:
                        ref = min(
                            sum(miss(i, j, m) for m in range(a, b + 1))
                            for i, j in itertools.combinations(range(a, b + 1), 2)
                        )
                    assert abs(table[a, b] - ref) <= 1e-12 * float(np.max(np.abs(data.f)))

    def test_large_p_is_exact(self):
        # Line errors near 434 at p = 200: summing raw p-th powers would
        # overflow to inf, so the stream scales them before summing.
        wide = random_dataset(make_rng(5), 7)
        data = DataSet(wide.x, 1e3 * wide.f)
        p = PNorm.general(200.0)
        result = best_fit(data, 2, p)
        fit = functools.cache(lambda chain: fit_chain(data, chain, p))
        outcomes = [
            solve_config(data, c, p, [fit(chain) for chain in c.chains(data.mu)])
            for c in enumerate_configs(data.mu, 2)
        ]
        ref = min(
            (out for out in outcomes if isinstance(out, FitResult)),
            key=lambda out: (out.error, out.config.sort_key()),
        )
        assert (result.error, result.config.sort_key()) == (ref.error, ref.config.sort_key())

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="suspected: _newton_fit stops at an absolute gradient norm of 1e-10, which "
        "p*|r|^(p-1) undercuts once the scaled residuals are below 1, short of the optimum",
    )
    @pytest.mark.parametrize("epoch", [False, True])
    @pytest.mark.parametrize("P", [20.0, 50.0])
    def test_large_p_reaches_the_minimax_witness(self, P, epoch):
        # The best l_inf polyline is a witness: the p-norm minimum is at most
        # its p-norm error. Fits at p = 20 read 0.0934 against its 0.0749.
        data = smooth_dataset(make_rng(0), 6)
        if epoch:
            data = DataSet(60.0 * data.x + 1.7e9, -2.5 * data.f + 100.0)
        p = PNorm.general(P)
        witness = best_fit(data, 2, PNorm.infinity()).spline
        assert best_fit(data, 2, p).error <= error_norm(data, witness, p) * (1.0 + 1e-9)

    def test_scale_smoke(self):
        # 7061629 configurations at k=4; the stream reaches the optimum
        # without building them.
        data = smooth_dataset(make_rng(901), 60)
        result = best_fit(data, 4, PNorm.two())
        assert check_structure(data, result.spline, PNorm.two()).all_pass
        assert result.error <= best_fit(data, 3, PNorm.two()).error

    def test_large_p1_solve(self):
        # 6965 configurations at mu=60, k=2; the l_1 line table and the
        # closed-form LP start keep this to about a second.
        data = random_dataset(make_rng(602), 60)
        result = best_fit(data, 2, PNorm.one())
        assert str(result.config) == "d51+g54"
        assert abs(result.error - 28.111163843569518) <= 1e-12 * 28.111163843569518
        assert check_structure(data, result.spline, PNorm.one()).all_pass

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
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
        maps += [(1.0, 0.0, 1e160, 0.0), (1.0, 0.0, 1e-170, 0.0)]
        for data, k in cases:
            base = best_fit(data, k, p).error
            for alpha, beta, gamma, delta in maps:
                moved = DataSet(alpha * data.x + beta, gamma * data.f + delta)
                error = best_fit(moved, k, p).error
                assert abs(error - abs(gamma) * base) <= 1e-6 * abs(gamma) * base

    def test_search_classifies_no_knot(self, monkeypatch):
        # Only the answer's proper knots are counted, and only when asked for,
        # by the mask classify_knots applies.
        def refuse(*args):
            raise AssertionError("best_fit classified knots")

        rng = make_rng(70)
        cases = [(random_dataset(rng, 7), 2), (smooth_dataset(rng, 8), 2)]
        cases += [(planted_instance(rng, 6, 2)[0], 2), (random_dataset(rng, 2), 3)]
        for data, k in cases:
            for moved in (data, DataSet(60.0 * data.x + 1.7e9, -2.5 * data.f + 100.0)):
                for p in NORMS + [PNorm.general(1.5)]:
                    with monkeypatch.context() as patch:
                        patch.setattr(brokenline.solver, "classify_knots", refuse)
                        result = best_fit(moved, k, p)
                    expected = len(proper_knot_positions(result.spline, moved))
                    assert result.proper_knot_count == expected

    @pytest.mark.xfail(
        strict=True,
        reason="with gaps of 2-3 ulps a gap knot that rounds onto the ulp grid is rejected "
        "as outside its gap, or moved without a refit of the values",
    )
    @pytest.mark.parametrize("p", [PNorm.two(), PNorm.one()])
    def test_ulp_wide_gaps_reach_the_oracle(self, p):
        f = smooth_dataset(make_rng(3), 6).f
        data = DataSet(1.7e9 + 5e-7 * np.arange(len(f)), f)
        assert best_fit(data, 2, p).error <= grid_oracle(data, 2, p, 4) * (1 + 1e-9)

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

    @pytest.mark.parametrize("i", range(len(ORACLE_GOLDEN)))
    def test_frozen_values(self, i):
        # At g=16 the k=2 searches descend; the k=3 one's rounds mix widths.
        mu, k, p, g, value = ORACLE_GOLDEN[i]
        data = smooth_dataset(np.random.default_rng(1500 + i), mu)
        assert grid_oracle(data, k, p, g) == pytest.approx(value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", NORMS + [PNorm.general(1.5)], ids=["p1", "p2", "pinf", "p1.5"])
    def test_errors_do_not_depend_on_batch_mates(self, p):
        # grid_oracle batches all its pattern searches' requests together,
        # which leaves every search's path as it would be alone only because
        # each entry's value is, bit for bit, the same whatever its batch.
        rng = np.random.default_rng(1400)
        for case in range(12):
            data = random_dataset(rng, int(rng.integers(3, 10)))
            if case == 11:
                data = DataSet(60.0 * data.x + 1.7e9, -2.5 * data.f + 100.0)
            inner = np.sort(rng.uniform(data.a, data.b, (40, case % 4)), axis=1)
            bps = np.column_stack([np.full(40, data.a), inner, np.full(40, data.b)])
            batch = _oracle_errors(data, bps, p)
            alone = np.concatenate([_oracle_errors(data, row[None, :], p) for row in bps])
            reverse = _oracle_errors(data, bps[::-1], p)[::-1]
            assert batch.tobytes() == alone.tobytes() == reverse.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_general_p_scales_with_f(self, p):
        data = random_dataset(make_rng(7), 6)
        norm = PNorm.general(p)
        base = grid_oracle(data, 1, norm, 4)
        for scale in (1e-9, 1e-13, 1e160, 1e-170):
            value = grid_oracle(DataSet(data.x, scale * data.f), 1, norm, 4)
            assert abs(value - scale * base) <= 1e-12 * scale * base

    @pytest.mark.parametrize("infinity", [False, True], ids=["p1", "pinf"])
    def test_lp_batch_matches_highs(self, infinity):
        # The oracle's batched LPs against an independent solver (HiGHS) on
        # the textbook pair-row LP. Half the batches sit at epoch-sized x;
        # integer f gives exact zeros and tied extremes.
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = make_rng(64)
        for case in range(120):
            n = int(rng.integers(3, 15))
            xs = np.cumsum(rng.uniform(0.5, 1.5, n))
            if case % 2:
                xs = 60.0 * xs + 1.7e9
            fs = rng.integers(-2, 3, n).astype(float) if case % 3 else rng.uniform(-1.0, 1.0, n)
            inner = np.sort(rng.uniform(xs[0], xs[-1], (4, int(rng.integers(0, 4)))), axis=1)
            bps = np.column_stack([np.full(4, xs[0]), inner, np.full(4, xs[-1])])
            A = _batched_design(xs, bps)
            values = _lp_errors_batch(A, fs, infinity)
            d = A.shape[2]
            E = np.ones((n, 1)) if infinity else np.eye(n)
            for Ac, value in zip(A, values):
                res = linprog(
                    np.concatenate([np.zeros(d), np.ones(E.shape[1])]),
                    A_ub=np.block([[Ac, -E], [-Ac, -E]]),
                    b_ub=np.concatenate([fs, -fs]),
                    bounds=[(None, None)] * d + [(0, None)] * E.shape[1],
                    method="highs",
                )
                assert res.status == 0
                assert abs(value - res.fun) <= 1e-9 * (1.0 + abs(value))

    @pytest.mark.parametrize("p", [PNorm.one(), PNorm.infinity()], ids=["p1", "pinf"])
    def test_kinked_norms_move_with_units(self, p):
        # x -> alpha*x + beta and f -> gamma*f + delta scale the oracle value
        # by |gamma|, with epoch-sized offsets, tiny and huge values.
        maps = [(60.0, 1.7e9, -2.5, 100.0), (1.0, 0.0, 1e-13, 0.0), (1e-6, 3.0, 1e7, -4e7)]
        for s in range(6):
            data = random_dataset(make_rng(700 + s), 7)
            base = grid_oracle(data, 2, p, 4)
            for alpha, beta, gamma, delta in maps:
                moved = DataSet(alpha * data.x + beta, gamma * data.f + delta)
                value = grid_oracle(moved, 2, p, 4)
                assert abs(value - abs(gamma) * base) <= 1e-6 * abs(gamma) * base

    def test_rejects_bad_grid(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            grid_oracle(data, 1, PNorm.two(), 0)
        zigzag = DataSet([0, 1, 2, 3, 4, 5], [0, 1, 0, 1, 0, 1])
        with pytest.raises(ValueError, match="k must be >= 0"):
            grid_oracle(zigzag, -1, PNorm.two(), 1)
