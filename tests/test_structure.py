import numpy as np
import pytest

from brokenline import (
    BrokenLine,
    CheckStatus,
    DataSet,
    PNorm,
    best_fit,
    check_structure,
)

from conftest import make_rng, random_dataset


def statuses(report):
    return {name: chk.status for name, chk in report.items()}


class TestIndividualProperties:
    def test_boundary_knot_fails_a(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0])
        s = BrokenLine([0.0, 0.5, 3.0], [0.0, 1.0, 0.0])
        report = check_structure(data, s, PNorm.two())
        assert report.a.status is CheckStatus.FAIL
        assert "0.5" in report.a.witness

    def test_shared_gap_knots_fail_c_and_d(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0, 4.0], [0.0] * 5)
        s = BrokenLine([0.0, 1.2, 1.7, 4.0], [0.0, 1.0, -1.0, 0.5])
        report = check_structure(data, s, PNorm.two())
        assert report.c.status is CheckStatus.FAIL
        assert report.d.status is CheckStatus.FAIL

    def test_knot_adjacent_to_interior_knot_fails_b(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 6)
        s = BrokenLine([0.0, 2.0, 2.5, 5.0], [0.0, 1.0, -0.5, 1.0])
        report = check_structure(data, s, PNorm.two())
        assert report.b.status is CheckStatus.FAIL
        assert report.e.status is CheckStatus.FAIL

    def test_improper_gap_knot_fails_h(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 6)
        s = BrokenLine([0.0, 2.5, 5.0], [0.0, 0.5, 1.0])
        report = check_structure(data, s, PNorm.two())
        assert report.h.status is CheckStatus.FAIL
        # improper knots do not participate in (a)-(g)
        assert report.a.status is CheckStatus.PASS

    def test_g_not_applicable_for_sup_norm(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0], [0.0] * 4)
        s = BrokenLine([0.0, 3.0], [0.0, 0.0])
        report = check_structure(data, s, PNorm.infinity())
        assert report.g.status is CheckStatus.NOT_APPLICABLE

    def test_g_reproduction(self):
        # interior knot at 1.5, data knot at 3: exactly one abscissa (x_2 = 2) between
        data = DataSet([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.0, 1.0, 2.0, 0.0, 0.0])
        good = BrokenLine([0.0, 1.5, 3.0, 5.0], [-3.0, 0.0, 3.0, 0.0])  # hits (2, 1)
        report = check_structure(data, good, PNorm.two())
        assert report.g.status is CheckStatus.PASS
        bad = BrokenLine([0.0, 1.5, 3.0, 5.0], [-3.0, 0.2, 3.0, 0.0])  # misses (2, 1)
        report = check_structure(data, bad, PNorm.two())
        assert report.g.status is CheckStatus.FAIL

    @pytest.mark.parametrize(
        "xs, t, v, witnesses",
        [
            (
                range(5), [0, 2, 3.5, 4], [0, 1, -1, 0],
                {
                    "a": "knot 3.5 outside [x_1, x_mu] = [1.0, 3.0]",
                    "d": "knot interval [3.5, 4.0] covers 1 abscissae",
                    "f": "interior knot 3.5 lacks a free abscissa on one side",
                    "g": "abscissa x_3 between knots 2.0 and 3.5 not reproduced"
                    " (|residual| = 3.333e-01)",
                },
            ),
            (
                range(9), [0, 1.5, 4.5, 5.5, 8], [0, 1, -1, 1, 0],
                {
                    "c": "interior knots 4.5 and 5.5 enclose 1 non-knot abscissae",
                    "d": "knot interval [4.5, 5.5] covers 1 abscissae",
                },
            ),
            (
                range(6), [0, 2, 2.5, 5], [0, 1, -0.5, 1],
                {
                    "b": "abscissa x_2 adjoins interior knot 2.5 and is a knot",
                    "d": "knot interval [2.0, 2.5] covers 1 abscissae",
                    "e": "gap [x_2, x_3] of interior knot 2.5 also holds knot 2.0",
                    "g": "no abscissa between knots 2.0 and 2.5",
                },
            ),
            (range(6), [0, 2.5, 5], [0, 0.5, 1], {"h": "improper knot 2.5 strictly inside gap 2"}),
        ],
        ids=["adfg", "c", "bdeg", "h"],
    )
    def test_first_violation_witnesses(self, xs, t, v, witnesses):
        # Each failing property names its first violation in knot order; in
        # the "c" case only the second pair of neighboring interior knots fails.
        data = DataSet(list(xs), [0.0] * len(xs))
        report = check_structure(data, BrokenLine(t, v), PNorm.two())
        expected = {
            name: (CheckStatus.FAIL, witnesses[name]) if name in witnesses else (CheckStatus.PASS, None)
            for name in "abcdefgh"
        }
        assert {name: (chk.status, chk.witness) for name, chk in report.items()} == expected

    @pytest.mark.parametrize("scale", [1.0, 1e-13])
    def test_g_miss_fails_at_any_scale(self, scale):
        # x_2 = 2 is the one abscissa between the interior knot at 1.5 and the
        # data knot at 3, and f_2 sits 1e-3 above the polyline there
        data = DataSet(np.arange(7.0), scale * np.array([0.0, 1.0, 1.001, 0.0, 0.0, 0.0, 0.0]))
        s = BrokenLine([0.0, 1.5, 3.0, 6.0], scale * np.array([0.0, 1.5, 0.0, 0.0]))
        report = check_structure(data, s, PNorm.two())
        assert report.g.status is CheckStatus.FAIL


class TestVacuousAndInvariance:
    def test_no_knots_passes_everything(self):
        data = DataSet([0.0, 1.0, 2.0, 3.0], [0.1, 0.4, -0.2, 0.0])
        s = BrokenLine([0.0, 3.0], [0.0, 0.3])
        report = check_structure(data, s, PNorm.two())
        assert report.all_pass
        for name, chk in report.items():
            assert chk.status is CheckStatus.PASS

    def test_scale_invariance_of_report(self):
        rng = make_rng(40)
        for _ in range(25):
            data = random_dataset(rng, 8)
            result = best_fit(data, 2, PNorm.two())
            base = check_structure(data, result.spline, PNorm.two())
            lam = 37.5
            scaled_data = DataSet(data.x, lam * data.f)
            scaled = BrokenLine(result.spline.t, lam * result.spline.v)
            report = check_structure(scaled_data, scaled, PNorm.two())
            assert statuses(report) == statuses(base)


class TestPaperFigureFixture:
    def test_fig1_geometry_passes_a_and_d(self):
        xs = [0.0, 0.7, 1.4, 2.2, 3.9, 4.4, 4.8, 5.3, 6.0, 6.6, 7.1,
              7.7, 8.3, 9.6, 10.4, 10.9, 12.4, 13.3, 14.2]
        fs = [2.2, 1.9, 1.5, 1.3, 1.8, 2.4, 3.3, 4.3, 3.1, 2.4, 1.4,
              1.5, 1.2, 1.9, 2.9, 3.8, 2.3, 1.9, 1.4]
        data = DataSet(xs, fs)
        s = BrokenLine(
            [0.0, 3.3, 5.3, 7.1, 9.0, 10.9, 14.2],
            [2.2, 0.7, 4.1, 1.6, 1.0, 3.6, 1.4],
        )
        report = check_structure(data, s, PNorm.two())
        assert report.a.status is CheckStatus.PASS
        assert report.d.status is CheckStatus.PASS


class TestSolverOutputs:
    @pytest.mark.parametrize("p", [PNorm.one(), PNorm.two(), PNorm.infinity()])
    def test_best_fit_passes_applicable_checks(self, p):
        rng = make_rng(41)
        for _ in range(25):
            mu = int(rng.integers(3, 11))
            k = int(rng.integers(0, 4))
            if mu < k + 1:
                continue
            data = random_dataset(rng, mu)
            result = best_fit(data, k, p)
            report = check_structure(data, result.spline, p)
            failed = [n for n, chk in report.items() if chk.status is CheckStatus.FAIL]
            assert not failed, (failed, str(result.config))
