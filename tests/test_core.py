import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from brokenline import (
    BrokenLine,
    DataSet,
    DomainError,
    PNorm,
    PositionKind,
    classify_knots,
    evaluate,
    spike_fixture,
)

from conftest import make_rng, random_polyline


class TestDataSet:
    def test_basic_properties(self):
        data = DataSet([0.0, 1.0, 2.5, 4.0], [1.0, -1.0, 0.0, 2.0])
        assert data.a == 0.0 and data.b == 4.0 and data.mu == 2

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            DataSet([0.0, 2.0, 1.0], [0.0, 0.0, 0.0])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            DataSet([0.0, 1.0, 1.0], [0.0, 0.0, 0.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DataSet([0.0, 1.0], [np.nan, 0.0])

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            DataSet([0.0], [0.0])

    def test_immutable_arrays(self):
        data = DataSet([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            data.x[0] = 5.0

    def test_copies_caller_arrays(self):
        x, f = np.array([0.0, 1.0, 2.0]), np.array([1.0, -1.0, 0.5])
        data = DataSet(x, f)
        assert data.x is not x and data.f is not f
        x[0], f[0] = -1.0, 7.0  # the caller's arrays stay writable
        assert data.x.tolist() == [0.0, 1.0, 2.0]
        assert data.f.tolist() == [1.0, -1.0, 0.5]


class TestBrokenLine:
    def test_knot_count(self):
        s = BrokenLine([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert s.knot_count == 1

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            BrokenLine([0.0, 2.0, 1.0], [0.0, 0.0, 0.0])

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ValueError):
            BrokenLine([0.0, 1.0], [0.0, np.inf])

    def test_rejects_arrays_that_are_not_parallel(self):
        with pytest.raises(ValueError, match="parallel"):
            BrokenLine([0.0, 1.0, 2.0], [0.0, 1.0])


class TestPNorm:
    def test_labels(self):
        assert PNorm.one().label() == "1"
        assert PNorm.two().label() == "2"
        assert PNorm.infinity().label() == "inf"
        assert PNorm.general(3.5).label() == "3.5"

    def test_general_rejects_extremes(self):
        with pytest.raises(ValueError):
            PNorm.general(1.0)
        with pytest.raises(ValueError):
            PNorm.general(math.inf)

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            PNorm(0.5)


class TestEvaluate:
    def test_fixture_peak(self):
        assert evaluate(spike_fixture(10), 0.5) == 5.5

    def test_fixture_at_zero(self):
        assert abs(evaluate(spike_fixture(10), 0.0) - 1.0) <= 1e-12

    def test_breakpoint_identity(self):
        rng = make_rng(1)
        for _ in range(20):
            s = random_polyline(rng, 0.0, 3.0, 4)
            for t, v in zip(s.t, s.v):
                assert evaluate(s, float(t)) == float(v)

    def test_outside_domain(self):
        s = spike_fixture(2)
        with pytest.raises(DomainError):
            evaluate(s, 1.5)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_interpolation_between_breakpoints(self, w):
        s = BrokenLine([0.0, 2.0], [1.0, 3.0])
        x = 2.0 * w
        assert abs(evaluate(s, x) - (1.0 + x)) <= 1e-12


class TestSpikeFixture:
    def test_breakpoints_i10(self):
        s = spike_fixture(10)
        assert np.array_equal(s.t, [-1.0, -0.1, 0.5, 1.0])
        assert np.array_equal(s.v, [1.0, 0.1, 5.5, 1.0])

    def test_value_at_half_i2(self):
        assert evaluate(spike_fixture(2), 0.5) == 1.5

    @pytest.mark.parametrize("i", [2, 3, 5, 8, 10, 100])
    def test_unit_values_on_grid(self, i):
        s = spike_fixture(i)
        assert s.v[0] == 1.0 and s.v[-1] == 1.0
        assert abs(evaluate(s, 0.0) - 1.0) <= 1e-12

    @pytest.mark.parametrize("i", [2, 4, 8, 16])
    def test_power_of_two_exact(self, i):
        assert evaluate(spike_fixture(i), 0.0) == 1.0

    @pytest.mark.parametrize("i", [2, 5, 10, 100])
    def test_max_attained_at_half(self, i):
        s = spike_fixture(i)
        grid = np.linspace(-1.0, 1.0, 2001)
        values = [evaluate(s, float(x)) for x in grid]
        peak = (i + 1) / 2.0
        assert abs(max(values) - peak) <= 1e-12 * peak
        assert evaluate(s, 0.5) == peak

    def test_rejects_small_index(self):
        with pytest.raises(ValueError):
            spike_fixture(1)


class TestClassifyKnots:
    def test_proper_interior(self):
        s = BrokenLine([0.0, 1.5, 3.0], [0.0, 1.0, 0.0])
        data = DataSet([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0])
        (lab,) = classify_knots(s, data)
        assert lab.proper
        assert lab.kind is PositionKind.INTERIOR and lab.q == 1

    def test_improper_data_knot(self):
        s = BrokenLine([0.0, 1.0, 3.0], [0.0, 1.0, 3.0])
        data = DataSet([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0])
        (lab,) = classify_knots(s, data)
        assert not lab.proper
        assert lab.kind is PositionKind.DATA and lab.q == 1

    def test_fixture_classification(self):
        s = spike_fixture(10)
        data = DataSet([-1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        labs = classify_knots(s, data)
        assert [lab.position for lab in labs] == [-0.1, 0.5]
        assert all(lab.proper for lab in labs)
        assert labs[0].kind is PositionKind.INTERIOR and labs[0].q == 0
        assert labs[1].kind is PositionKind.INTERIOR and labs[1].q == 1

    def test_partition_and_bit_equality(self):
        rng = make_rng(2)
        for _ in range(50):
            mu = int(rng.integers(1, 8))
            xs = np.cumsum(rng.uniform(0.5, 1.5, mu + 2))
            xs -= xs[0]
            data = DataSet(xs, rng.uniform(-1, 1, mu + 2))
            s = random_polyline(rng, data.a, data.b, 4)
            labs = classify_knots(s, data)
            assert len(labs) == s.knot_count
            for lab in labs:
                if lab.kind is PositionKind.DATA:
                    assert lab.position == data.x[lab.q]
                else:
                    assert data.x[lab.q] < lab.position < data.x[lab.q + 1]

    def test_domain_mismatch(self):
        s = BrokenLine([0.0, 1.0], [0.0, 0.0])
        data = DataSet([0.0, 2.0], [0.0, 0.0])
        with pytest.raises(DomainError):
            classify_knots(s, data)
