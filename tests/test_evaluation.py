"""Tests for detection scoring and aggregation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemcpd import (
    EvalResult,
    Extrema,
    InvalidParameterError,
    PiecewiseSignal,
    aggregate,
    classify,
    make_staircase,
)

from helpers import classify_bruteforce, classify_per_tolerance


def dets(index, sign=1):
    """Significant extrema at grid locations ``index``, maxima for sign +1."""
    index = np.array(index, dtype=np.int64)
    sign = np.broadcast_to(np.array(sign, dtype=np.int64), index.shape).copy()
    return Extrema(index, sign.astype(float), sign, np.full(index.shape, 0.001))


def random_dets(rng, count, hi):
    """``count`` significant extrema at random locations and signs."""
    pairs = [(int(rng.integers(2, hi)), int(rng.choice([-1, 1]))) for _ in range(count)]
    return dets([i for i, _ in pairs], [s for _, s in pairs])


@st.composite
def scoring_cases(draw):
    """Random detections and signs against a null truth, a staircase whose
    windows may overlap, or mixed-sign jumps; tolerance vectors unsorted,
    with duplicates, and reaching past half the jump spacing."""
    length = 200
    kind = draw(st.sampled_from(["null", "staircase", "mixed"]))
    if kind == "null":
        truth = PiecewiseSignal((), length)
    elif kind == "staircase":
        truth = make_staircase(draw(st.sampled_from([-2.0, 1.0])), draw(st.integers(3, 40)),
                               length)
    else:
        locations = draw(st.lists(st.integers(2, length), min_size=1, max_size=12, unique=True))
        sizes = draw(st.lists(st.sampled_from([-1.5, -1.0, 0.5, 2.0]),
                              min_size=len(locations), max_size=len(locations)))
        truth = PiecewiseSignal(tuple(zip(sorted(locations), sizes)), length)
    index = draw(st.lists(st.integers(1, length), max_size=25))
    sign = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(index), max_size=len(index)))
    grid_b = st.one_of(st.integers(1, 25).map(float), st.floats(0.25, 30.0),
                       st.sampled_from([0.5, 1.5, 2.5]))
    tolerances = draw(st.lists(grid_b, min_size=1, max_size=9))
    return dets(index, sign), truth, tuple(tolerances)


TRUTH = PiecewiseSignal(((100.0, 1.0), (200.0, -2.0), (300.0, 1.5)), 400)


class TestClassify:
    def test_exact_hit(self):
        (res,) = classify(dets([100]), TRUTH, (5.0,))
        assert (res.n_detected, res.n_false) == (1, 0)
        assert res.fdp == 0.0
        assert res.per_jump_hit == (True, False, False)
        assert res.power_fraction == pytest.approx(1 / 3)

    def test_open_window_boundary(self):
        # distance exactly b falls outside the open interval
        (res,) = classify(dets([105]), TRUTH, (5.0,))
        assert res.n_false == 1
        assert res.per_jump_hit == (False, False, False)
        (res,) = classify(dets([104]), TRUTH, (5.0,))
        assert res.n_false == 0
        assert res.per_jump_hit == (True, False, False)

    def test_wrong_sign_is_neither_false_nor_hit(self):
        (res,) = classify(dets([100], sign=-1), TRUTH, (5.0,))
        assert res.n_false == 0
        assert res.per_jump_hit == (False, False, False)
        assert res.n_wrong_sign == 1
        assert res.fdp == 0.0

    def test_decreasing_jump_needs_minimum(self):
        (res,) = classify(dets([200], sign=-1), TRUTH, (5.0,))
        assert res.per_jump_hit == (False, True, False)
        assert res.n_false == 0

    def test_multiple_hits_count_once(self):
        (res,) = classify(dets([98, 99, 101]), TRUTH, (5.0,))
        assert res.per_jump_hit == (True, False, False)
        assert res.power_fraction == pytest.approx(1 / 3)
        assert res.n_detected == 3

    def test_no_detections(self):
        (res,) = classify(dets([]), TRUTH, (5.0,))
        assert (res.n_detected, res.n_false, res.fdp) == (0, 0, 0.0)
        assert res.power_fraction == 0.0

    def test_null_truth_power_absent(self):
        (res,) = classify(dets([50]), PiecewiseSignal((), 400), (5.0,))
        assert res.n_false == 1
        assert res.power_fraction is None
        assert res.per_jump_hit == ()

    def test_counts_partition(self):
        rng = np.random.default_rng(31)
        truth = make_staircase(1.0, 50, 1000)
        for _ in range(50):
            found = random_dets(rng, rng.integers(0, 30), 999)
            (res,) = classify(found, truth, (4.0,))
            in_window = sum(
                any(abs(d.index - v) < 4.0 for v in truth.locations) for d in found
            )
            assert res.n_false + in_window == res.n_detected

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            found = random_dets(rng, rng.integers(0, 12), 399)
            b = float(rng.uniform(1.0, 20.0))
            (res,) = classify(found, TRUTH, (b,))
            r, v, fdp, hits, power = classify_bruteforce(
                found, TRUTH.locations, TRUTH.sizes, b
            )
            assert (res.n_detected, res.n_false) == (r, v)
            assert res.fdp == pytest.approx(fdp)
            assert list(res.per_jump_hit) == hits
            assert res.power_fraction == pytest.approx(power)

    def test_false_count_monotone_in_tolerance(self):
        rng = np.random.default_rng(41)
        found = dets(rng.integers(2, 399, size=25))
        previous_v, previous_power = None, None
        for b in (2.0, 5.0, 10.0, 20.0):
            (res,) = classify(found, TRUTH, (b,))
            if previous_v is not None:
                assert res.n_false <= previous_v
                assert res.power_fraction >= previous_power
            previous_v, previous_power = res.n_false, res.power_fraction

    def test_overlap_warning(self):
        truth = make_staircase(1.0, 10, 100)
        with pytest.warns(UserWarning) as record:
            res4, res8, res9 = classify(dets([10]), truth, (4.0, 8.0, 9.0))
        assert len(record) == 1  # once per call, however many tolerances overlap
        assert (res4.overlap_warning, res8.overlap_warning, res9.overlap_warning) == (
            False, True, True)

    def test_invalid_tolerance(self):
        for bad in ((0.0,), (5.0, -1.0), (math.nan,)):
            with pytest.raises(InvalidParameterError):
                classify(dets([100]), TRUTH, bad)

    def test_one_result_per_tolerance_in_order(self):
        found = dets([98, 104, 150, 200], sign=[1, 1, 1, -1])
        results = classify(found, TRUTH, (8.0, 3.0, 8.0, 5.0))
        assert [res.n_false for res in results] == [1, 2, 1, 1]
        assert results[0] == results[2]
        assert classify(found, TRUTH, ()) == ()

    @settings(max_examples=300, deadline=None)
    @given(case=scoring_cases())
    def test_matches_per_tolerance_oracle(self, case):
        """Scoring every tolerance in one call equals the one-tolerance
        scoring, tolerance by tolerance, including overlapping windows."""
        found, truth, tolerances = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            results = classify(found, truth, tolerances)
            expected = tuple(classify_per_tolerance(found, truth, b) for b in tolerances)
        assert results == expected


class TestAggregate:
    def _result(self, fdp, power):
        return EvalResult(1, 0, fdp, (True,), power, 0, False)

    def test_all_zero(self):
        agg = aggregate([self._result(0.0, 1.0) for _ in range(5)])
        assert agg.fdr == 0.0
        assert agg.fdr_se == 0.0
        assert agg.power == 1.0

    def test_mean_of_two(self):
        agg = aggregate([self._result(0.0, 1.0), self._result(0.5, 0.5)])
        assert agg.fdr == pytest.approx(0.25)
        assert agg.power == pytest.approx(0.75)
        assert agg.n_replications == 2

    def test_standard_errors(self):
        vals = [0.0, 0.1, 0.2, 0.3]
        agg = aggregate([self._result(v, v) for v in vals])
        expected_se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert agg.fdr_se == pytest.approx(expected_se)
        assert agg.power_se == pytest.approx(expected_se)

    def test_power_absent_for_null_runs(self):
        null = EvalResult(0, 0, 0.0, (), None, 0, False)
        agg = aggregate([null, null])
        assert math.isnan(agg.power)

    def test_single_replicate(self):
        agg = aggregate([self._result(0.5, 1.0)])
        assert agg.fdr_se == 0.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            aggregate([])

