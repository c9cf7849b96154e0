"""Tests for detection scoring and aggregation."""

import math

import numpy as np
import pytest

from stemcpd import (
    EvalConfig,
    EvalResult,
    Extrema,
    InvalidParameterError,
    PiecewiseSignal,
    aggregate,
    classify,
    make_staircase,
)

from helpers import classify_bruteforce


def dets(index, sign=1):
    """Significant extrema at grid locations ``index``, maxima for sign +1."""
    index = np.array(index, dtype=np.int64)
    sign = np.broadcast_to(np.array(sign, dtype=np.int64), index.shape).copy()
    return Extrema(index, sign.astype(float), sign, np.full(index.shape, 0.001))


def random_dets(rng, count, hi):
    """``count`` significant extrema at random locations and signs."""
    pairs = [(int(rng.integers(2, hi)), int(rng.choice([-1, 1]))) for _ in range(count)]
    return dets([i for i, _ in pairs], [s for _, s in pairs])


TRUTH = PiecewiseSignal(((100.0, 1.0), (200.0, -2.0), (300.0, 1.5)), 400)


class TestClassify:
    def test_exact_hit(self):
        res = classify(dets([100]), TRUTH, EvalConfig(5.0))
        assert (res.n_detected, res.n_false) == (1, 0)
        assert res.fdp == 0.0
        assert res.per_jump_hit == (True, False, False)
        assert res.power_fraction == pytest.approx(1 / 3)

    def test_open_window_boundary(self):
        # distance exactly b falls outside the open interval
        res = classify(dets([105]), TRUTH, EvalConfig(5.0))
        assert res.n_false == 1
        assert res.per_jump_hit == (False, False, False)
        res = classify(dets([104]), TRUTH, EvalConfig(5.0))
        assert res.n_false == 0
        assert res.per_jump_hit == (True, False, False)

    def test_wrong_sign_is_neither_false_nor_hit(self):
        res = classify(dets([100], sign=-1), TRUTH, EvalConfig(5.0))
        assert res.n_false == 0
        assert res.per_jump_hit == (False, False, False)
        assert res.n_wrong_sign == 1
        assert res.fdp == 0.0

    def test_decreasing_jump_needs_minimum(self):
        res = classify(dets([200], sign=-1), TRUTH, EvalConfig(5.0))
        assert res.per_jump_hit == (False, True, False)
        assert res.n_false == 0

    def test_multiple_hits_count_once(self):
        res = classify(dets([98, 99, 101]), TRUTH, EvalConfig(5.0))
        assert res.per_jump_hit == (True, False, False)
        assert res.power_fraction == pytest.approx(1 / 3)
        assert res.n_detected == 3

    def test_no_detections(self):
        res = classify(dets([]), TRUTH, EvalConfig(5.0))
        assert (res.n_detected, res.n_false, res.fdp) == (0, 0, 0.0)
        assert res.power_fraction == 0.0

    def test_null_truth_power_absent(self):
        res = classify(dets([50]), PiecewiseSignal((), 400), EvalConfig(5.0))
        assert res.n_false == 1
        assert res.power_fraction is None
        assert res.per_jump_hit == ()

    def test_counts_partition(self):
        rng = np.random.default_rng(31)
        truth = make_staircase(1.0, 50, 1000)
        for _ in range(50):
            found = random_dets(rng, rng.integers(0, 30), 999)
            res = classify(found, truth, EvalConfig(4.0))
            in_window = sum(
                any(abs(d.index - v) < 4.0 for v in truth.locations) for d in found
            )
            assert res.n_false + in_window == res.n_detected

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            found = random_dets(rng, rng.integers(0, 12), 399)
            b = float(rng.uniform(1.0, 20.0))
            res = classify(found, TRUTH, EvalConfig(b))
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
            res = classify(found, TRUTH, EvalConfig(b))
            if previous_v is not None:
                assert res.n_false <= previous_v
                assert res.power_fraction >= previous_power
            previous_v, previous_power = res.n_false, res.power_fraction

    def test_overlap_warning(self):
        truth = make_staircase(1.0, 10, 100)
        with pytest.warns(UserWarning):
            res = classify(dets([10]), truth, EvalConfig(8.0))
        assert res.overlap_warning
        res2 = classify(dets([10]), truth, EvalConfig(4.0))
        assert not res2.overlap_warning

    def test_invalid_tolerance(self):
        with pytest.raises(InvalidParameterError):
            EvalConfig(0.0)


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

