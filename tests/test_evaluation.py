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

from helpers import (
    aggregate_per_tolerance,
    classify_bruteforce,
    classify_per_tolerance,
    score_at,
)


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
        res = classify(dets([100]), TRUTH, (5.0,))
        assert (res.n_detected, res.n_false.tolist()) == (1, [0])
        assert res.fdp.tolist() == [0.0]
        assert res.per_jump_hit.tolist() == [[True, False, False]]
        assert res.power_fraction == pytest.approx([1 / 3])

    def test_open_window_boundary(self):
        # distance exactly b falls outside the open interval
        res = classify(dets([105]), TRUTH, (5.0,))
        assert res.n_false.tolist() == [1]
        assert res.per_jump_hit.tolist() == [[False, False, False]]
        res = classify(dets([104]), TRUTH, (5.0,))
        assert res.n_false.tolist() == [0]
        assert res.per_jump_hit.tolist() == [[True, False, False]]

    def test_wrong_sign_is_neither_false_nor_hit(self):
        res = classify(dets([100], sign=-1), TRUTH, (5.0,))
        assert res.n_false.tolist() == [0]
        assert res.per_jump_hit.tolist() == [[False, False, False]]
        assert res.n_wrong_sign.tolist() == [1]
        assert res.fdp.tolist() == [0.0]

    def test_decreasing_jump_needs_minimum(self):
        res = classify(dets([200], sign=-1), TRUTH, (5.0,))
        assert res.per_jump_hit.tolist() == [[False, True, False]]
        assert res.n_false.tolist() == [0]

    def test_multiple_hits_count_once(self):
        res = classify(dets([98, 99, 101]), TRUTH, (5.0,))
        assert res.per_jump_hit.tolist() == [[True, False, False]]
        assert res.power_fraction == pytest.approx([1 / 3])
        assert res.n_detected == 3

    def test_no_detections(self):
        res = classify(dets([]), TRUTH, (5.0,))
        assert (res.n_detected, res.n_false.tolist(), res.fdp.tolist()) == (0, [0], [0.0])
        assert res.power_fraction.tolist() == [0.0]

    def test_null_truth_power_absent(self):
        res = classify(dets([50]), PiecewiseSignal((), 400), (5.0, 8.0))
        assert res.n_false.tolist() == [1, 1]
        assert np.isnan(res.power_fraction).all() and res.power_fraction.shape == (2,)
        assert res.per_jump_hit.shape == (2, 0)

    def test_counts_partition(self):
        rng = np.random.default_rng(31)
        truth = make_staircase(1.0, 50, 1000)
        for _ in range(50):
            found = random_dets(rng, rng.integers(0, 30), 999)
            res = classify(found, truth, (4.0,))
            in_window = sum(
                any(abs(d.index - v) < 4.0 for v in truth.locations) for d in found
            )
            assert res.n_false[0] + in_window == res.n_detected

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            found = random_dets(rng, rng.integers(0, 12), 399)
            b = float(rng.uniform(1.0, 20.0))
            res = classify(found, TRUTH, (b,))
            r, v, fdp, hits, power = classify_bruteforce(
                found, TRUTH.locations, TRUTH.sizes, b
            )
            assert (res.n_detected, res.n_false[0]) == (r, v)
            assert res.fdp[0] == pytest.approx(fdp)
            assert res.per_jump_hit[0].tolist() == hits
            assert res.power_fraction[0] == pytest.approx(power)

    def test_false_count_monotone_in_tolerance(self):
        rng = np.random.default_rng(41)
        found = dets(rng.integers(2, 399, size=25))
        res = classify(found, TRUTH, (2.0, 5.0, 10.0, 20.0))
        assert np.all(np.diff(res.n_false) <= 0)
        assert np.all(np.diff(res.power_fraction) >= 0)

    def test_overlap_warning(self):
        truth = make_staircase(1.0, 10, 100)
        with pytest.warns(UserWarning) as record:
            res = classify(dets([10]), truth, (4.0, 8.0, 9.0))
        assert len(record) == 1  # once per call, however many tolerances overlap
        assert res.overlap_warning.tolist() == [False, True, True]

    def test_invalid_tolerance(self):
        for bad in ((0.0,), (5.0, -1.0), (math.nan,)):
            with pytest.raises(InvalidParameterError):
                classify(dets([100]), TRUTH, bad)

    def test_one_result_per_tolerance_in_order(self):
        found = dets([98, 104, 150, 200], sign=[1, 1, 1, -1])
        res = classify(found, TRUTH, (8.0, 3.0, 8.0, 5.0))
        assert res.n_false.tolist() == [1, 2, 1, 1]
        assert score_at(res, 0) == score_at(res, 2)
        empty = classify(found, TRUTH, ())
        assert (empty.fdp.shape, empty.per_jump_hit.shape) == ((0,), (0, 3))

    @settings(max_examples=300, deadline=None)
    @given(case=scoring_cases())
    def test_matches_per_tolerance_oracle(self, case):
        """Row t of the one-call score equals the one-tolerance scoring at
        the t-th tolerance, including overlapping windows."""
        found, truth, tolerances = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            res = classify(found, truth, tolerances)
            expected = [classify_per_tolerance(found, truth, b) for b in tolerances]
        assert [score_at(res, t) for t in range(len(tolerances))] == expected
        assert res.per_jump_hit.shape == (len(tolerances), truth.n_jumps)


def scored(fdp, power):
    """One replicate's score over len(fdp) tolerances, one jump each."""
    fdp = np.array(fdp, dtype=float)
    zeros = np.zeros(len(fdp), dtype=np.int64)
    return EvalResult(1, zeros, fdp, np.ones((len(fdp), 1), dtype=bool),
                      np.array(power, dtype=float), zeros, zeros.astype(bool))


def stacked(results):
    """The replicates' ``EvalResult.rates``, as ``aggregate`` takes them."""
    return [res.rates for res in results]


def bits(x):
    """Bit patterns of a float array, every NaN read as the one NaN."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


@st.composite
def replicate_scores(draw):
    """R replicates (1 to 600) scored at T tolerances (1 to 12), against a
    null truth (NaN power) or one with J jumps: FDPs as V/max(R, 1) or
    arbitrary floats, powers as hits/J."""
    n_reps, n_tol = draw(st.integers(1, 600)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        fdp = rng.integers(0, 40, (n_reps, n_tol)) / np.maximum(rng.integers(0, 40, (n_reps, 1)), 1)
    else:
        fdp = rng.uniform(size=(n_reps, n_tol))
    n_jumps = draw(st.sampled_from([0, 1, 3, 119]))
    if n_jumps:
        power = rng.integers(0, n_jumps + 1, (n_reps, n_tol)) / n_jumps
    else:
        power = np.full((n_reps, n_tol), np.nan)
    return [scored(f, p) for f, p in zip(fdp, power)]


class TestAggregate:
    def test_all_zero(self):
        agg = aggregate(stacked(scored([0.0], [1.0]) for _ in range(5)))
        assert agg.fdr.tolist() == [0.0]
        assert agg.fdr_se.tolist() == [0.0]
        assert agg.power.tolist() == [1.0]

    def test_mean_of_two(self):
        agg = aggregate(stacked([scored([0.0], [1.0]), scored([0.5], [0.5])]))
        assert agg.fdr == pytest.approx([0.25])
        assert agg.power == pytest.approx([0.75])
        assert agg.n_replications == 2

    def test_standard_errors(self):
        vals = [0.0, 0.1, 0.2, 0.3]
        agg = aggregate(stacked(scored([v], [v]) for v in vals))
        expected_se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert agg.fdr_se == pytest.approx([expected_se])
        assert agg.power_se == pytest.approx([expected_se])

    def test_power_absent_for_null_runs(self):
        null = scored([0.0, 0.0], [math.nan, math.nan])
        for reps in (1, 2):
            agg = aggregate(stacked([null] * reps))
            assert np.isnan(agg.power).all() and np.isnan(agg.power_se).all()
            assert agg.fdr_se.tolist() == [0.0, 0.0]

    def test_single_replicate(self):
        agg = aggregate(stacked([scored([0.5], [1.0])]))
        assert agg.fdr_se.tolist() == [0.0]
        assert agg.power_se.tolist() == [0.0]

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            aggregate([])

    @settings(max_examples=200, deadline=None)
    @given(results=replicate_scores())
    def test_matches_per_tolerance_oracle(self, results):
        """Every tolerance's average and standard error equal, bit for
        bit, the one-tolerance aggregation of the same replicates."""
        agg = aggregate(stacked(results))
        expected = [aggregate_per_tolerance(score_at(res, t) for res in results)
                    for t in range(len(results[0].fdp))]
        for name in ("fdr", "fdr_se", "power", "power_se"):
            assert np.array_equal(bits(getattr(agg, name)),
                                  bits([getattr(e, name) for e in expected])), name
        assert agg.n_replications == len(results)

    @pytest.mark.parametrize("reps", [1, 2, 7, 600])
    def test_grid_stack_matches_each_cell(self, reps):
        """One call on a (R, jumps, bandwidths, 2, T) stack gives, bit for
        bit, each (jump, bandwidth) cell's own aggregate."""
        rng = np.random.default_rng(reps)
        x = rng.uniform(size=(reps, 3, 4, 2, 5))
        x[:, 0, :, 1] = np.nan  # a null row: no power
        agg = aggregate(x)
        assert agg.fdr.shape == (3, 4, 5) and agg.n_replications == reps
        for j, g in np.ndindex(3, 4):
            cell = aggregate(x[:, j, g])
            for name in ("fdr", "fdr_se", "power", "power_se"):
                assert np.array_equal(bits(getattr(agg, name)[j, g]),
                                      bits(getattr(cell, name))), (name, j, g)
