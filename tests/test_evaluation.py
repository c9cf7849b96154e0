"""Tests for detection scoring and aggregation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stemcpd import (
    Extrema,
    InvalidParameterError,
    PiecewiseSignal,
    aggregate,
    classify,
    make_staircase,
)

from helpers import (
    ToleranceRates,
    aggregate_per_tolerance,
    classify_bruteforce,
    classify_matrix,
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


@st.composite
def matrix_cases(draw):
    """Mixed-sign jumps at non-integer locations (quarter steps, so some
    detections lie exactly midway between two jumps, or arbitrary floats),
    detections in any order with repeats, and tolerances that include the
    distances themselves."""
    length = 200
    steps = draw(st.lists(st.integers(4, 4 * length), max_size=12, unique=True))
    floats = draw(st.lists(st.floats(1.0, float(length)), max_size=4))
    locations = sorted(set([q / 4.0 for q in steps] + floats))
    sizes = draw(st.lists(st.sampled_from([-1.5, -1.0, 0.5, 2.0]),
                          min_size=len(locations), max_size=len(locations)))
    midway = [int((a + b) / 2) for a, b in zip(locations, locations[1:]) if (a + b) % 2 == 0]
    index = draw(st.lists(st.integers(1, length), max_size=25)) + midway
    index = draw(st.permutations(index))
    sign = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(index), max_size=len(index)))
    distances = [abs(i - v) for i in index for v in locations if 0 < abs(i - v) < 40]
    grid_b = st.one_of(st.floats(0.25, 30.0), st.sampled_from([0.25, 0.5, 1.0, 2.5]),
                       *([st.sampled_from(distances)] if distances else []))
    tolerances = draw(st.lists(grid_b, min_size=1, max_size=9))
    return index, sign, tuple(zip(locations, sizes)), tuple(tolerances)


TRUTH = PiecewiseSignal(((100.0, 1.0), (200.0, -2.0), (300.0, 1.5)), 400)


class TestClassify:
    def test_exact_hit(self):
        res = classify(dets([100]), TRUTH, (5.0,))
        assert res.dtype == np.float64 and res.shape == (2, 1)
        assert res.tolist() == [[0.0], [1 / 3]]

    def test_open_window_boundary(self):
        # distance exactly b falls outside the open interval
        assert classify(dets([105]), TRUTH, (5.0,)).tolist() == [[1.0], [0.0]]
        assert classify(dets([104]), TRUTH, (5.0,)).tolist() == [[0.0], [1 / 3]]

    def test_wrong_sign_is_neither_false_nor_hit(self):
        res = classify(dets([100], sign=-1), TRUTH, (5.0,))
        assert res.tolist() == [[0.0], [0.0]]

    def test_decreasing_jump_needs_minimum(self):
        assert classify(dets([200], sign=-1), TRUTH, (5.0,)).tolist() == [[0.0], [1 / 3]]
        assert classify(dets([200], sign=1), TRUTH, (5.0,)).tolist() == [[0.0], [0.0]]

    def test_multiple_hits_count_once(self):
        res = classify(dets([98, 99, 101]), TRUTH, (5.0,))
        assert res.tolist() == [[0.0], [1 / 3]]

    def test_no_detections(self):
        res = classify(dets([]), TRUTH, (5.0,))
        assert res.tolist() == [[0.0], [0.0]]

    def test_null_truth_power_absent(self):
        res = classify(dets([50]), PiecewiseSignal((), 400), (5.0, 8.0))
        assert res.shape == (2, 2) and res[0].tolist() == [1.0, 1.0]
        assert np.isnan(res[1]).all()

    def test_counts_partition(self):
        rng = np.random.default_rng(31)
        truth = make_staircase(1.0, 50, 1000)
        for _ in range(50):
            found = random_dets(rng, rng.integers(0, 30), 999)
            res = classify(found, truth, (4.0,))
            in_window = sum(
                any(abs(i - v) < 4.0 for v in truth.locations) for i in found.index.tolist()
            )
            assert res[0, 0] == (len(found) - in_window) / max(len(found), 1)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            found = random_dets(rng, rng.integers(0, 12), 399)
            b = float(rng.uniform(1.0, 20.0))
            res = classify(found, TRUTH, (b,))
            r, v, fdp, hits, power = classify_bruteforce(
                found, TRUTH.locations, TRUTH.sizes, b
            )
            assert res[:, 0].tolist() == [fdp, power]

    def test_false_count_monotone_in_tolerance(self):
        rng = np.random.default_rng(41)
        found = dets(rng.integers(2, 399, size=25))
        fdp, power = classify(found, TRUTH, (2.0, 5.0, 10.0, 20.0))
        assert np.all(np.diff(fdp) <= 0)
        assert np.all(np.diff(power) >= 0)

    def test_overlap_warning(self):
        """Overlapping windows are scored without a warning (pytest.ini makes
        one fail the test): ``SimulateRequest`` warns, once per request."""
        res = classify(dets([10, 15]), make_staircase(1.0, 10, 100), (4.0, 8.0, 9.0))
        assert res[0].tolist() == [0.5, 0.0, 0.0]
        assert (9 * res[1]).tolist() == [1.0, 2.0, 2.0]  # 15 credits both 10 and 20

    def test_invalid_tolerance(self):
        for bad in ((0.0,), (5.0, -1.0), (math.nan,)):
            with pytest.raises(InvalidParameterError):
                classify(dets([100]), TRUTH, bad)

    def test_one_result_per_tolerance_in_order(self):
        found = dets([98, 104, 150, 200], sign=[1, 1, 1, -1])
        res = classify(found, TRUTH, (8.0, 3.0, 8.0, 5.0))
        assert res[0].tolist() == [0.25, 0.5, 0.25, 0.25]
        assert res[1].tolist() == [2 / 3] * 4
        empty = classify(found, TRUTH, ())
        assert empty.dtype == np.float64 and empty.shape == (2, 0)

    @settings(max_examples=300, deadline=None)
    @given(case=scoring_cases())
    def test_matches_per_tolerance_oracle(self, case):
        """Row t of the one-call score equals the one-tolerance scoring at
        the t-th tolerance, including overlapping windows."""
        found, truth, tolerances = case
        res = classify(found, truth, tolerances)
        expected = [classify_per_tolerance(found, truth, b) for b in tolerances]
        assert res.dtype == np.float64 and res.shape == (2, len(tolerances))
        assert ([score_at(res, t) for t in range(len(tolerances))]
                == [ToleranceRates(e.fdp, e.power_fraction) for e in expected])


    @settings(max_examples=300, deadline=None)
    @given(case=matrix_cases())
    @example(case=([15, 15, 25], [1, -1, -1], ((10.0, 1.0), (20.0, -2.0), (30.0, 0.5)),
                   (5.0, 5.5, 0.5)))
    def test_matches_distance_matrix_oracle(self, case):
        """Bit for bit the FDP and power rows from one (detections x jumps)
        distance matrix, whose minima the sorted searches replace."""
        index, sign, jumps, tolerances = case
        found, truth = dets(index, sign), PiecewiseSignal(jumps, 200)
        res = classify(found, truth, tolerances)
        expected = classify_matrix(found, truth, tolerances)
        rates = np.array((expected.fdp, expected.power_fraction))
        assert res.dtype == rates.dtype == np.float64 and res.shape == rates.shape
        assert np.array_equal(bits(res), bits(rates))


def scored(fdp, power):
    """One replicate's (2, T) score over T = len(fdp) tolerances."""
    return np.array((fdp, power), dtype=float)


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
        fdr, fdr_se, power, power_se = aggregate([scored([0.0], [1.0])] * 5)
        assert fdr.tolist() == [0.0]
        assert fdr_se.tolist() == [0.0]
        assert power.tolist() == [1.0]

    def test_mean_of_two(self):
        fdr, fdr_se, power, power_se = aggregate([scored([0.0], [1.0]), scored([0.5], [0.5])])
        assert fdr == pytest.approx([0.25])
        assert power == pytest.approx([0.75])

    def test_standard_errors(self):
        vals = [0.0, 0.1, 0.2, 0.3]
        fdr, fdr_se, power, power_se = aggregate([scored([v], [v]) for v in vals])
        expected_se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert fdr_se == pytest.approx([expected_se])
        assert power_se == pytest.approx([expected_se])

    def test_power_absent_for_null_runs(self):
        null = scored([0.0, 0.0], [math.nan, math.nan])
        for reps in (1, 2):
            fdr, fdr_se, power, power_se = aggregate([null] * reps)
            assert np.isnan(power).all() and np.isnan(power_se).all()
            assert fdr_se.tolist() == [0.0, 0.0]

    def test_single_replicate(self):
        fdr, fdr_se, power, power_se = aggregate([scored([0.5], [1.0])])
        assert fdr_se.tolist() == [0.0]
        assert power_se.tolist() == [0.0]

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            aggregate([])

    @settings(max_examples=200, deadline=None)
    @given(results=replicate_scores())
    def test_matches_per_tolerance_oracle(self, results):
        """Every tolerance's average and standard error equal, bit for
        bit, the one-tolerance aggregation of the same replicates."""
        agg = aggregate(results)
        expected = [aggregate_per_tolerance(score_at(res, t) for res in results)
                    for t in range(results[0].shape[1])]
        for name, row in zip(("fdr", "fdr_se", "power", "power_se"), agg):
            assert np.array_equal(bits(row), bits([getattr(e, name) for e in expected])), name

    @pytest.mark.parametrize("reps", [1, 2, 7, 600])
    def test_grid_stack_matches_each_cell(self, reps):
        """One call on a (R, jumps, bandwidths, 2, T) stack gives, bit for
        bit, each (jump, bandwidth) cell's own aggregate."""
        rng = np.random.default_rng(reps)
        x = rng.uniform(size=(reps, 3, 4, 2, 5))
        x[:, 0, :, 1] = np.nan  # a null row: no power
        agg = aggregate(x)
        assert agg.shape == (4, 3, 4, 5)
        for j, g in np.ndindex(3, 4):
            cell = aggregate(x[:, j, g])
            for name, row, cell_row in zip(("fdr", "fdr_se", "power", "power_se"), agg, cell):
                assert np.array_equal(bits(row[j, g]), bits(cell_row)), (name, j, g)
