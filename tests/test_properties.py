"""Property tests: the array-native detection core against plain-loop oracles.

Smoothing must reproduce the pairwise loop bit for bit (the golden fixture
depends on its summation order), extrema extraction must agree with a
run-by-run scan, and an ``Extrema`` slice, index array or mask must pick
the same candidates from every column, whose records hold exactly the
columns' numbers.  ``TimeSeries`` must accept exactly the
finite arrays.  The whole detector must map a sequence
reversed and negated to its own result mirrored, and a sequence scaled by
a power of two to its own result with only the heights scaled.
The tail inversion must land on the bracketed bisection's adjacent-float
crossing, with no more tail evaluations, and the tail itself must
saturate exactly from 40 standard deviations out.  Benjamini-Hochberg
rejections can only grow with the level.  Extraction, the height tail
(scalar and array), the step-up rule and the scorer must equal, bit for
bit, the former code kept in ``helpers``.  The command line's CSV
reader and writer must read and write exactly what the row-by-row code
they replaced did, and the reader must read, and refuse, the same at any
piece size.
"""

import csv
import io
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from stemcpd import (
    Extrema,
    Extremum,
    KernelSpec,
    MomentEstimationError,
    NoiseModel,
    PiecewiseSignal,
    SpectralMoments,
    TimeSeries,
    bh_select,
    classify,
    closed_form_moments,
    detect_change_points,
    find_local_extrema,
    invert_peak_height_tail,
    kernel_weights,
    make_staircase,
    peak_height_tail,
    sample_noise,
    smooth,
)
from stemcpd import InvalidParameterError, cli, inference
from stemcpd.cli import InputDataError, read_sequence_csv, write_detection_csv
from stemcpd.kernels import convolve_weights

import helpers
from helpers import (
    convolve_weights_pairwise,
    extrema_of,
    extrema_run_length,
    extrema_scan,
    invert_tail_bisection,
    read_sequence_csv_rows,
    step_signal_loop,
    write_detection_csv_records,
)

#: The parallel columns of an ``Extrema``.
FIELDS = ("index", "height", "sign", "p_value")

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def test_settings_inherit_the_loaded_profile():
    """The module's SETTINGS keep the profile loaded for the run (see
    conftest.py) and change only the example budget and the deadline."""
    assert SETTINGS.derandomize == settings.default.derandomize
    assert SETTINGS.database == settings.default.database
    assert SETTINGS.max_examples == 60


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def sequence(seed, n, kind):
    """Noise, a noisy staircase, or small integers with long constant runs
    and exact zeros (where signed zeros and exact cancellation show)."""
    rng = np.random.default_rng(seed)
    if kind == "noise":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    if kind == "steps":
        return np.repeat(rng.normal(size=n // 37 + 1), 37)[:n] + 0.1 * rng.standard_normal(n)
    return np.repeat(rng.integers(-2, 3, size=n // 5 + 1), 5)[:n].astype(float)


KINDS = st.sampled_from(["noise", "steps", "plateaus"])


def interior_of_pairwise_loop(y, weights):
    """The pairwise loop's sums on the interior [k, n-k), where the whole
    kernel fits, and +0.0 outside it."""
    k = len(weights) // 2
    out = np.zeros(len(y))
    out[k : len(y) - k] = convolve_weights_pairwise(y, weights)[k : len(y) - k]
    return out


class TestFinitenessCheck:
    @SETTINGS
    @given(
        body=st.lists(st.one_of(st.floats(), st.sampled_from([1e308, -1e308, -0.0, 5e-324])),
                      max_size=12),
        end=st.sampled_from([None, math.nan, math.inf, -math.inf, -0.0, 1e308]),
        first=st.booleans(),
    )
    @example(body=[], end=None, first=False)
    @example(body=[1.0, 2.0], end=math.nan, first=True)
    @example(body=[1.0, 2.0], end=math.inf, first=False)
    @example(body=[1.0, 2.0], end=-math.inf, first=True)
    @example(body=[-0.0], end=None, first=False)
    @example(body=[1e308, 1e308], end=None, first=False)
    @example(body=[-1e308, -1e308], end=1e308, first=False)
    def test_refuses_what_isfinite_refuses(self, body, end, first):
        """``TimeSeries`` accepts exactly the arrays whose samples are all
        finite: a non-finite first or last sample is refused, and signed
        zeros and samples whose sum overflows are accepted."""
        if end is not None:
            body = [end] + body if first else body + [end]
        values = np.array(body, dtype=float)
        try:
            TimeSeries(values)
            accepted = True
        except InvalidParameterError:
            accepted = False
        assert accepted == bool(np.isfinite(values).all())


class TestSmoothBitExact:
    @SETTINGS
    @given(
        gamma=st.floats(0.3, 12.0),
        order=st.integers(0, 3),
        extra=st.integers(0, 40_000),
        seed=st.integers(0, 2**32 - 1),
        kind=KINDS,
    )
    @example(gamma=6.0, order=1, extra=40_000, seed=0, kind="steps")
    @example(gamma=12.0, order=2, extra=33_000, seed=1, kind="plateaus")
    def test_smooth_equals_pairwise_loop(self, gamma, order, extra, seed, kind):
        spec = KernelSpec(gamma=gamma, order=order)
        weights = kernel_weights(spec)
        y = sequence(seed, len(weights) + extra, kind)
        mine = smooth(TimeSeries(y), spec).values
        assert np.array_equal(bits(mine), bits(interior_of_pairwise_loop(y, weights)))

    @SETTINGS
    @given(
        gamma=st.floats(0.3, 6.0),
        order=st.integers(0, 3),
        n=st.integers(0, 60),
        seed=st.integers(0, 2**32 - 1),
        kind=KINDS,
    )
    def test_short_input_equals_pairwise_loop(self, gamma, order, n, seed, kind):
        weights = kernel_weights(KernelSpec(gamma=gamma, order=order))
        y = sequence(seed, n, kind)
        mine = convolve_weights(y, weights)
        assert np.array_equal(bits(mine), bits(interior_of_pairwise_loop(y, weights)))


class TestExtremaScan:
    @SETTINGS
    @given(
        values=st.lists(st.integers(-3, 3), max_size=80),
        cut=st.tuples(st.integers(0, 80), st.integers(0, 80)),
    )
    def test_equals_plain_scan(self, values, cut):
        y = np.array(values, dtype=float)
        lo, hi = sorted(min(c, len(y)) for c in cut)
        found = find_local_extrema(TimeSeries(y, interior=(lo, hi)))
        want = extrema_scan(y.tolist(), lo, hi)
        assert list(zip(found.index.tolist(), found.height.tolist(), found.sign.tolist())) == want
        assert (found.index.dtype, found.height.dtype, found.sign.dtype) == (
            np.int64, np.float64, np.int64)

    @SETTINGS
    @given(
        runs=st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 30)), max_size=12),
        cut=st.tuples(st.integers(0, 400), st.integers(0, 400)),
    )
    @example(runs=[(1, 50)], cut=(0, 400))  # all equal
    @example(runs=[(0, 40)], cut=(3, 30))  # all zero
    @example(runs=[(1, 5), (2, 10), (1, 5)], cut=(2, 18))  # ties at both interior edges
    @example(runs=[(1, 4), (0, 7), (1, 4), (0, 6), (-1, 3), (0, 5)], cut=(0, 400))  # zero plateaus
    @example(runs=[(0, 3), (2, 9), (-1, 8), (1, 1), (-2, 12), (0, 2)], cut=(0, 400))  # up, ties, down
    @example(runs=[(1, 1), (1, 30), (1, 30), (2, 1)], cut=(0, 400))  # adjacent equal runs
    def test_long_ties_equal_plain_scan(self, runs, cut):
        """Sequences of long constant runs: ties between the moves, at the
        interior edges, on exact-zero plateaus and between an up move and a
        down move all map back to the leftmost sample of each plateau."""
        y = np.repeat([float(v) for v, _ in runs], [n for _, n in runs])
        lo, hi = sorted(min(c, len(y)) for c in cut)
        found = find_local_extrema(TimeSeries(y, interior=(lo, hi)))
        want = extrema_scan(y.tolist(), lo, hi)
        assert list(zip(found.index.tolist(), found.height.tolist(), found.sign.tolist())) == want

    @SETTINGS
    @given(
        gamma=st.floats(0.3, 12.0),
        n=st.integers(0, 30_000),
        margin=st.integers(0, 50),
        seed=st.integers(0, 2**32 - 1),
        kind=KINDS,
    )
    @example(gamma=6.0, n=30_000, margin=25, seed=3, kind="steps")
    def test_equals_run_length_oracle(self, gamma, n, margin, seed, kind):
        """Bit for bit and dtype for dtype the run-length extraction it
        replaced, on smoothed noise, noisy staircases and integer plateaus."""
        y = sequence(seed, n, kind)
        if kind != "plateaus":
            y = convolve_weights(y, kernel_weights(KernelSpec(gamma=gamma, order=1)))
        lo = min(margin, n)
        dy = TimeSeries(y, interior=(lo, max(lo, n - margin)))
        found, want = find_local_extrema(dy), extrema_run_length(dy)
        for name in FIELDS:
            mine, theirs = getattr(found, name), getattr(want, name)
            assert mine.dtype == theirs.dtype, name
            assert np.array_equal(mine.view(np.int64), theirs.view(np.int64)), name


@st.composite
def extrema_columns(draw):
    """Parallel index, height, sign and p-value lists; an absent p-value
    list stands for candidates not yet tested (NaN p-values)."""
    n = draw(st.integers(0, 40))
    column = lambda elements: st.lists(elements, min_size=n, max_size=n)
    return (
        draw(column(st.integers(-10**6, 10**6))),
        draw(column(st.floats(allow_nan=False, allow_infinity=False))),
        draw(column(st.sampled_from([1, -1]))),
        draw(st.none() | column(st.floats(1e-300, 1.0))),
    )


class TestExtremaRecords:
    @SETTINGS
    @given(columns=extrema_columns())
    def test_record_round_trip(self, columns):
        index, height, sign, _ = columns
        ex = extrema_of(*columns)
        recs = [Extremum(*fields) for fields in zip(index, height, sign)]
        assert len(ex) == len(recs)
        # by repr: -0.0 == 0.0, but their reprs differ
        assert repr(list(ex)) == repr(recs)
        assert np.array_equal(bits([e.height for e in ex]), bits(height))
        assert all(type(e.index) is int and type(e.height) is float and type(e.sign) is int
                   for e in ex)

    @SETTINGS
    @given(columns=extrema_columns(), start=st.integers(-45, 45), stop=st.integers(-45, 45),
           step=st.sampled_from([None, 1, 2, 3, -1, -2]), picks=st.lists(st.integers(0, 39)),
           mask_bits=st.integers(0, 2**40 - 1))
    def test_slices_and_index_arrays(self, columns, start, stop, step, picks, mask_bits):
        """A slice, an index list or array and a boolean mask each give an
        ``Extrema`` of the same dtypes holding, in every column, what the
        same selection picks from that column as a list."""
        ex = extrema_of(*columns)
        picks = [i for i in picks if i < len(ex)]
        mask = np.array([(mask_bits >> i) & 1 for i in range(len(ex))], dtype=bool)
        selections = [
            (slice(start, stop, step), lambda column: column[start:stop:step]),
            (picks, lambda column: [column[i] for i in picks]),
            (np.array(picks, dtype=np.int64), lambda column: [column[i] for i in picks]),
            (mask, lambda column: [v for v, keep in zip(column, mask) if keep]),
        ]
        for key, select in selections:
            part = ex[key]
            assert isinstance(part, Extrema)
            for name in FIELDS:
                mine, column = getattr(part, name), getattr(ex, name)
                assert mine.dtype == column.dtype, name
                # by repr: a NaN p-value is unequal to itself
                assert repr(mine.tolist()) == repr(select(column.tolist())), name
        assert len(ex[()]) == 0 and len(ex[[]]) == 0

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), jump=st.floats(0.5, 3.0),
           gamma=st.sampled_from([2.0, 4.0, 6.0]))
    def test_significant_is_the_rejected_subset(self, seed, jump, gamma):
        model = NoiseModel(1.0, 2.0)
        y = TimeSeries(make_staircase(jump, 100, 3000).mean
                       + sample_noise(model, 3000, seed).values)
        res = detect_change_points(y, gamma, 0.05, noise_model=model)
        sig = res.significant
        assert isinstance(sig, Extrema)
        rejected = res.outcome.rejected.tolist()
        for name in FIELDS:
            column = getattr(res.extrema, name).tolist()
            assert getattr(sig, name).tolist() == [column[i] for i in rejected], name
        assert np.all(np.diff(sig.index) > 0)
        assert not np.isnan(sig.p_value).any()


class TestMirrorSymmetry:
    @SETTINGS
    @given(
        n=st.integers(500, 5000),
        gamma=st.floats(1.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["noise", "steps"]),
        closed=st.booleans(),
    )
    def test_reversed_negated_sequence_mirrors_result(self, n, gamma, seed, kind, closed):
        """z[t] = -y[n+1-t] has the smoothed derivative of y read backwards,
        so every candidate reappears at n+1-index with the same sign, height
        and p-value.  Plateaus are left out: a plateau is reported at its
        leftmost sample, which reversal moves to the other end."""
        y = sequence(seed, n, kind)
        model = NoiseModel(1.0, 2.0) if closed else None

        def detect(values):
            try:
                return detect_change_points(TimeSeries(values), gamma, 0.05, noise_model=model)
            except MomentEstimationError as exc:
                return exc

        fwd, rev = detect(y), detect(-y[::-1])
        if isinstance(fwd, Exception) or isinstance(rev, Exception):
            assert type(fwd) is type(rev)
            return
        a, b = fwd.extrema, rev.extrema
        assert np.array_equal(b.index, n + 1 - a.index[::-1])
        assert np.array_equal(b.sign, a.sign[::-1])
        assert np.array_equal(bits(b.height), bits(a.height[::-1]))
        assert np.array_equal(bits(b.p_value), bits(a.p_value[::-1]))
        assert fwd.moments == rev.moments
        for name in ("k", "p_threshold", "u_threshold"):
            assert getattr(fwd.outcome, name) == getattr(rev.outcome, name)
        assert np.array_equal(rev.significant.index, n + 1 - fwd.significant.index[::-1])


class TestPowerOfTwoScaling:
    @SETTINGS
    @given(
        n=st.integers(400, 6000),
        gamma=st.floats(1.0, 12.0),
        seed=st.integers(0, 2**32 - 1),
        kind=KINDS,
        closed=st.booleans(),
        k=st.integers(-3, 5),
    )
    # delta = var_d1*var_d3 - var_d2**2 scales exactly only when the square
    # is a correctly rounded product; libm's pow(x, 2) is one ulp off here
    @example(n=857, gamma=4.008949037411029, seed=857, kind="noise", closed=False, k=-2)
    def test_scaled_sequence_scales_heights_only(self, n, gamma, seed, kind, closed, k):
        """Multiplying y by 2**k is exact in floating point and every
        moment scales with it, so candidates, p-values and the selection
        are bit-identical and only heights and the height threshold scale,
        exactly.  Closed-form moments follow when sigma scales alike."""
        y = sequence(seed, n, kind)
        scale = 2.0 ** k

        def detect(values, sigma):
            model = NoiseModel(sigma, 2.0) if closed else None
            try:
                return detect_change_points(TimeSeries(values), gamma, 0.05, noise_model=model)
            except MomentEstimationError as exc:
                return exc

        base, scaled = detect(y, 1.0), detect(y * scale, scale)
        if isinstance(base, Exception) or isinstance(scaled, Exception):
            assert type(base) is type(scaled)
            return
        a, b = base.extrema, scaled.extrema
        assert np.array_equal(b.index, a.index)
        assert np.array_equal(b.sign, a.sign)
        assert np.array_equal(bits(b.height), bits(a.height * scale))
        assert np.array_equal(bits(b.p_value), bits(a.p_value))
        assert np.array_equal(scaled.outcome.rejected, base.outcome.rejected)
        assert scaled.outcome.u_threshold == base.outcome.u_threshold * scale


def tail_moments(sigma, k, nu, gamma):
    return closed_form_moments(NoiseModel(sigma * 2.0 ** k, nu), gamma)


def is_tail_crossing(u, p, moments):
    """Whether ``u`` is one end of adjacent floats ``lo < hi`` with
    ``tail(lo) > p >= tail(hi)``."""
    if peak_height_tail(u, moments) > p:
        return peak_height_tail(math.nextafter(u, math.inf), moments) <= p
    return peak_height_tail(math.nextafter(u, -math.inf), moments) > p


TAIL_MOMENTS = dict(sigma=st.floats(0.1, 10.0), k=st.integers(-30, 30),
                    nu=st.floats(0.0, 8.0), gamma=st.floats(0.5, 60.0))


class TestTailInversion:
    """The height threshold inverts the tail alone, by Newton steps on
    ``log tail`` with the secant through the last two iterates as slope,
    and ends on an adjacent-float crossing; the bracketed bisection it
    replaced is the oracle for its answers and its evaluation count."""

    @SETTINGS
    @given(p=st.floats(-12.0, math.log10(0.3)).map(lambda x: 10.0 ** x), **TAIL_MOMENTS)
    @example(p=1e-3, sigma=1.0, k=-7, nu=2.0, gamma=6.0)
    @example(p=0.3, sigma=1.0, k=12, nu=0.0, gamma=1.0)
    # the rounded tail goes above p again one float past bisection's crossing
    @example(p=0.27525503488577163, sigma=0.7163896279723009, k=0, nu=1.2037890725967193,
             gamma=9.328161329281249)
    def test_newton_equals_bisection(self, p, sigma, k, nu, gamma):
        """Up to p = 0.3 the secant-slope Newton steps land on bisection's
        answer bit for bit wherever the rounded tail decreases monotonically
        through the crossing, so that the adjacent-float crossing is unique.
        Where it does not (10 of 100,000 draws with p log-uniform, at p from
        0.05 up), both answers are crossings a few floats apart: two
        different ones imply that the rounded tail rises again between
        them."""
        m = tail_moments(sigma, k, nu, gamma)
        newton, bisection = invert_peak_height_tail(p, m), invert_tail_bisection(p, m)
        assert is_tail_crossing(newton, p, m)
        if bits(newton) != bits(bisection):
            assert is_tail_crossing(bisection, p, m)
            assert abs(newton - bisection) <= 8 * math.ulp(bisection)

    @SETTINGS
    @given(p=st.floats(-12.0, math.log10(0.3)).map(lambda x: 10.0 ** x), **TAIL_MOMENTS)
    def test_no_more_tail_calls_than_bisection(self, p, sigma, k, nu, gamma):
        """Up to p = 0.3, over the whole moment space, the inversion never
        evaluates the tail more often than bisection does (about 3 times
        against about 60), so no moment set makes it the slower method."""
        m = tail_moments(sigma, k, nu, gamma)
        calls = []

        def counting(u, moments):
            calls[-1] += 1
            return peak_height_tail(u, moments)

        with mock.patch.object(inference, "peak_height_tail", counting), \
                mock.patch.object(helpers, "peak_height_tail", counting):
            for invert in (invert_peak_height_tail, invert_tail_bisection):
                calls.append(0)
                invert(p, m)
        assert 0 < calls[0] <= calls[1]

    @SETTINGS
    @given(p=st.floats(0.3, 1.0, exclude_min=True, exclude_max=True), **TAIL_MOMENTS)
    def test_adjacent_float_crossing(self, p, sigma, k, nu, gamma):
        """Above p = 0.3, towards u = 0, the rounded tail stays flat or
        wobbles over more floats and bisection more often ends on another
        crossing; the answer is still an adjacent-float crossing."""
        m = tail_moments(sigma, k, nu, gamma)
        assert is_tail_crossing(invert_peak_height_tail(p, m), p, m)


@st.composite
def saturating_tails(draw):
    """Valid moments with derivative variances from 1e-100 to 1e100, and
    height magnitudes from 40 sd up to 1e308 and inf."""
    log_var = st.floats(-100.0, 100.0)
    var_d1, var_d3 = (10.0 ** draw(log_var) for _ in range(2))
    rho = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    try:
        moments = SpectralMoments(var_d1, rho * math.sqrt(var_d1 * var_d3), var_d3)
    except InvalidParameterError:  # var_d2 rounded to 0, or delta to <= 0
        reject()
    edge = 40.0 * moments.sd_d1
    magnitude = st.one_of(st.just(edge), st.floats(edge, 1e308), st.just(math.inf))
    return moments, draw(st.lists(magnitude, min_size=1, max_size=8))


class TestTailSaturation:
    @SETTINGS
    @given(case=saturating_tails())
    def test_saturated_beyond_40_sd(self, case):
        """From 40 sd out, the tail is exactly the smallest normal float on
        the right and 1.0 on the left, scalar and array alike, with no
        floating-point warning: a Gaussian factor there is exp(-800) == 0.0
        and a normal integral exactly 0 or 1, and an overflow past it moves
        nothing."""
        moments, magnitudes = case
        heights = np.array(magnitudes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            right, left = peak_height_tail(heights, moments), peak_height_tail(-heights, moments)
            scalars = [peak_height_tail(u, moments) for u in (*magnitudes, *(-heights).tolist())]
        expected = bits([np.finfo(float).tiny] * len(heights) + [1.0] * len(heights)).tolist()
        assert bits(np.concatenate((right, left))).tolist() == expected
        assert bits(scalars).tolist() == expected


class TestBHMonotoneInAlpha:
    @SETTINGS
    @given(
        p=st.lists(st.floats(1e-12, 1.0) | st.sampled_from([1e-4, 0.01, 0.05, 1.0]),
                   max_size=60),
        alphas=st.tuples(st.floats(1e-6, 1.0, exclude_max=True),
                         st.floats(1e-6, 1.0, exclude_max=True)),
    )
    def test_rejections_grow_with_alpha(self, p, alphas):
        low, high = sorted(alphas)
        assert set(bh_select(p, low).rejected) <= set(bh_select(p, high).rejected)


@st.composite
def spectral_moments(draw):
    """Valid moments with derivative variances from 1e-100 to 1e100."""
    log_var = st.floats(-100.0, 100.0)
    var_d1, var_d3 = (10.0 ** draw(log_var) for _ in range(2))
    rho = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    try:
        return SpectralMoments(var_d1, rho * math.sqrt(var_d1 * var_d3), var_d3)
    except InvalidParameterError:  # var_d2 rounded to 0, or delta to <= 0
        reject()


@st.composite
def heights(draw, moments):
    """Heights in units of the moments' sd: within a few sd, past the 40 sd
    where the tail saturates, beyond 1e154 sd where a square overflows,
    and the non-finite ones."""
    sd = moments.sd_d1
    scaled = st.one_of(st.floats(-6.0, 6.0), st.floats(-45.0, 45.0), st.floats(40.0, 1e200),
                       st.floats(-1e200, -40.0), st.floats(1e154, 1e300))
    special = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
    return draw(st.lists(scaled.map(lambda x: x * sd) | special, max_size=40))


@st.composite
def scoring_inputs(draw):
    """Detections of mixed sign, in any order and with repeats, against no
    jumps or jumps of both signs at integer, quarter or arbitrary
    locations; tolerances unsorted, with repeats and the distances
    themselves."""
    length = 200
    steps = draw(st.lists(st.integers(4, 4 * length), max_size=14, unique=True))
    floats = draw(st.lists(st.floats(1.0, float(length)), max_size=3))
    locations = sorted(set([q / 4.0 for q in steps] + floats))
    sizes = draw(st.lists(st.sampled_from([-1.5, -1.0, 0.5, 2.0]),
                          min_size=len(locations), max_size=len(locations)))
    index = draw(st.lists(st.integers(1, length), max_size=30))
    sign = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(index), max_size=len(index)))
    distances = [abs(i - v) for i in index for v in locations if 0 < abs(i - v) < 40]
    grid_b = st.one_of(st.floats(0.25, 30.0), st.sampled_from([0.5, 1.0, 2.0, math.inf]),
                       *([st.sampled_from(distances)] if distances else []))
    tolerances = draw(st.lists(grid_b, max_size=9))
    return index, sign, tuple(zip(locations, sizes)), tuple(tolerances)


class TestStagesEqualTheirFormerCode:
    """The selection stages and the scorer, cut to fewer and larger numpy
    calls, against their former code kept in ``helpers``: bit for bit on
    int64 views, dtype for dtype, and refusing the same inputs."""

    @SETTINGS
    @given(
        runs=st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 9)), max_size=30),
        noise=st.integers(0, 2**32 - 1) | st.none(),
        cut=st.tuples(st.integers(0, 300), st.integers(0, 300)),
    )
    @example(runs=[], noise=None, cut=(0, 0))  # empty
    @example(runs=[(1, 40)], noise=None, cut=(0, 300))  # constant: no candidates
    @example(runs=[(0, 5), (1, 5), (0, 5), (-1, 5), (0, 5)], noise=None, cut=(0, 300))  # zeros
    @example(runs=[(1, 1), (2, 1), (3, 1), (4, 1)], noise=None, cut=(0, 300))  # monotone
    def test_extraction(self, runs, noise, cut):
        """Sequences of plateaus, with exact zeros, with no candidates at
        all, and the same plateaus with noise added to some of them."""
        y = np.repeat([float(v) for v, _ in runs], [n for _, n in runs])
        if noise is not None:  # noise on some samples breaks some plateaus
            rng = np.random.default_rng(noise)
            y += np.where(rng.random(len(y)) < 0.3, rng.standard_normal(len(y)), 0.0)
        lo, hi = sorted(min(c, len(y)) for c in cut)
        dy = TimeSeries(y, interior=(lo, hi))
        found, former = find_local_extrema(dy), helpers.find_local_extrema_ties(dy)
        for name in FIELDS:
            mine, theirs = getattr(found, name), getattr(former, name)
            assert mine.dtype == theirs.dtype, name
            assert np.array_equal(mine.view(np.int64), theirs.view(np.int64)), name

    @SETTINGS
    @given(data=st.data(), moments=spectral_moments())
    @example(data=None, moments=SpectralMoments(1.0, 0.5, 1.0))
    def test_tail_array_and_scalar(self, data, moments):
        """Random valid moments and heights from the centre to past 1e154
        sd, inf and NaN: the array call equals the former code's, and each
        scalar call equals the array call's element."""
        u = (data.draw(heights(moments)) if data is not None
             else [0.0, -0.0, 40.0, -1e155, 1e300, math.inf, -math.inf, math.nan])
        array = peak_height_tail(np.array(u, dtype=float), moments)
        former = helpers.peak_height_tail_ufuncs(np.array(u, dtype=float), moments)
        assert array.dtype == former.dtype == np.float64
        assert bits(array).tolist() == bits(former).tolist()
        scalars = [peak_height_tail(x, moments) for x in u]
        assert all(type(x) is float for x in scalars)
        assert bits(scalars).tolist() == bits(array).tolist()

    @SETTINGS
    @given(
        p=st.lists(st.floats(1e-300, 1.0) | st.sampled_from([1e-4, 0.01, 0.05, 1.0])
                   | st.floats(0.0, 1e-3), max_size=80),
        alpha=st.floats(1e-6, 1.0, exclude_max=True) | st.sampled_from([0.01, 0.05, 0.5]),
        spoil=st.sampled_from([None, 0.0, -0.5, 1.5, math.nan, math.inf]),
    )
    # 11*(0.05/11) rounds above 0.05, so a p-value of 0.05 passes the 11th bound
    @example(p=[i * 0.05 / 22 for i in range(1, 11)] + [0.05], alpha=0.05, spoil=None)
    def test_step_up(self, p, alpha, spoil):
        """Step-up selection, p-values on the bounds ``i*(alpha/m)``, on the
        thresholds ``i*alpha/m`` and ties included; a zero, negative, too
        large or NaN p-value is refused by both."""
        if spoil is not None:
            p = p + [spoil]
        third = len(p) // 3
        p[:third] = [min(1.0, (i + 1) * (alpha / len(p))) for i in range(third)]
        p[third : 2 * third] = [min(1.0, (i + 1) * alpha / len(p)) for i in range(third)]
        outcomes = []
        for select in (bh_select, helpers.bh_select_full_sort):
            try:
                outcomes.append(select(p, alpha))
            except InvalidParameterError as exc:
                outcomes.append(str(exc))
        mine, former = outcomes
        if isinstance(former, str):
            assert mine == former
            return
        assert (mine.k, bits(mine.p_threshold).tolist()) == (former.k,
                                                            bits(former.p_threshold).tolist())
        assert mine.rejected.dtype == former.rejected.dtype
        assert np.array_equal(mine.rejected, former.rejected)
        assert not mine.rejected.flags.writeable

    @settings(SETTINGS, max_examples=200)
    @given(case=scoring_inputs())
    @example(case=([15, 15, 25], [1, -1, -1], ((10.0, 1.0), (20.0, -2.0), (30.0, 0.5)),
                   (5.0, 5.5, 0.5)))
    @example(case=([], [], (), (3.0,)))
    def test_scoring(self, case):
        """Realized FDP and power rows with mixed signs, jumps of both
        signs or none, and any tolerances: equal to the former code's."""
        index, sign, jumps, tolerances = case
        detections = extrema_of(index, [float(s) for s in sign], sign)
        truth = PiecewiseSignal(jumps, 200)
        mine = classify(detections, truth, tolerances)
        former = helpers.classify_window_matrix(detections, truth, tolerances)
        assert mine.dtype == former.dtype == np.float64 and mine.shape == former.shape
        assert bits(mine).tolist() == bits(former).tolist()


class TestStepSignal:
    @SETTINGS
    @given(
        gaps=st.lists(st.floats(0.25, 40.0), max_size=12),
        first=st.floats(-5.0, 60.0),
        sizes=st.lists(
            st.floats(-1e3, 1e3, allow_nan=False).filter(lambda a: a != 0.0), min_size=12,
            max_size=12,
        ),
        length=st.integers(1, 300),
    )
    def test_sample_equals_jump_loop(self, gaps, first, sizes, length):
        locations = first + np.cumsum([0.0] + gaps)
        jumps = tuple(zip(locations.tolist(), sizes))
        mine = PiecewiseSignal(jumps, length).mean
        assert np.array_equal(bits(mine), bits(step_signal_loop(jumps, length)))


@st.composite
def sequence_csv(draw):
    """A one- or two-column input file as the command line accepts it:
    optional header, values in several spellings, labels that need csv
    quoting, comment and blank lines anywhere, LF or CRLF line ends."""
    width = draw(st.integers(1, 2))
    n = draw(st.integers(12, 40))
    lines = []
    if draw(st.booleans()):
        lines.append("value" if width == 1 else draw(st.sampled_from(["position,value", "pos,ratio"])))
    for _ in range(n):
        x = draw(st.floats(-1e6, 1e6))
        spelling = draw(st.sampled_from(["repr", "%.17g", "int", "exp", "plus", "spaces", "quoted"]))
        value = {
            "repr": repr(x),
            "%.17g": "%.17g" % x,
            "int": "%d" % x,
            "exp": "%.6E" % x,
            "plus": "+" + repr(abs(x)),
            "spaces": " \t%r " % x,
            "quoted": '"%r"' % x,
        }[spelling]
        if width == 2:
            label = draw(st.text(st.sampled_from('ab1 ,"-:#'), max_size=6))
            field = io.StringIO()
            csv.writer(field, lineterminator="").writerow([label])
            value = f"{field.getvalue()},{value}"
        lines.append(value)
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "# note", "  # a, b", "#"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return width, eol, eol.join(lines) + draw(st.sampled_from(["", eol]))


def malformed(width, eol, text, defect):
    """``text`` spoilt the way a rejected input is: a row of another width
    late in the file, a non-numeric or non-finite last row, or nothing but
    a header or comments."""
    tail = {
        "width": "1.5,2.5,3.5" if width == 2 else "a,2.5",
        "non_numeric": "oops" if width == 1 else "a,oops",
        "nan": "nan" if width == 1 else "a,nan",
        "inf": "-inf" if width == 1 else "a,inf",
    }
    if defect == "header_only":
        return "position,value" + eol + "# no data" + eol
    if defect == "comments_only":
        return "# one" + eol + eol + "  # two" + eol
    return text + eol + tail[defect] + eol


def read_with(reader, path):
    try:
        return reader(path)
    except InputDataError as exc:
        return exc


class TestCsvAgainstRowCode:
    @SETTINGS
    @given(file=sequence_csv())
    @example(file=(2, "\r\n", '"a,1",2.5\r\n# c\r\n\r\n"x""y", 1e3 \r\n' * 6))
    def test_reads_and_writes_as_row_code(self, file, tmp_path_factory):
        text = file[2]
        path = tmp_path_factory.mktemp("csv") / "in.csv"
        path.write_bytes(text.encode())
        old = read_with(read_sequence_csv_rows, str(path))
        new = read_with(read_sequence_csv, str(path))
        if isinstance(old, InputDataError):
            assert isinstance(new, InputDataError)
            return
        (old_values, old_positions), (values, positions) = old, new
        assert np.array_equal(bits(values), bits(old_values))
        assert (positions is None) == (old_positions is None)
        if positions is not None:
            assert list(positions) == old_positions
        if len(values) < 9:
            return  # shorter than the gamma = 1 kernel

        result = detect_change_points(TimeSeries(values), 1.0, 0.5,
                                      noise_model=NoiseModel(1.0, 2.0))
        out_old, out_new = path.with_suffix(".old"), path.with_suffix(".new")
        write_detection_csv_records(str(out_old), result, old_positions, "closed")
        write_detection_csv(str(out_new), result, positions, "closed")
        assert out_new.read_bytes() == out_old.read_bytes()

    @SETTINGS
    @given(file=sequence_csv(),
           defect=st.sampled_from(["width", "non_numeric", "nan", "inf",
                                   "header_only", "comments_only"]))
    def test_rejects_as_row_code(self, file, defect, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "in.csv"
        path.write_bytes(malformed(*file, defect).encode())
        for reader in (read_sequence_csv_rows, read_sequence_csv):
            with pytest.raises(InputDataError):
                reader(str(path))

    @SETTINGS
    @given(file=sequence_csv(), chunk=st.integers(1, 120),
           defect=st.sampled_from([None, "width", "non_numeric", "nan", "inf"]))
    def test_piece_size_changes_nothing(self, file, chunk, defect, tmp_path_factory):
        """Values, labels and the error message, line number included, are
        those of the file read as one piece."""
        path = tmp_path_factory.mktemp("csv") / "in.csv"
        path.write_bytes((file[2] if defect is None else malformed(*file, defect)).encode())

        def outcome():
            result = read_with(read_sequence_csv, str(path))
            if isinstance(result, InputDataError):
                return str(result)
            values, positions = result
            return bits(values).tolist(), positions and list(positions)

        whole = outcome()
        with mock.patch.object(cli, "_CHUNK", chunk):
            assert outcome() == whole
