"""Property tests: the array-native detection core against plain-loop oracles.

Smoothing must reproduce the pairwise loop bit for bit (the golden fixture
depends on its summation order), extrema extraction must agree with a
run-by-run scan, and ``Extrema`` must behave as the sequence of
``Extremum`` records it stands for.  ``TimeSeries`` must accept exactly the
finite arrays.  The whole detector must map a sequence
reversed and negated to its own result mirrored, and a sequence scaled by
a power of two to its own result with only the heights scaled.
The tail inversion must land on the bracketed bisection's adjacent-float
crossing, with no more tail evaluations.  Benjamini-Hochberg rejections can only grow with
the level.  The command line's CSV
reader and writer must read and write exactly what the row-by-row code
they replaced did, and the reader must read, and refuse, the same at any
piece size.
"""

import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stemcpd import (
    Extrema,
    Extremum,
    KernelSpec,
    MomentEstimationError,
    NoiseModel,
    PiecewiseSignal,
    TimeSeries,
    bh_select,
    closed_form_moments,
    compose,
    detect_change_points,
    find_local_extrema,
    invert_peak_height_tail,
    kernel_weights,
    make_staircase,
    peak_height_tail,
    sample_noise,
    smooth,
)
from stemcpd import InvalidParameterError, cli, inference, signals
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
        block=st.sampled_from([1, 2, 3, signals._FINITE_BLOCK]),
    )
    @example(body=[], end=None, first=False, block=signals._FINITE_BLOCK)
    @example(body=[1.0, 2.0], end=math.nan, first=True, block=signals._FINITE_BLOCK)
    @example(body=[1.0, 2.0], end=math.inf, first=False, block=signals._FINITE_BLOCK)
    @example(body=[1.0, 2.0], end=-math.inf, first=True, block=2)
    @example(body=[-0.0], end=None, first=False, block=signals._FINITE_BLOCK)
    @example(body=[1e308, 1e308], end=None, first=False, block=signals._FINITE_BLOCK)
    @example(body=[-1e308, -1e308], end=1e308, first=False, block=3)
    def test_refuses_what_isfinite_refuses(self, body, end, first, block):
        """``TimeSeries`` accepts exactly the arrays whose samples are all
        finite, whatever the block size of its check: a non-finite first or
        last sample is refused, and signed zeros and samples whose sum
        overflows are accepted."""
        if end is not None:
            body = [end] + body if first else body + [end]
        values = np.array(body, dtype=float)
        with mock.patch.object(signals, "_FINITE_BLOCK", block):
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
        assert [(e.index, e.height, e.sign) for e in found] == want
        assert all(type(e.index) is int and type(e.height) is float for e in found)

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
        assert [(e.index, e.height, e.sign) for e in found] == want

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
        for name in ("index", "height", "sign", "p_value"):
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
        index, height, sign, p_value = columns
        ex = extrema_of(*columns)
        p = [math.nan] * len(index) if p_value is None else p_value
        recs = [Extremum(*fields) for fields in zip(index, height, sign, p)]
        assert len(ex) == len(recs)
        # by repr: a NaN p-value is unequal to itself
        assert repr(list(ex)) == repr(recs)
        assert repr([ex[i] for i in range(-len(recs), len(recs))]) == repr(recs + recs)
        assert np.array_equal(bits([e.height for e in ex]), bits(height))
        assert all(type(e.index) is int and type(e.height) is float and type(e.sign) is int
                   and type(e.p_value) is float for e in ex)

    @SETTINGS
    @given(columns=extrema_columns(), start=st.integers(-45, 45), stop=st.integers(-45, 45),
           step=st.sampled_from([None, 1, 2, 3, -1, -2]), picks=st.lists(st.integers(0, 39)),
           mask_bits=st.integers(0, 2**40 - 1))
    def test_slices_and_index_arrays(self, columns, start, stop, step, picks, mask_bits):
        ex = extrema_of(*columns)
        recs = list(ex)
        part = ex[start:stop:step]
        assert isinstance(part, Extrema)
        # by repr: a NaN p-value is unequal to itself
        assert repr(list(part)) == repr(recs[start:stop:step])
        picks = [i for i in picks if i < len(recs)]
        assert repr(list(ex[picks])) == repr([recs[i] for i in picks])
        assert repr(list(ex[np.array(picks, dtype=np.int64)])) == repr([recs[i] for i in picks])
        mask = np.array([(mask_bits >> i) & 1 for i in range(len(recs))], dtype=bool)
        assert repr(list(ex[mask])) == repr([r for r, keep in zip(recs, mask) if keep])
        assert len(ex[()]) == 0 and len(ex[[]]) == 0

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), jump=st.floats(0.5, 3.0),
           gamma=st.sampled_from([2.0, 4.0, 6.0]))
    def test_significant_is_the_rejected_subset(self, seed, jump, gamma):
        model = NoiseModel(1.0, 2.0)
        y = compose(make_staircase(jump, 100, 3000), sample_noise(model, 3000, seed))
        res = detect_change_points(y, gamma, 0.05, noise_model=model)
        sig = res.significant
        assert isinstance(sig, Extrema)
        assert list(sig) == [res.extrema[i] for i in res.outcome.rejected]
        rejected = set(res.outcome.rejected)
        assert list(sig) == [e for i, e in enumerate(res.extrema) if i in rejected]
        assert np.all(np.diff(sig.index) > 0)
        assert all(e.p_value is not None for e in sig)


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
