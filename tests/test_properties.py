"""Property tests: the array-native detection core against plain-loop oracles.

Smoothing must reproduce the pairwise loop bit for bit (the golden fixture
depends on its summation order), extrema extraction must agree with a
run-by-run scan, and ``Extrema`` must behave as the sequence of
``Extremum`` records it stands for.  The whole detector must map a sequence
reversed and negated to its own result mirrored.
"""

import numpy as np
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
    compose,
    detect_change_points,
    find_local_extrema,
    kernel_weights,
    make_staircase,
    sample_noise,
    smooth,
)
from stemcpd.detect import convolve_weights

from helpers import convolve_weights_pairwise, extrema_scan, step_signal_loop

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


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
        assert np.array_equal(bits(mine), bits(convolve_weights_pairwise(y, weights)))

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
        assert np.array_equal(bits(mine), bits(convolve_weights_pairwise(y, weights, 1.0)))


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


records = st.lists(
    st.builds(
        Extremum,
        index=st.integers(-10**6, 10**6),
        height=st.floats(allow_nan=False, allow_infinity=False),
        sign=st.sampled_from([1, -1]),
        p_value=st.floats(1e-300, 1.0),
    ),
    max_size=40,
)


class TestExtremaRecords:
    @SETTINGS
    @given(recs=records, keep_p=st.booleans())
    def test_record_round_trip(self, recs, keep_p):
        if not keep_p:
            recs = [Extremum(e.index, e.height, e.sign) for e in recs]
        ex = Extrema.from_records(recs)
        assert len(ex) == len(recs)
        assert list(ex) == recs and ex == recs and ex == tuple(recs)
        assert [ex[i] for i in range(-len(recs), len(recs))] == recs + recs
        back = Extrema.from_records(list(ex))
        for name in ("index", "height", "sign"):
            assert np.array_equal(getattr(back, name), getattr(ex, name))
        assert np.array_equal(bits(back.height), bits([e.height for e in recs]))
        if recs:
            assert (back.p_value is None) == (not keep_p)
        assert all(type(e.index) is int and type(e.height) is float and type(e.sign) is int
                   for e in ex)

    @SETTINGS
    @given(recs=records, start=st.integers(-45, 45), stop=st.integers(-45, 45),
           step=st.sampled_from([None, 1, 2, 3, -1, -2]), picks=st.lists(st.integers(0, 39)))
    def test_slices_and_index_arrays(self, recs, start, stop, step, picks):
        ex = Extrema.from_records(recs)
        part = ex[start:stop:step]
        assert isinstance(part, Extrema)
        assert part == recs[start:stop:step]
        picks = [i for i in picks if i < len(recs)]
        assert ex[picks] == [recs[i] for i in picks]
        assert ex[np.array(picks, dtype=np.int64)] == [recs[i] for i in picks]
        assert ex[()] == [] and len(ex[[]]) == 0
        if recs:
            changed = list(recs)
            changed[-1] = Extremum(changed[-1].index + 1, changed[-1].height, changed[-1].sign,
                                   changed[-1].p_value)
            assert ex != changed
            assert ex != recs[:-1]

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), jump=st.floats(0.5, 3.0),
           gamma=st.sampled_from([2.0, 4.0, 6.0]))
    def test_significant_is_the_rejected_subset(self, seed, jump, gamma):
        model = NoiseModel(1.0, 2.0)
        y = compose(make_staircase(jump, 100, 3000), sample_noise(model, 3000, seed))
        res = detect_change_points(y, gamma, 0.05, noise_model=model)
        sig = res.significant
        assert isinstance(sig, Extrema)
        assert sig == [res.extrema[i] for i in res.outcome.rejected]
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
        mine = PiecewiseSignal(jumps, length).sample().values
        assert np.array_equal(bits(mine), bits(step_signal_loop(jumps, length)))
