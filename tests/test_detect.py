"""Tests for differential smoothing and extrema extraction."""

import tracemalloc

import numpy as np
import pytest

from stemcpd import (
    Extremum,
    InvalidParameterError,
    KernelSpec,
    NoiseModel,
    TimeSeries,
    find_local_extrema,
    kernel_weights,
    make_staircase,
    null_max_rate,
    closed_form_moments,
    sample_noise,
    smooth,
)
from stemcpd.detect import _RECORD_CHUNK
from stemcpd.kernels import _BLOCK, convolve_weights

from helpers import center_tap, dense_staircase, extrema_of, gauss_kernel_at


def series(values, **kw):
    return TimeSeries(np.asarray(values, dtype=float), **kw)


class TestConvolveWeights:
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_matches_numpy_convolve(self, order):
        rng = np.random.default_rng(42)
        y = rng.standard_normal(300)
        w = kernel_weights(KernelSpec(gamma=3.5, order=order))
        mine = convolve_weights(y, w)
        ref = np.convolve(y, w, mode="same")
        k = len(w) // 2
        assert mine[k:-k] == pytest.approx(ref[k:-k], abs=1e-12)

    def test_exact_zero_on_constant_input(self):
        y = np.full(200, 3.7)
        w = kernel_weights(KernelSpec(gamma=6.0, order=1))
        out = convolve_weights(y, w)
        k = len(w) // 2
        assert np.all(out[k:-k] == 0.0)

    def test_refuses_weights_neither_symmetric_nor_antisymmetric(self):
        # pairing [1, 2, 3] as symmetric gave 14, 38, 78 on t**2 where
        # np.convolve gives 6, 20, 46
        y = np.arange(1.0, 11.0) ** 2
        with pytest.raises(InvalidParameterError, match="symmetric or antisymmetric"):
            convolve_weights(y, np.array([1.0, 2.0, 3.0]))


class TestSmoothDerivative:
    def test_single_step_becomes_kernel_bump(self):
        """An isolated jump of size a maps to a bump of height about
        a*w(0) peaking at the jump location."""
        gamma, v, a, n = 6.0, 120, 2.0, 260
        y = series(a * (np.arange(1, n + 1) >= v))
        dy = smooth(y, KernelSpec(gamma=gamma, order=1))
        lo, hi = dy.interior
        seg = dy.values[lo:hi]
        peak_at = lo + int(np.argmax(seg)) + 1  # grid location
        assert abs(peak_at - v) <= 1
        expected_height = a * center_tap(KernelSpec(gamma=gamma))
        assert seg.max() == pytest.approx(expected_height, rel=0.01)

    def test_constant_input_is_identically_zero(self):
        y = series(np.full(300, 5.0))
        dy = smooth(y, KernelSpec(gamma=6.0, order=1))
        assert np.max(np.abs(dy.values[dy.interior_slice()])) <= 1e-12
        assert len(find_local_extrema(dy)) == 0

    def test_two_distant_steps_superpose(self):
        """Two well-separated jumps produce the sum of two shifted kernel
        bumps (checked against analytic kernel evaluations)."""
        gamma = 4.0
        n = 400
        t = np.arange(1, n + 1)
        a1, v1, a2, v2 = 1.5, 120, -2.5, 280
        y = series(a1 * (t >= v1) + a2 * (t >= v2))
        dy = smooth(y, KernelSpec(gamma=gamma, order=1))
        expected = (a1 * gauss_kernel_at(t - v1 + 0.5, gamma)
                    + a2 * gauss_kernel_at(t - v2 + 0.5, gamma))
        sl = dy.interior_slice()
        assert np.max(np.abs(dy.values[sl] - expected[sl])) < 3e-4 * max(abs(a1), abs(a2))

    def test_series_shorter_than_kernel(self):
        with pytest.raises(InvalidParameterError, match="shorter than the kernel"):
            smooth(series(np.zeros(30)), KernelSpec(gamma=6.0, order=1))

    def test_interior_annotation(self):
        dy = smooth(series(np.zeros(100)), KernelSpec(gamma=3.0, order=1))
        assert dy.interior == (12, 88)

    def test_traced_peak_is_the_output_and_term_buffer(self):
        """Smoothing allocates its output, one block of terms and nothing
        else of size n: at n = 1e6 and gamma 6 the convolution's traced
        peak is 8 bytes per sample plus the term buffer (a zero-padded copy
        of the input took 16.3 MB), and so is the smooth's, since
        ``TimeSeries`` checks finiteness by ``min`` and ``max``, which
        allocate no mask (a one-byte mask per sample took 9 bytes per
        sample)."""
        y = dense_staircase()
        n = len(y)
        spec = KernelSpec(gamma=6.0, order=1)
        weights = kernel_weights(spec)
        tracemalloc.start()
        try:
            convolve_weights(y.values, weights)
            convolve_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            smooth(y, spec)
            smooth_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert convolve_peak <= 8 * n + 8 * _BLOCK + 65536
        assert smooth_peak <= 8 * n + 8 * _BLOCK + 65536


class TestFindLocalExtrema:
    def test_single_maximum(self):
        out = find_local_extrema(series([0.0, 1.0, 0.0]))
        assert (out.index.tolist(), out.height.tolist(), out.sign.tolist()) == ([2], [1.0], [1])

    def test_plateau_reports_leftmost(self):
        out = find_local_extrema(series([0.0, 1.0, 1.0, 0.0]))
        assert (out.index.tolist(), out.sign.tolist()) == ([2], [1])

    def test_minimum_plateau(self):
        out = find_local_extrema(series([0.0, -1.0, -1.0, 0.0]))
        assert (out.index.tolist(), out.sign.tolist()) == ([2], [-1])

    def test_monotone_has_no_extrema(self):
        assert len(find_local_extrema(series([0.0, 1.0, 2.0, 3.0]))) == 0

    def test_zero_plateau_is_skipped(self):
        # exact-zero segments never count, even when flanked by larger values
        out = find_local_extrema(series([0.5, 0.0, 0.0, 0.0, 0.7]))
        assert len(out) == 0

    def test_short_interior_has_no_pvalues(self):
        # every empty candidate set holds its p-values as an empty array
        for dy in (series([0.0, 1.0]), TimeSeries(np.arange(9.0), interior=(4, 6)),
                   series(np.full(5, 2.0))):
            out = find_local_extrema(dy)
            assert len(out) == 0
            assert out.p_value.shape == (0,)
            assert (out.index.dtype, out.height.dtype, out.sign.dtype, out.p_value.dtype) == (
                np.int64, np.float64, np.int64, np.float64)

    def test_interior_restriction(self):
        vals = np.zeros(20)
        vals[1] = 5.0  # outside interior
        vals[10] = 1.0
        dy = TimeSeries(vals, interior=(4, 16))
        out = find_local_extrema(dy)
        assert out.index.tolist() == [11]

    def test_sign_symmetry(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(500)
        plus = find_local_extrema(series(vals))
        minus = find_local_extrema(series(-vals))
        assert np.array_equal(plus.index, minus.index)
        assert np.array_equal(-plus.sign, minus.sign)
        assert minus.height == pytest.approx(-plus.height)

    def test_alternation(self):
        noise = sample_noise(NoiseModel(1.0, 2.0), 20_000, seed=13)
        dy = smooth(noise, KernelSpec(gamma=6.0, order=1))
        signs = find_local_extrema(dy).sign
        assert np.all(signs[1:] != signs[:-1])

    def test_no_extremum_near_boundary(self):
        noise = sample_noise(NoiseModel(1.0, 2.0), 5_000, seed=14)
        spec = KernelSpec(gamma=6.0, order=1)
        dy = smooth(noise, spec)
        k = spec.half_width()
        at = find_local_extrema(dy).index - 1
        assert np.all((k + 1 <= at) & (at <= len(noise) - k - 2))

    def test_traced_peak_at_most_five_and_a_half_bytes_per_sample(self):
        """Extraction keeps its full-length temporaries boolean and drops
        each after its last use: on the paper staircase at n = 1e6 and
        gamma 6 (about 70k candidates, whose returned arrays take 2.26
        bytes per sample) its traced peak stays under 5.5 bytes per sample
        (5.04 measured; keeping either ``up`` or ``moves`` to the end reads
        6.04, every mask 7.04, and a run start and a run value per sample
        took 21.8)."""
        y = dense_staircase()
        n = len(y)
        dy = smooth(y, KernelSpec(gamma=6.0, order=1))
        tracemalloc.start()
        try:
            found = find_local_extrema(dy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(found) > 50_000
        assert peak <= 5.5 * n

    def test_null_extrema_count_matches_analytic_rate(self):
        """On pure noise the extrema count per unit matches twice the
        analytic local-maxima rate."""
        model = NoiseModel(1.0, 2.0)
        gamma = 6.0
        noise = sample_noise(model, 100_000, seed=15)
        dy = smooth(noise, KernelSpec(gamma=gamma, order=1))
        extrema = find_local_extrema(dy)
        lo, hi = dy.interior
        rate = len(extrema) / (hi - lo)
        expected = 2.0 * null_max_rate(closed_form_moments(model, gamma))
        assert rate == pytest.approx(expected, rel=0.03)


class TestExtremaIteration:
    @pytest.mark.parametrize("length", [0, 1, _RECORD_CHUNK - 1, _RECORD_CHUNK,
                                        _RECORD_CHUNK + 1, 2 * _RECORD_CHUNK + 3])
    def test_records_across_chunk_boundaries(self, length):
        """Iteration converts the arrays a chunk at a time and yields the
        same three-field records, in the same order, as converting them
        whole."""
        rng = np.random.default_rng(length)
        ex = extrema_of(np.cumsum(rng.integers(1, 9, length)), rng.standard_normal(length),
                        rng.choice([-1, 1], length), rng.uniform(size=length))
        eager = list(map(Extremum, ex.index.tolist(), ex.height.tolist(), ex.sign.tolist()))
        assert list(ex) == eager
        assert len(eager) == length

    @pytest.mark.parametrize("key", [3, np.int64(3), np.array(3), -1])
    def test_integer_key_is_refused(self, key):
        ex = extrema_of(np.arange(10), np.ones(10), np.ones(10, dtype=np.int64))
        with pytest.raises(TypeError, match="a slice, an index array or a mask"):
            ex[key]

    def test_traced_peak_is_one_chunk_of_records(self):
        """Walking the about 70k candidates of the paper staircase at
        n = 1e6 holds one chunk of Python numbers at a time: its traced
        peak stays under 1 MB (0.33 measured; converting the three record
        columns whole took 5.7)."""
        found = find_local_extrema(smooth(dense_staircase(), KernelSpec(gamma=6.0, order=1)))
        tracemalloc.start()
        try:
            walked = 0
            for e in found:
                walked += 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert walked == len(found) > 50_000
        assert peak <= 1_000_000


class TestNoiselessRecovery:
    @pytest.mark.parametrize("gamma", [2.0, 6.0, 10.0])
    @pytest.mark.parametrize("jump", [2.0, -1.5])
    def test_staircase_recovered_exactly(self, gamma, jump):
        sep = int(2 * 4.0 * gamma) + 20
        length = 12 * sep
        sig = make_staircase(jump, sep, length)
        dy = smooth(TimeSeries(sig.mean), KernelSpec(gamma=gamma, order=1))
        extrema = find_local_extrema(dy)
        want_sign = 1 if jump > 0 else -1
        assert len(extrema) == sig.n_jumps
        assert np.all(np.abs(extrema.index - sig.locations) <= 1)
        assert np.all(extrema.sign == want_sign)


class TestSmoothOrderZero:
    def test_smooths_toward_local_mean(self):
        rng = np.random.default_rng(21)
        y = series(rng.standard_normal(2000) + 5.0)
        sm = smooth(y, KernelSpec(gamma=10.0, order=0))
        seg = sm.values[sm.interior_slice()]
        assert seg.mean() == pytest.approx(5.0, abs=0.05)
        assert seg.var() < y.values.var() / 10
