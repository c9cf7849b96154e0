"""Tests for signal construction and noise generation."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from stemcpd import (
    InvalidParameterError,
    KernelSpec,
    NoiseModel,
    PiecewiseSignal,
    TimeSeries,
    kernel_weights,
    make_staircase,
    sample_noise,
)

from helpers import convolve_weights_pairwise, noise_kernel, staircase_scan


class TestTimeSeries:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParameterError):
            TimeSeries(np.array([1.0, np.nan]))

    @pytest.mark.parametrize("at", [0, 65535, 65536, 196612])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_in_any_block(self, at, bad):
        """A non-finite sample is refused wherever it sits in 196,613
        samples, the first and the last included."""
        values = np.ones(196613)
        TimeSeries(values)
        values[at] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            TimeSeries(values)

    def test_traced_validation_is_one_block(self):
        """Checking 1e6 float64 samples allocates at most 64 KiB, not one
        byte per sample."""
        values = np.random.default_rng(3).standard_normal(1_000_000)
        tracemalloc.start()
        try:
            TimeSeries(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 65536


class TestPiecewiseSignal:
    def test_requires_increasing_locations(self):
        with pytest.raises(InvalidParameterError):
            PiecewiseSignal(((10.0, 1.0), (10.0, 1.0)), 100)

    def test_requires_nonzero_sizes(self):
        with pytest.raises(InvalidParameterError):
            PiecewiseSignal(((10.0, 0.0),), 100)

    @pytest.mark.parametrize("jumps", [
        (1, 2), ((1.0, 2.0, 3.0),), ((1.0, 2.0), (3.0,)), (("a", 1.0),), 5.0,
        ((math.nan, 1.0), (50.0, math.inf)), ((10.0, math.inf),), ((-math.inf, 1.0),),
    ])
    def test_refuses_malformed_and_non_finite_pairs(self, jumps):
        with pytest.raises(InvalidParameterError):
            PiecewiseSignal(jumps, 100)

    def test_empty_signal_allowed(self):
        sig = PiecewiseSignal((), 50)
        assert sig.n_jumps == 0
        assert np.array_equal(sig.mean, np.zeros(50))
        assert sig.min_separation() == math.inf

    def test_truth_arrays_built_once_and_read_only(self):
        sig = make_staircase(2.0, 15, 60)
        assert sig.locations is sig.locations and sig.sizes is sig.sizes
        for arr in (sig.locations, sig.sizes):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert sig.min_separation() == 15.0
        # the sampled mean is built on first use, then shared by every caller
        assert "mean" not in vars(sig)
        assert sig.mean is sig.mean
        with pytest.raises(ValueError):
            sig.mean[0] = 1.0
        assert np.array_equal(sig.mean, 2.0 * np.minimum(np.arange(1, 61) // 15, 3))

    def test_sample_steps_at_locations(self):
        sig = PiecewiseSignal(((3.0, 2.0), (6.0, -1.0)), 8)
        assert np.array_equal(sig.mean, [0, 0, 2, 2, 2, 1, 1, 1])


class TestMakeStaircase:
    def test_paper_scale_grid(self):
        sig = make_staircase(1.0, 100, 12000)
        assert sig.n_jumps == 119
        assert np.array_equal(sig.locations, np.arange(100, 12000, 100))
        assert np.all(sig.sizes == 1.0)

    def test_small_grid(self):
        sig = make_staircase(2.0, 15, 60)
        assert np.array_equal(sig.locations, [15, 30, 45])
        assert np.all(sig.sizes == 2.0)

    def test_single_change_point(self):
        sig = make_staircase(3.0, 100, 150)
        assert np.array_equal(sig.locations, [100.0])

    @pytest.mark.parametrize("length,sep", [(150, 100), (157, 13), (12001, 100), (997, 15)])
    def test_matches_bruteforce_scan(self, length, sep):
        sig = make_staircase(1.5, sep, length)
        assert list(sig.locations) == staircase_scan(1.5, sep, length)

    def test_sample_matches_floor_formula(self):
        a, d, length = 2.5, 13, 157
        sig = make_staircase(a, d, length)
        t = np.arange(1, length + 1)
        assert np.array_equal(sig.mean, a * (t // d))

    def test_zero_jump_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_staircase(0.0, 100, 1000)

    def test_bad_separation_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_staircase(1.0, 1, 1000)
        with pytest.raises(InvalidParameterError):
            make_staircase(1.0, 100, 100)


class TestNoise:
    def test_white_noise_convention(self):
        out = sample_noise(NoiseModel(sigma=2.0, nu=0.0), 5, seed=11)
        expected = 2.0 * np.random.default_rng(11).standard_normal(5)
        assert np.array_equal(out.values, expected)

    def test_determinism(self):
        model = NoiseModel(sigma=1.0, nu=2.0)
        a = sample_noise(model, 1000, seed=3)
        b = sample_noise(model, 1000, seed=3)
        assert np.array_equal(a.values, b.values)
        c = sample_noise(model, 1000, seed=4)
        assert not np.array_equal(a.values, c.values)

    def test_stationary_variance(self):
        # stationary variance of the smoothed model is sigma^2/(2 sqrt(pi) nu)
        z = sample_noise(NoiseModel(sigma=1.0, nu=2.0), 100_000, seed=5)
        expected = 1.0 / (4.0 * math.sqrt(math.pi))
        assert z.values.var() == pytest.approx(expected, rel=0.03)
        assert expected == pytest.approx(0.14105, abs=1e-5)

    def test_autocovariance_decay(self):
        """Autocovariance at small lags follows
        sigma^2/(2 sqrt(pi) nu) * exp(-lag^2/(4 nu^2))."""
        nu = 2.0
        z = sample_noise(NoiseModel(sigma=1.0, nu=nu), 200_000, seed=6).values
        z = z - z.mean()
        for lag in range(1, 5):
            emp = float(np.mean(z[:-lag] * z[lag:]))
            expected = math.exp(-lag * lag / (4 * nu * nu)) / (4 * math.sqrt(math.pi))
            assert emp == pytest.approx(expected, rel=0.05)

    def test_mean_concentration_white(self):
        length = 10_000
        ok = sum(
            abs(sample_noise(NoiseModel(1.0, 0.0), length, seed=s).values.mean())
            < 4.0 / math.sqrt(length)
            for s in range(50)
        )
        assert ok >= 49

    def test_mean_concentration_correlated(self):
        # correlated samples: variance of the mean picks up the integrated
        # autocorrelation factor 2 nu sqrt(pi)
        nu, length = 2.0, 10_000
        var = 1.0 / (4.0 * math.sqrt(math.pi))
        sd_mean = math.sqrt(var * 2.0 * nu * math.sqrt(math.pi) / length)
        ok = sum(
            abs(sample_noise(NoiseModel(1.0, nu), length, seed=s).values.mean())
            < 4.0 * sd_mean
            for s in range(50)
        )
        assert ok >= 49

    def test_invalid_model(self):
        with pytest.raises(InvalidParameterError):
            NoiseModel(sigma=0.0, nu=2.0)
        with pytest.raises(InvalidParameterError):
            NoiseModel(sigma=1.0, nu=-1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(InvalidParameterError, match="sigma"):
                NoiseModel(sigma=bad, nu=2.0)
            with pytest.raises(InvalidParameterError, match="nu"):
                NoiseModel(sigma=1.0, nu=bad)

    def test_invalid_length(self):
        with pytest.raises(InvalidParameterError):
            sample_noise(NoiseModel(1.0, 2.0), 0, seed=1)

    def test_filter_longer_than_length_refused(self):
        # 2*ceil(4*nu)+1 taps must fit; the check comes before any array is built
        assert len(sample_noise(NoiseModel(1.0, 2.0), 17, seed=1)) == 17
        for nu, length in ((2.0, 16), (1e200, 12000)):
            with pytest.raises(InvalidParameterError, match="nu=") as info:
                sample_noise(NoiseModel(1.0, nu), length, seed=1)
            assert f"length {length}" in str(info.value)

    def test_nu_too_fine_for_the_grid_refused(self):
        """Between white noise and nu = 0.5 the unit-grid filter is not a
        Gaussian filter (the smoothed derivative's variance is about 16
        times the closed form at nu = 0.1): refused by name, before any
        draw."""
        for nu in (1e-300, 0.1, 0.25, 0.4999):
            with pytest.raises(InvalidParameterError, match=f"nu={nu:g}"):
                sample_noise(NoiseModel(1.0, nu), 1000, seed=1)
        for nu in (0.0, 0.5):
            assert len(sample_noise(NoiseModel(1.0, nu), 1000, seed=1)) == 1000

    @pytest.mark.parametrize("nu, taps", [
        *(pytest.param(nu, noise_kernel, id=str(nu)) for nu in (0.5, 1.0, 2.0, 4.0, 8.0)),
        pytest.param(2.5, lambda nu: kernel_weights(KernelSpec(gamma=nu)), id="kernel_weights"),
    ])
    def test_filter_matches_noise_kernel_oracle(self, nu, taps):
        """The filter is the pairwise fixed-order sum of the loop oracle's
        taps, and of ``kernel_weights``' order-0 taps, bit for bit, and within
        8 ulps of the absolute-term sum of np.convolve (whose BLAS dot kernel
        sums in a CPU-specific order; 4 measured)."""
        g = taps(nu)
        pad = (len(g) - 1) // 2
        for length, seed in ((len(g), 0), (1000, 7), (12000, 21)):
            e = np.random.default_rng(seed).standard_normal(length + 2 * pad)
            expected = 1.5 * convolve_weights_pairwise(e, g)[pad : pad + length]
            got = sample_noise(NoiseModel(1.5, nu), length, seed).values
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (length, seed)
            scale = 1.5 * np.convolve(np.abs(e), g, mode="valid")
            blas = 1.5 * np.convolve(e, g, mode="valid")
            assert np.all(np.abs(got - blas) <= 8 * np.spacing(scale)), (length, seed)

    def test_golden_noise_bytes(self):
        """The noise of one paper-design replicate, pinned by the SHA-256 of
        its little-endian bytes, the same under every OpenBLAS CPU kernel."""
        values = sample_noise(NoiseModel(1.0, 2.0), 12000, 7).values
        digest = hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()
        assert digest == "346ae316fcc91962cdcbeed4729e708258712e45967664689fc48574989b47f2"

