"""Tests for spectral moments and extremum-height p-values."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import kstest

from stemcpd import (
    InvalidParameterError,
    KernelSpec,
    MomentEstimationError,
    NoiseModel,
    SimulateRequest,
    SpectralMoments,
    TimeSeries,
    assign_pvalues,
    closed_form_moments,
    compose,
    estimate_moments_empirical,
    find_local_extrema,
    invert_peak_height_tail,
    make_staircase,
    peak_height_tail,
    run_simulation,
    sample_noise,
    smooth,
)
from stemcpd import inference
from stemcpd.inference import _trimmed_variance, trim_correction

import helpers
from helpers import dense_staircase, extrema_of, invert_tail_bisection, reference_tail

MODEL = NoiseModel(sigma=1.0, nu=2.0)


def empirical(series, gamma):
    """Empirical moments given the order-1 smooth, as the detector calls it."""
    dy = smooth(series, KernelSpec(gamma=gamma, order=1))
    return estimate_moments_empirical(series, gamma, dy)


def null_maxima_heights(length, seed, gamma=6.0, model=MODEL):
    noise = sample_noise(model, length, seed=seed)
    dy = smooth(noise, KernelSpec(gamma=gamma, order=1))
    return np.array([e.height for e in find_local_extrema(dy) if e.sign > 0])


class TestClosedFormMoments:
    def test_reference_values(self):
        m = closed_form_moments(MODEL, 6.0)
        assert m.var_d1 == pytest.approx(5.575388e-4, rel=1e-6)
        assert m.var_d2 == pytest.approx(2.090770e-5, rel=1e-6)
        assert m.var_d3 == pytest.approx(1.306732e-6, rel=1e-6)

    @pytest.mark.parametrize("gamma", [3.0, 6.0, 10.0])
    @pytest.mark.parametrize("nu", [0.0, 2.0])
    def test_quadrature_oracle(self, gamma, nu):
        """Each closed form equals the L2 norm of the matching derivative
        of the combined Gaussian shape, by direct numerical integration."""
        sigma = 1.3
        xi = math.hypot(gamma, nu)
        phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        kernels = {
            1: lambda u: -(u / xi) * phi(u / xi) / xi ** 2,
            2: lambda u: ((u / xi) ** 2 - 1) * phi(u / xi) / xi ** 3,
            3: lambda u: (3 * (u / xi) - (u / xi) ** 3) * phi(u / xi) / xi ** 4,
        }
        m = closed_form_moments(NoiseModel(sigma, nu), gamma)
        for order, got in [(1, m.var_d1), (2, m.var_d2), (3, m.var_d3)]:
            val, _ = quad(lambda u: sigma ** 2 * kernels[order](u) ** 2, -np.inf, np.inf)
            assert got == pytest.approx(val, rel=1e-8)

    def test_sigma_scaling(self):
        base = closed_form_moments(NoiseModel(1.0, 2.0), 6.0)
        scaled = closed_form_moments(NoiseModel(2.0, 2.0), 6.0)
        assert scaled.var_d1 == pytest.approx(4 * base.var_d1, rel=1e-14)
        assert scaled.var_d2 == pytest.approx(4 * base.var_d2, rel=1e-14)
        assert scaled.var_d3 == pytest.approx(4 * base.var_d3, rel=1e-14)
        assert scaled.delta == pytest.approx(16 * base.delta, rel=1e-14)

    def test_shape_ratio_is_bandwidth_free(self):
        # var_d2/sqrt(var_d1*var_d3) is the same for every bandwidth
        expected = 3.0 / math.sqrt(15.0)
        for gamma in range(1, 11):
            m = closed_form_moments(MODEL, float(gamma))
            assert m.var_d2 / math.sqrt(m.var_d1 * m.var_d3) == pytest.approx(
                expected, rel=1e-12
            )
        assert expected == pytest.approx(0.7745967, abs=1e-7)

    def test_empirical_variances_match(self):
        """Observed variances of the smoothed-noise derivatives agree with
        the closed forms."""
        from stemcpd import smooth

        length = 200_000
        noise = sample_noise(MODEL, length, seed=23)
        m = closed_form_moments(MODEL, 6.0)
        for order, expected in [(1, m.var_d1), (2, m.var_d2), (3, m.var_d3)]:
            d = smooth(noise, KernelSpec(gamma=6.0, order=order))
            seg = d.values[d.interior_slice()]
            assert seg.var() == pytest.approx(expected, rel=0.05)

    def test_invalid_gamma(self):
        with pytest.raises(InvalidParameterError):
            closed_form_moments(MODEL, 0.0)

    @pytest.mark.parametrize("sigma, nu, gamma", [
        (1e200, 2.0, 6.0), (1e100, 2.0, 6.0), (1e-200, 2.0, 6.0),
        (1.0, 1e200, 6.0), (1.0, 2.0, 1e200), (1.0, 0.0, 1e-50), (1.0, 2.0, math.inf),
    ])
    def test_out_of_range_refused_by_name(self, sigma, nu, gamma):
        # overflow, underflow and a degenerate delta are all refused naming the inputs
        with pytest.raises(InvalidParameterError, match=r"sigma=.*nu=.*gamma="):
            closed_form_moments(NoiseModel(sigma, nu), gamma)


class TestSpectralMoments:
    def test_delta_computed(self):
        m = SpectralMoments(4.0, 2.0, 3.0)
        assert m.delta == 8.0
        assert m.sd_d1 == 2.0

    def test_rejects_degenerate(self):
        with pytest.raises(InvalidParameterError):
            SpectralMoments(1.0, 2.0, 1.0)  # delta < 0
        with pytest.raises(InvalidParameterError):
            SpectralMoments(1.0, -2.0, 1.0)
        with pytest.raises(InvalidParameterError, match="finite"):
            SpectralMoments(math.inf, 1.0, math.inf)  # delta = inf would pass


class TestPeakHeightTail:
    def test_matches_reference_formula(self):
        m = closed_form_moments(MODEL, 6.0)
        for u in np.linspace(-4 * m.sd_d1, 5 * m.sd_d1, 33):
            assert peak_height_tail(u, m) == pytest.approx(
                reference_tail(u, m.var_d1, m.var_d2, m.var_d3), rel=1e-12
            )

    def test_value_at_zero(self):
        # fraction of null maxima with positive height: (1 + 3/sqrt(15))/2
        m = closed_form_moments(MODEL, 6.0)
        expected = (1.0 + 3.0 / math.sqrt(15.0)) / 2.0
        assert peak_height_tail(0.0, m) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.8872983, abs=1e-7)
        # the same for any bandwidth and correlation scale
        for gamma, nu in [(1.0, 0.0), (4.0, 2.0), (10.0, 5.0)]:
            m2 = closed_form_moments(NoiseModel(1.0, nu), gamma)
            assert peak_height_tail(0.0, m2) == pytest.approx(expected, rel=1e-12)

    def test_limits(self):
        m = closed_form_moments(MODEL, 6.0)
        assert peak_height_tail(-np.inf, m) == 1.0
        assert peak_height_tail(np.inf, m) > 0.0  # clipped, never exact zero
        assert peak_height_tail(np.inf, m) < 1e-300
        assert peak_height_tail(-100 * m.sd_d1, m) == pytest.approx(1.0, abs=1e-12)
        assert peak_height_tail(40 * m.sd_d1, m) < 1e-200

    def test_strictly_decreasing(self):
        m = closed_form_moments(MODEL, 6.0)
        u = np.linspace(-3.5, 4.5, 321) * m.sd_d1
        f = peak_height_tail(u, m)
        assert np.all(np.diff(f) < 0)

    def test_small_pvalues_do_not_underflow(self):
        m = closed_form_moments(MODEL, 6.0)
        p = peak_height_tail(7.0 * m.sd_d1, m)
        assert 0.0 < p < 1e-9

    def test_scale_equivariance(self):
        m = closed_form_moments(NoiseModel(1.0, 2.0), 6.0)
        m2 = closed_form_moments(NoiseModel(3.0, 2.0), 6.0)
        for u in (0.01, 0.05, 0.1):
            assert peak_height_tail(3.0 * u, m2) == pytest.approx(
                peak_height_tail(u, m), rel=1e-12
            )

    def test_positive_fraction_monte_carlo(self):
        heights = null_maxima_heights(1_000_000, seed=29)
        m = closed_form_moments(MODEL, 6.0)
        assert np.mean(heights > 0) == pytest.approx(peak_height_tail(0.0, m), rel=0.01)

    def test_exceedance_monte_carlo(self):
        """Tail value at three derivative standard deviations matches the
        observed exceedance fraction of null maxima heights."""
        heights = null_maxima_heights(2_600_000, seed=31)
        assert len(heights) >= 100_000
        m = closed_form_moments(MODEL, 6.0)
        u = 3.0 * m.sd_d1
        assert np.mean(heights > u) == pytest.approx(peak_height_tail(u, m), rel=0.05)


    def test_saturation_clamp_changes_no_value(self):
        """Clamping heights to 40 sd is invisible: the tail equals the
        unclamped formula bit for bit, scalar and array, from -60 to 60 sd,
        where that formula does not overflow yet."""
        for gamma, nu in ((1.0, 0.5), (6.0, 2.0), (50.0, 2.0)):
            m = closed_form_moments(NoiseModel(1.0, nu), gamma)
            sd, sqrt_delta = m.sd_d1, math.sqrt(m.delta)
            u = np.linspace(-60.0, 60.0, 4801) * sd
            phi = lambda x: np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)
            coef = math.sqrt(2.0 * math.pi) * m.var_d2 / math.sqrt(m.var_d3 * m.var_d1)
            normal = ndtr(u * m.var_d2 / (sd * sqrt_delta))
            tail = np.clip(ndtr(-u * math.sqrt(m.var_d3) / sqrt_delta)
                           + coef * phi(u / sd) * normal, np.finfo(float).tiny, 1.0)
            assert np.array_equal(peak_height_tail(u, m).view(np.int64), tail.view(np.int64))
            assert [peak_height_tail(x, m) for x in u[::40].tolist()] == tail[::40].tolist()

    def test_huge_heights_raise_no_overflow(self):
        """Heights of 3e300, where the square in phi would overflow, give
        the saturated tail without a RuntimeWarning (an error under this
        suite's settings), also through a whole simulation."""
        m = closed_form_moments(MODEL, 2.0)
        huge = np.array([-3e300, 3e300])
        tiny = np.finfo(float).tiny
        assert peak_height_tail(huge, m).tolist() == [1.0, tiny]
        assert [peak_height_tail(x, m) for x in (-3e300, 3e300)] == [1.0, tiny]
        req = SimulateRequest(length=1200, separation=100, jumps=(3e300,), gammas=(2.0,),
                              tolerances=(5.0,), replications=1)
        (cell,) = run_simulation(req)
        assert cell.power == 1.0


class TestInvertPeakHeightTail:
    def test_roundtrip(self):
        m = closed_form_moments(MODEL, 6.0)
        for u in (-0.02, 0.0, 0.01, 0.05, 0.1):
            p = peak_height_tail(u, m)
            assert invert_peak_height_tail(p, m) == pytest.approx(u, abs=1e-9)

    def test_probability_tolerance(self):
        m = closed_form_moments(MODEL, 6.0)
        for p in (0.9, 0.5, 0.1, 1e-3, 1e-8, 1e-30):
            u = invert_peak_height_tail(p, m)
            assert abs(peak_height_tail(u, m) - p) < 1e-12

    def test_sentinel(self):
        m = closed_form_moments(MODEL, 6.0)
        assert invert_peak_height_tail(1.0, m) == -math.inf

    def test_below_smallest_tail_is_no_pass(self):
        """No clipped tail goes below the smallest normal float, so a smaller
        target has no height: +inf, without an overflow warning.  The
        smallest normal itself is still reached at a finite height."""
        m = closed_form_moments(MODEL, 6.0)
        tiny = np.finfo(float).tiny
        for p in (1e-310, 5e-324, tiny * (1.0 - 2.0 ** -52)):
            assert invert_peak_height_tail(p, m) == math.inf
        u = invert_peak_height_tail(tiny, m)
        assert math.isfinite(u) and peak_height_tail(u, m) == tiny

    def test_tail_calls_per_inversion(self, monkeypatch):
        """Secant-slope Newton steps from the bump-term asymptote and the
        closing walk evaluate the tail, the only formula they use, a few
        times per inversion where bisection spent 57: on this grid a mean
        of about 3 and at most 7, every evaluation counted."""
        calls = []

        def counting(u, moments):
            calls[-1] += 1
            return peak_height_tail(u, moments)

        monkeypatch.setattr(inference, "peak_height_tail", counting)
        for gamma in (1.0, 2.0, 4.0, 6.0, 10.0, 20.0, 50.0):
            m = closed_form_moments(MODEL, gamma)
            for p in np.logspace(-12, math.log10(0.3), 25):
                calls.append(0)
                invert_peak_height_tail(float(p), m)
        assert len(calls) == 175
        assert np.mean(calls) <= 4.0
        assert max(calls) <= 8

    def test_plateau_at_zero_costs_no_more_than_bisection(self, monkeypatch):
        """At p = tail(0) the steps stop at u = 0, inside the plateau where
        the rounded tail equals p; the walk's first stride spans it instead
        of doubling up from the smallest subnormal about 1,000 times, so
        bisection's 110-odd evaluations bound the count."""
        calls = []

        def counting(u, moments):
            calls[-1] += 1
            return peak_height_tail(u, moments)

        monkeypatch.setattr(inference, "peak_height_tail", counting)
        monkeypatch.setattr(helpers, "peak_height_tail", counting)
        for gamma in (1.0, 6.0, 50.0):
            m = closed_form_moments(MODEL, gamma)
            p = peak_height_tail(0.0, m)
            for invert in (invert_peak_height_tail, invert_tail_bisection):
                calls.append(0)
                assert invert(p, m) == pytest.approx(0.0, abs=1e-9 * m.sd_d1)
            assert calls[-2] <= calls[-1]

    def test_left_of_zero_with_tiny_var_d2(self):
        """Valid moments whose powers of var_d2 underflow: p above tail(0)
        still inverts to the height bracketing it between adjacent floats,
        here the normal quantile, since the bump term vanishes."""
        m = SpectralMoments(1.0, 1e-170, 1.0)
        p = 0.9
        assert p > peak_height_tail(0.0, m)
        u = invert_peak_height_tail(p, m)
        lo = u if peak_height_tail(u, m) > p else math.nextafter(u, -math.inf)
        hi = math.nextafter(lo, math.inf)
        assert 0.5 * (lo + hi) == u
        assert peak_height_tail(lo, m) > p >= peak_height_tail(hi, m)
        assert u == pytest.approx(-1.2815515655446004, rel=1e-12)

    def test_invalid_target(self):
        m = closed_form_moments(MODEL, 6.0)
        with pytest.raises(InvalidParameterError):
            invert_peak_height_tail(0.0, m)
        with pytest.raises(InvalidParameterError):
            invert_peak_height_tail(1.5, m)


class TestAssignPvalues:
    def test_sign_symmetry(self):
        m = closed_form_moments(MODEL, 6.0)
        p_up, p_down = assign_pvalues(extrema_of([10, 20], [0.05, -0.05], [1, -1]), m)
        assert p_up.p_value == p_down.p_value

    def test_zero_height_maximum(self):
        m = closed_form_moments(MODEL, 6.0)
        (e,) = assign_pvalues(extrema_of([5], [0.0], [1]), m)
        assert e.p_value == pytest.approx(0.8872983, abs=1e-7)

    def test_empty(self):
        m = closed_form_moments(MODEL, 6.0)
        out = assign_pvalues(extrema_of([], [], []), m)
        assert len(out) == 0 and len(out.p_value) == 0

    def test_null_pvalues_are_uniform(self):
        """Maxima p-values on pure noise pass a Kolmogorov-Smirnov check
        against the uniform distribution."""
        noise = sample_noise(MODEL, 300_000, seed=37)
        dy = smooth(noise, KernelSpec(gamma=6.0, order=1))
        candidates = find_local_extrema(dy)
        maxima = candidates[candidates.sign > 0]
        assert len(maxima) >= 10_000
        m = closed_form_moments(MODEL, 6.0)
        p = assign_pvalues(maxima, m).p_value
        assert kstest(p, "uniform").statistic < 0.02


class TestTrimCorrection:
    def test_no_trim(self):
        assert trim_correction(0.0) == 1.0

    def test_known_value(self):
        # variance retained by a standard normal inside its 5th..95th
        # percentile band, computed from truncated-normal moments
        from scipy.stats import norm

        q = 0.1
        c = norm.ppf(1 - q / 2)
        expected = 1.0 - 2.0 * c * norm.pdf(c) / (1.0 - q)
        assert trim_correction(q) == pytest.approx(expected, rel=1e-12)

    def test_monte_carlo(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(400_000)
        q = 0.1
        kept = np.sort(np.abs(x))[: len(x) - int(np.ceil(q * len(x)))]
        assert np.mean(kept ** 2) == pytest.approx(trim_correction(q), rel=0.01)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            trim_correction(0.5)


class TestEstimateMomentsEmpirical:
    def test_pure_null_trimmed(self):
        ref = closed_form_moments(MODEL, 6.0)
        # the estimate tightens around the closed form as the sequence grows
        for length, seed, rel in [(100_000, 41, 0.10), (400_000, 43, 0.05)]:
            est = empirical(sample_noise(MODEL, length, seed=seed), 6.0)
            assert est.var_d1 == pytest.approx(ref.var_d1, rel=rel)
            assert est.var_d2 == pytest.approx(ref.var_d2, rel=rel)
            assert est.var_d3 == pytest.approx(ref.var_d3, rel=rel)

    def test_pure_null_untrimmed(self):
        """The plain mean square of each smoothed derivative of pure noise
        matches its closed-form variance."""
        y = sample_noise(MODEL, 400_000, seed=43)
        ref = closed_form_moments(MODEL, 6.0)
        for order, attr in enumerate(("var_d1", "var_d2", "var_d3"), 1):
            d = smooth(y, KernelSpec(gamma=6.0, order=order))
            raw = float(np.mean(np.square(d.values[d.interior_slice()])))
            assert raw == pytest.approx(getattr(ref, attr), rel=0.05)

    def test_trimming_discounts_sparse_jumps(self):
        """With sparse change points, trimming pulls every estimated moment
        strictly below the plain mean square, toward its pure-noise value."""
        length = 100_000
        sig = make_staircase(3.0, 2000, length)
        y = compose(sig, sample_noise(MODEL, length, seed=47))
        trimmed = empirical(y, 6.0)
        ref = closed_form_moments(MODEL, 6.0)
        for order, attr in enumerate(("var_d1", "var_d2", "var_d3"), 1):
            d = smooth(y, KernelSpec(gamma=6.0, order=order))
            r = float(np.mean(np.square(d.values[d.interior_slice()])))
            t, truth = getattr(trimmed, attr), getattr(ref, attr)
            assert t < r
            assert abs(t - truth) < abs(r - truth)

    def test_consistency_improves_with_length(self):
        ref = closed_form_moments(MODEL, 6.0)
        truth = np.array([ref.var_d1, ref.var_d2, ref.var_d3])

        def mean_error(length):
            errs = []
            for seed in range(6):
                z = sample_noise(MODEL, length, seed=100 + seed)
                m = empirical(z, 6.0)
                est = np.array([m.var_d1, m.var_d2, m.var_d3])
                errs.append(np.abs(est / truth - 1.0))
            return float(np.mean(errs))

        assert mean_error(120_000) < 0.8 * mean_error(30_000)

    def test_degenerate_input(self):
        with pytest.raises(MomentEstimationError):
            empirical(TimeSeries(np.full(3000, 2.0)), 6.0)

    def test_moment_inconsistency(self):
        # a single-frequency input collapses the moment determinant
        t = np.arange(1, 3001, dtype=float)
        with pytest.raises(MomentEstimationError):
            empirical(TimeSeries(np.cos(0.2 * t)), 6.0)

    def test_order_one_smooth_taken_from_the_caller(self):
        """The order-1 derivative passed in is the one whose variance is
        used; orders 2 and 3 come from the sequence."""
        y = sample_noise(MODEL, 20_000, seed=61)
        dy = smooth(y, KernelSpec(gamma=6.0, order=1))
        est = estimate_moments_empirical(y, 6.0, dy)
        doubled = estimate_moments_empirical(y, 6.0, TimeSeries(2.0 * dy.values, dy.interior))
        assert doubled.var_d1 == 4.0 * est.var_d1
        assert (doubled.var_d2, doubled.var_d3) == (est.var_d2, est.var_d3)

    def test_out_of_range_refused_by_name(self):
        """Variance products past the floating-point range are refused,
        naming the input's magnitude, without a numpy warning."""
        z = sample_noise(MODEL, 3000, seed=67)
        for scale in (1e100, 1e-100):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(MomentEstimationError, match="out of floating-point range"):
                    empirical(TimeSeries(scale * z.values), 6.0)

    def test_interior_too_short(self):
        with pytest.raises(MomentEstimationError, match="interior too short"):
            empirical(TimeSeries(np.random.default_rng(1).standard_normal(140)), 6.0)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_trimmed_variance_is_the_sorted_mean_square(self, order):
        """The in-place trimmed variance equals, bit for bit, the mean
        square of the smallest 90% of the interior's absolute values
        rescaled by the trimmed-normal factor."""
        y = compose(make_staircase(3.0, 500, 30_001), sample_noise(MODEL, 30_001, seed=71))
        d = smooth(y, KernelSpec(gamma=6.0, order=order))
        x = d.values[d.interior_slice()]
        kept = np.sort(np.abs(x))[: len(x) - math.ceil(0.1 * len(x))]
        assert _trimmed_variance(d) == float(np.mean(np.square(kept)) / trim_correction(0.1))

    def test_trimmed_variance_traced_peak_is_one_copy(self):
        """The trimmed variance of the order-1 smooth of the paper
        staircase at n = 1e6 allocates one 8-byte copy per sample (three
        copies took 16 bytes per sample)."""
        dy = smooth(dense_staircase(), KernelSpec(gamma=6.0, order=1))
        n = len(dy)
        tracemalloc.start()
        try:
            _trimmed_variance(dy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n + 65536
