"""Tests for kernel weight construction."""

import math

import numpy as np
import pytest

from stemcpd import (
    GAUSSIAN_CUTOFF,
    InvalidParameterError,
    KernelSpec,
    kernel_weights,
)

from helpers import center_tap, gauss_kernel_at, gauss_kernel_samples

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


class TestKernelSpec:
    def test_defaults(self):
        spec = KernelSpec(gamma=6.0)
        assert spec.order == 0
        assert GAUSSIAN_CUTOFF == 4.0

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_gamma(self, gamma):
        with pytest.raises(InvalidParameterError):
            KernelSpec(gamma=gamma)

    def test_invalid_order(self):
        with pytest.raises(InvalidParameterError):
            KernelSpec(gamma=2.0, order=4)

    def test_invalid_cutoff(self):
        # a finite gamma whose support half-width GAUSSIAN_CUTOFF*gamma
        # overflows to infinity is rejected too
        with pytest.raises(InvalidParameterError):
            KernelSpec(gamma=1e308)

    def test_half_width(self):
        assert KernelSpec(gamma=6.0).half_width() == 24
        assert KernelSpec(gamma=0.3).half_width() == 2


class TestKernelWeights:
    def test_center_value_before_renormalization(self):
        # density value at zero is phi(0)/gamma
        spec = KernelSpec(gamma=6.0)
        assert center_tap(spec) == pytest.approx(PHI0 / 6.0, rel=1e-12)
        assert center_tap(spec) == pytest.approx(0.066490, abs=1e-6)

    def test_odd_orders_sum_exactly_zero(self):
        for order in (1, 3):
            w = kernel_weights(KernelSpec(gamma=6.0, order=order))
            assert math.fsum(w) == 0.0

    def test_order1_center_weight_is_zero(self):
        for gamma in (0.7, 2.0, 6.0, 10.0):
            w = kernel_weights(KernelSpec(gamma=gamma, order=1))
            assert w[len(w) // 2] == 0.0

    def test_exact_symmetry(self):
        """Even orders are exactly symmetric as sampled, odd orders exactly
        antisymmetric, over bandwidths from a one-step support up."""
        for gamma in [0.25, 2.0, 6.0, 10.0, 50.0] + (np.arange(25, 1001, 7) / 100).tolist():
            for order in (0, 1, 2, 3):
                w = kernel_weights(KernelSpec(gamma=gamma, order=order))
                mirror = w[::-1] if order % 2 == 0 else -w[::-1]
                assert np.array_equal(w, mirror), (gamma, order)

    def test_length_and_support(self):
        spec = KernelSpec(gamma=6.0, order=1)
        w = kernel_weights(spec)
        assert len(w) == 2 * 24 + 1
        assert w[0] != 0.0  # offset 24 <= GAUSSIAN_CUTOFF*gamma = 24

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_weights_are_analytic_derivative_samples(self, order):
        spec = KernelSpec(gamma=3.0, order=order)
        w = kernel_weights(spec)
        k = len(w) // 2
        expected = gauss_kernel_samples(3.0, 4.0, order)
        assert w == pytest.approx(expected, rel=1e-12, abs=1e-18)
        assert len(expected) == 2 * k + 1

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_finite_difference_consistency(self, order):
        """Central differences of the order-(k-1) weights reproduce the
        order-k weights at gamma 600, where the unit grid step is 1/600 of
        a bandwidth."""
        lower = kernel_weights(KernelSpec(gamma=600.0, order=order - 1))
        upper = kernel_weights(KernelSpec(gamma=600.0, order=order))
        assert len(upper) == 4801
        fd = (lower[2:] - lower[:-2]) / 2.0
        target = upper[1:-1]
        mask = np.abs(target) > 1e-2 * np.max(np.abs(target))
        rel = np.abs(fd[mask] - target[mask]) / np.abs(target[mask])
        assert np.max(rel) < 1e-4

    def test_step_convolution_reproduces_kernel_shape(self):
        """Convolving a unit step with order-1 weights traces out the
        order-0 kernel shape: the running sum lands on the kernel sampled
        half a grid step off, up to the truncation edge value, and returns
        exactly to zero past the support by antisymmetry."""
        gamma = 6.0
        spec0 = KernelSpec(gamma=gamma)
        w1 = kernel_weights(KernelSpec(gamma=gamma, order=1))
        k = len(w1) // 2
        n = 200
        v = 100
        step = (np.arange(1, n + 1) >= v).astype(float)
        response = np.convolve(step, w1, mode="same")
        t = np.arange(1, n + 1)
        edge = float(gauss_kernel_at(GAUSSIAN_CUTOFF * gamma, gamma))
        expected = gauss_kernel_at(t - v + 0.5, gamma) - edge
        expected *= np.abs(t - v + 0.5) <= GAUSSIAN_CUTOFF * gamma
        inner = slice(k + 1, n - k - 1)
        assert np.max(np.abs(response[inner] - expected[inner])) < 1e-4
        # peak height matches the kernel's center value to within a percent
        assert response.max() == pytest.approx(center_tap(spec0), rel=0.01)
        # far from the step the running sum of antisymmetric weights cancels
        assert abs(response[v + k + 5]) < 1e-12

    def test_bandwidth_too_small(self):
        with pytest.raises(InvalidParameterError, match="narrower than one grid step"):
            kernel_weights(KernelSpec(gamma=0.2))

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_end_taps_zero_past_the_support(self, order):
        """At gamma 2.2 the support ends at 8.8, so the taps at offsets
        +-9 lie past it and are exactly zero, and those at +-8 are not."""
        w = kernel_weights(KernelSpec(gamma=2.2, order=order))
        assert len(w) == 19
        assert w[0] == w[-1] == 0.0
        assert w[1] != 0.0 and w[-2] != 0.0
