"""Tests for step-up selection and the height-threshold conversion."""

import math
from dataclasses import replace

import numpy as np
import pytest

from stemcpd import (
    Extrema,
    InvalidParameterError,
    NoiseModel,
    assign_pvalues,
    bh_height_threshold,
    bh_select,
    closed_form_moments,
    invert_peak_height_tail,
    peak_height_tail,
)

from helpers import ROUNDED_BOUND_CASES, bh_bruteforce

MOMENTS = closed_form_moments(NoiseModel(1.0, 2.0), 6.0)


class TestBHSelect:
    def test_two_pvalues(self):
        out = bh_select([0.001, 0.5], alpha=0.05)
        assert out.k == 1
        assert out.p_threshold == pytest.approx(0.025)
        assert out.rejected.tolist() == [0]

    def test_nothing_below_alpha(self):
        out = bh_select([0.2, 0.9, 0.4], alpha=0.05)
        assert out.k == 0
        assert out.p_threshold == 0.0
        assert out.rejected.tolist() == []

    def test_empty_input(self):
        out = bh_select([], alpha=0.05)
        assert out.k == 0
        assert out.p_threshold == 1.0
        assert out.rejected.tolist() == []

    def test_strict_inequality_on_boundary(self):
        # i*alpha/m = 0.05 for the single p-value; equality is not enough
        out = bh_select([0.05], alpha=0.05)
        assert out.k == 0
        out = bh_select([0.049], alpha=0.05)
        assert out.k == 1
        assert out.rejected.tolist() == [0]

    def test_rejections_are_a_read_only_index_array(self):
        for p in ([0.001, 0.5, 0.002], [0.2, 0.9], []):
            rejected = bh_select(p, alpha=0.05).rejected
            assert rejected.dtype == np.intp and rejected.ndim == 1
            with pytest.raises(ValueError):
                rejected[...] = 0

    def test_k_equals_rejection_count(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = int(rng.integers(1, 60))
            p = rng.uniform(size=m) ** rng.uniform(0.3, 3.0)
            out = bh_select(p, alpha=0.1)
            assert out.k == len(out.rejected)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            m = int(rng.integers(1, 201))
            p = np.clip(rng.uniform(size=m) ** rng.uniform(0.2, 4.0), 1e-12, 1.0)
            alpha = float(rng.uniform(0.01, 0.3))
            out = bh_select(p, alpha)
            k, thr, rejected = bh_bruteforce(p, alpha)
            assert out.k == k
            assert set(out.rejected) == rejected
            assert out.p_threshold == pytest.approx(thr)

    @pytest.mark.parametrize("p,alpha", ROUNDED_BOUND_CASES,
                             ids=[f"m{len(p)}" for p, _ in ROUNDED_BOUND_CASES])
    def test_one_rounding_decides_k_and_the_rejections(self, p, alpha):
        """The last p-value is alpha, which passes the bound ``m*(alpha/m)``
        but not ``(m*alpha)/m``: k counts the rejections, the m - 1 others."""
        out = bh_select(p, alpha)
        k, threshold, rejected = bh_bruteforce(p, alpha)
        assert out.k == len(out.rejected) == k == len(p) - 1
        assert set(out.rejected.tolist()) == rejected
        assert out.p_threshold == threshold

    def test_permutation_invariance(self):
        rng = np.random.default_rng(19)
        p = rng.uniform(size=50) ** 2
        out = bh_select(p, 0.1)
        perm = rng.permutation(50)
        out2 = bh_select(p[perm], 0.1)
        assert out2.k == out.k
        assert sorted(p[perm][list(out2.rejected)]) == pytest.approx(
            sorted(p[list(out.rejected)])
        )

    def test_complete_null_family_error(self):
        """With uniform p-values the chance of any rejection stays near the
        nominal level."""
        rng = np.random.default_rng(23)
        alpha = 0.05
        trials = 2000
        hits = 0
        for _ in range(trials):
            p = rng.uniform(size=100)
            hits += bh_select(p, alpha).k > 0
        se = math.sqrt(alpha * (1 - alpha) / trials)
        assert hits / trials <= alpha + 3 * se

    def test_invalid_alpha(self):
        with pytest.raises(InvalidParameterError):
            bh_select([0.5], alpha=0.0)
        with pytest.raises(InvalidParameterError):
            bh_select([0.5], alpha=1.0)

    def test_invalid_pvalues(self):
        with pytest.raises(InvalidParameterError):
            bh_select([0.0, 0.5], alpha=0.05)
        with pytest.raises(InvalidParameterError):
            bh_select([1.5], alpha=0.05)
        with pytest.raises(InvalidParameterError):
            bh_select([0.01, math.nan], alpha=0.05)


class TestHeightThreshold:
    def test_forward_inverse_roundtrip(self):
        # moments on a unit scale so a height of 1.0 is in-range
        from stemcpd import SpectralMoments

        unit = SpectralMoments(1.0, 1.0, 2.0)
        p = peak_height_tail(1.0, unit)
        assert invert_peak_height_tail(p, unit) == pytest.approx(1.0, abs=1e-9)
        p2 = peak_height_tail(0.05, MOMENTS)
        assert invert_peak_height_tail(p2, MOMENTS) == pytest.approx(0.05, abs=1e-9)

    def test_threshold_near_zero_height(self):
        from stemcpd.multitest import BHOutcome

        p0 = peak_height_tail(0.0, MOMENTS)
        outcome = BHOutcome(k=1, p_threshold=p0, rejected=np.array([0]))
        assert bh_height_threshold(outcome, MOMENTS) == pytest.approx(0.0, abs=1e-10)

    def test_monotone_in_pvalue(self):
        from stemcpd.multitest import BHOutcome

        thresholds = [
            bh_height_threshold(BHOutcome(k=1, p_threshold=p, rejected=np.array([0])), MOMENTS)
            for p in (0.5, 0.1, 0.01, 0.001)
        ]
        assert all(a < b for a, b in zip(thresholds, thresholds[1:]))

    def test_sentinels(self):
        from stemcpd.multitest import BHOutcome

        empty = BHOutcome(k=0, p_threshold=1.0, rejected=np.empty(0, dtype=np.intp))
        assert bh_height_threshold(empty, MOMENTS) == -math.inf
        none = BHOutcome(k=0, p_threshold=0.0, rejected=np.empty(0, dtype=np.intp))
        assert bh_height_threshold(none, MOMENTS) == math.inf

    def test_threshold_above_one_is_refused(self):
        from stemcpd.multitest import BHOutcome

        above = BHOutcome(k=0, p_threshold=1.5, rejected=np.empty(0, dtype=np.intp))
        with pytest.raises(InvalidParameterError, match="target probability"):
            bh_height_threshold(above, MOMENTS)

    def test_rejection_set_equivalence(self):
        """Selection by p-value and selection by signed height agree
        exactly on simulated candidate sets."""
        rng = np.random.default_rng(29)
        sd = MOMENTS.sd_d1
        for trial in range(50):
            n = int(rng.integers(5, 120))
            heights = rng.normal(scale=1.5 * sd, size=n)
            signs = np.where(rng.uniform(size=n) < 0.5, 1, -1)
            extrema = assign_pvalues(
                Extrema(np.arange(n) + 30, signs * np.abs(heights), signs, np.full(n, np.nan)),
                MOMENTS,
            )
            out = bh_select(extrema.p_value, 0.2)
            out = replace(out, u_threshold=bh_height_threshold(out, MOMENTS))
            by_height = np.flatnonzero(extrema.sign * extrema.height > out.u_threshold)
            assert np.array_equal(out.rejected, by_height)
