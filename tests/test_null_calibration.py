"""Null calibration at nu = 2 and, in ``TestWhiteNoise``, at nu = 0: on
pure noise the detector's candidates arrive at the analytic rate, their
p-values are uniform, and the complete-null FDR stays at alpha.

Every band is three Monte Carlo standard errors wide, and both noise
scales share every seed, size and band.  The noise is
``sample_noise(NoiseModel(1, nu), 200_000, seed)`` for seeds 0-2 and the
p-values use closed-form moments.  Candidate p-values of one sequence are
weakly dependent, so the binomial and Kolmogorov-Smirnov checks treat them
as independent draws; the bands are not tightened below that.
"""

import functools
import math

import numpy as np
import pytest
from scipy.stats import kstest

from stemcpd import (
    KernelSpec,
    NoiseModel,
    SimulateRequest,
    assign_pvalues,
    closed_form_moments,
    find_local_extrema,
    null_max_rate,
    run_simulation,
    sample_noise,
    smooth,
)

LENGTH = 200_000
SEEDS = (0, 1, 2)
GAMMAS = (4.0, 6.0, 10.0)


@functools.lru_cache(maxsize=None)
def null_candidates(gamma, nu=2.0):
    """The candidates' p-values over every seed, and their analytic count
    ``2*null_max_rate*|interior|`` summed over the seeds."""
    model = NoiseModel(1.0, nu)
    moments = closed_form_moments(model, gamma)
    p_values, expected = [], 0.0
    for seed in SEEDS:
        dy = smooth(sample_noise(model, LENGTH, seed), KernelSpec(gamma=gamma, order=1))
        p_values.append(assign_pvalues(find_local_extrema(dy), moments).p_value)
        lo, hi = dy.interior
        expected += 2.0 * null_max_rate(moments) * (hi - lo)
    return np.concatenate(p_values), expected


def check_count(gamma, nu=2.0):
    p_values, expected = null_candidates(gamma, nu)
    ratio = len(p_values) / expected
    assert abs(ratio - 1.0) <= 3.0 / math.sqrt(expected), ratio  # Poisson se


def check_uniform(gamma, nu=2.0):
    p_values, _ = null_candidates(gamma, nu)
    assert kstest(p_values, "uniform").pvalue > 1e-3


def check_tail_fraction(gamma, level, nu=2.0):
    p_values, _ = null_candidates(gamma, nu)
    fraction = np.mean(p_values < level)
    se = math.sqrt(level * (1.0 - level) / len(p_values))
    assert abs(fraction - level) <= 3.0 * se, fraction


@functools.lru_cache(maxsize=None)
def complete_null_cells(nu=2.0):
    req = SimulateRequest(jumps=(0.0,), gammas=(2.0, 6.0, 10.0), tolerances=(5.0,),
                          replications=400, seed=3, nu=nu)
    return {cell.gamma: cell for cell in run_simulation(req, threads=1)}


def check_complete_null_fdr(gamma, nu=2.0):
    """With no change point every rejection is false, so the realized FDR
    is the family-wise error rate."""
    cell = complete_null_cells(nu)[gamma]
    assert cell.replications == 400
    assert cell.fdr <= SimulateRequest.alpha + 3.0 * cell.fdr_se, (cell.fdr, cell.fdr_se)


@pytest.mark.parametrize("gamma", [
    pytest.param(2.0, marks=pytest.mark.xfail(
        strict=True, reason="the continuous-process rate overcounts the sampled sequence's "
                            "maxima at gamma 2 (ratio 0.988, 3.9 se low); ROADMAP item 4")),
    *GAMMAS,
])
def test_candidate_count_matches_analytic_rate(gamma):
    check_count(gamma)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_candidate_pvalues_are_uniform(gamma):
    check_uniform(gamma)


@pytest.mark.parametrize("level", [0.05, 0.01])
@pytest.mark.parametrize("gamma", GAMMAS)
def test_candidate_pvalue_tail_fraction(gamma, level):
    check_tail_fraction(gamma, level)


@pytest.mark.parametrize("gamma", [2.0, 6.0, 10.0])
def test_complete_null_fdr_at_most_alpha(gamma):
    check_complete_null_fdr(gamma)


class TestWhiteNoise:
    """The same checks at nu = 0, where each sample's noise is independent."""

    @pytest.mark.parametrize("gamma", [
        pytest.param(2.0, marks=pytest.mark.xfail(
            strict=True, reason="the continuous-process rate overcounts the sampled "
                                "sequence's maxima at gamma 2 (6.8 se low); ROADMAP item 4")),
        *GAMMAS,
    ])
    def test_candidate_count_matches_analytic_rate(self, gamma):
        check_count(gamma, nu=0.0)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_candidate_pvalues_are_uniform(self, gamma):
        check_uniform(gamma, nu=0.0)

    @pytest.mark.parametrize("level", [0.05, 0.01])
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_candidate_pvalue_tail_fraction(self, gamma, level):
        check_tail_fraction(gamma, level, nu=0.0)

    @pytest.mark.parametrize("gamma", [2.0, 6.0, 10.0])
    def test_complete_null_fdr_at_most_alpha(self, gamma):
        check_complete_null_fdr(gamma, nu=0.0)
