"""Null calibration at nu = 2, at nu = 0 (white noise, ``TestWhiteNoise``)
and at nu = 0.5 (``TestHalfScaleNoise``): on pure noise the detector's
candidates arrive at the analytic rate, their p-values are uniform, and the
complete-null FDR stays at alpha.

Every band is three Monte Carlo standard errors wide, and every noise
scale shares every seed, size and band.  At nu = 0.5 the complete-null
FDR at gamma 1 and 2 is also gated at 2,000 replicates, where the band can
see the excess measured there.  The noise is
``sample_noise(NoiseModel(1, nu), 200_000, seed)`` for seeds 0-2 and the
p-values use closed-form moments.  Candidate p-values of one sequence are
weakly dependent, so the binomial and Kolmogorov-Smirnov checks treat them
as independent draws; the bands are not tightened below that.  The cells
that fail today are strict xfails in ``KNOWN_FAILURES``, each with its
measured value and its cause.
"""

import functools
import itertools
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
GAMMAS = (1.0, 4.0, 6.0, 10.0)
COUNT_GAMMAS = (1.0, 2.0, 4.0, 6.0, 10.0)
FDR_GAMMAS = (1.0, 2.0, 6.0, 10.0)
LEVELS = (0.05, 0.01)

LATTICE = ("the continuous-process law does not describe the maxima of the sampled "
           "sequence; ROADMAP item 4")
FILTER = ("the unit-grid noise filter's covariances are not the model's at nu 0.5; "
          "ROADMAP item 12")

#: The cells that fail today, keyed by ``(nu, check, *cell)``: the measured
#: value and its cause.
KNOWN_FAILURES = {
    (2.0, "count", 1.0): f"ratio 0.986, 5.3 se low: {LATTICE}",
    (2.0, "count", 2.0): f"ratio 0.988, 3.9 se low: {LATTICE}",
    (2.0, "uniform", 1.0): f"KS p 1.3e-6: {LATTICE}",
    (2.0, "tail", 1.0, 0.05): f"P(p < 0.05) 0.0472, 4.7 se low: {LATTICE}",
    (0.0, "count", 1.0): f"ratio 0.913, 47.7 se low: {LATTICE}",
    (0.0, "count", 2.0): f"ratio 0.982, 6.8 se low: {LATTICE}",
    (0.0, "uniform", 1.0): f"KS p 5e-145: {LATTICE}",
    (0.0, "tail", 1.0, 0.05): f"P(p < 0.05) 0.0385, 27.6 se low: {LATTICE}",
    (0.0, "tail", 1.0, 0.01): f"P(p < 0.01) 0.0068, 17.1 se low: {LATTICE}",
    (0.5, "count", 1.0): f"ratio 0.958, 21.6 se low: {LATTICE}",
    (0.5, "count", 2.0): f"ratio 0.989, 4.3 se low: {LATTICE}",
    (0.5, "uniform", 1.0): f"KS p 9e-62: {LATTICE}, and {FILTER}",
    (0.5, "uniform", 4.0): f"KS p 7e-4: {FILTER}",
    (0.5, "tail", 1.0, 0.05): f"P(p < 0.05) 0.0515, 3.5 se high: {FILTER}, and {LATTICE}",
    (0.5, "tail", 1.0, 0.01): f"P(p < 0.01) 0.0106, 3.3 se high: {FILTER}, and {LATTICE}",
    (0.5, "tail", 4.0, 0.05): f"P(p < 0.05) 0.0531, 3.9 se high: {FILTER}",
    (0.5, "tail", 4.0, 0.01): f"P(p < 0.01) 0.0114, 3.7 se high: {FILTER}",
    (0.5, "tail", 10.0, 0.05): f"P(p < 0.05) 0.0540, 3.2 se high: {FILTER}",
    (0.5, "fdr 2000", 1.0): f"FDR 0.0785 +- 0.0060, 4.7 se over alpha: {FILTER}, and {LATTICE}",
    (0.5, "fdr 2000", 2.0): f"FDR 0.0670 +- 0.0056, 3.0 se over alpha: {FILTER}, and {LATTICE}",
}


def cells(nu, check, *axes):
    """Every combination of ``axes`` as a parameter set of ``check`` at
    noise scale ``nu``, the known failures marked as strict xfails."""
    params = []
    for cell in itertools.product(*axes):
        reason = KNOWN_FAILURES.get((nu, check, *cell))
        marks = [pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)] if reason else []
        params.append(pytest.param(*cell, marks=marks))
    return params


@functools.lru_cache(maxsize=None)
def null_candidates(gamma, nu):
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


@functools.lru_cache(maxsize=None)
def complete_null_cells(nu, gammas=FDR_GAMMAS, replications=400):
    req = SimulateRequest(jumps=(0.0,), gammas=gammas, tolerances=(5.0,),
                          replications=replications, seed=3, nu=nu)
    return {cell.gamma: cell for cell in run_simulation(req, threads=1)}


def calibration_tests(nu):
    """The four checks at noise scale ``nu``, each parametrized over its
    cells; every noise scale runs these same four."""

    @pytest.mark.parametrize("gamma", cells(nu, "count", COUNT_GAMMAS))
    def test_candidate_count_matches_analytic_rate(gamma):
        p_values, expected = null_candidates(gamma, nu)
        ratio = len(p_values) / expected
        assert abs(ratio - 1.0) <= 3.0 / math.sqrt(expected), ratio  # Poisson se

    @pytest.mark.parametrize("gamma", cells(nu, "uniform", GAMMAS))
    def test_candidate_pvalues_are_uniform(gamma):
        p_values, _ = null_candidates(gamma, nu)
        assert kstest(p_values, "uniform").pvalue > 1e-3

    @pytest.mark.parametrize("gamma, level", cells(nu, "tail", GAMMAS, LEVELS))
    def test_candidate_pvalue_tail_fraction(gamma, level):
        p_values, _ = null_candidates(gamma, nu)
        fraction = np.mean(p_values < level)
        se = math.sqrt(level * (1.0 - level) / len(p_values))
        assert abs(fraction - level) <= 3.0 * se, fraction

    @pytest.mark.parametrize("gamma", cells(nu, "fdr", FDR_GAMMAS))
    def test_complete_null_fdr_at_most_alpha(gamma):
        """With no change point every rejection is false, so the realized
        FDR is the family-wise error rate."""
        cell = complete_null_cells(nu)[gamma]
        assert cell.replications == 400
        assert cell.fdr <= SimulateRequest.alpha + 3.0 * cell.fdr_se, (cell.fdr, cell.fdr_se)

    return (test_candidate_count_matches_analytic_rate, test_candidate_pvalues_are_uniform,
            test_candidate_pvalue_tail_fraction, test_complete_null_fdr_at_most_alpha)


(test_candidate_count_matches_analytic_rate, test_candidate_pvalues_are_uniform,
 test_candidate_pvalue_tail_fraction, test_complete_null_fdr_at_most_alpha) = calibration_tests(2.0)


class TestWhiteNoise:
    """The same checks at nu = 0, where each sample's noise is independent."""

    (test_candidate_count_matches_analytic_rate, test_candidate_pvalues_are_uniform,
     test_candidate_pvalue_tail_fraction, test_complete_null_fdr_at_most_alpha) = map(
        staticmethod, calibration_tests(0.0))


class TestHalfScaleNoise:
    """The same checks at nu = 0.5, the finest correlated noise that
    ``sample_noise`` draws."""

    (test_candidate_count_matches_analytic_rate, test_candidate_pvalues_are_uniform,
     test_candidate_pvalue_tail_fraction, test_complete_null_fdr_at_most_alpha) = map(
        staticmethod, calibration_tests(0.5))

    @pytest.mark.parametrize("gamma", cells(0.5, "fdr 2000", (1.0, 2.0)))
    def test_complete_null_fdr_at_most_alpha_at_2000_replicates(self, gamma):
        """The same FDR check where 400 replicates give a band (about
        +-0.036) too wide to see the excess: 2,000 narrow it to about
        +-0.017."""
        cell = complete_null_cells(0.5, (1.0, 2.0), 2000)[gamma]
        assert cell.replications == 2000
        assert cell.fdr <= SimulateRequest.alpha + 3.0 * cell.fdr_se, (cell.fdr, cell.fdr_se)
