"""Tests for analytic rates, SNR, approximate power and FDR bounds."""

import functools
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from stemcpd import (
    InvalidParameterError,
    KernelSpec,
    NoiseModel,
    SimulateRequest,
    approx_power,
    closed_form_moments,
    invert_peak_height_tail,
    null_max_rate,
    peak_height_tail,
    run_simulation,
    snr,
    theory_table,
)

from helpers import center_tap, power_column, step_up_limit

MODEL = NoiseModel(sigma=1.0, nu=2.0)
MOMENTS = closed_form_moments(MODEL, 6.0)


def table_rows(gammas=(6.0,), alpha=0.05, density=0.01):
    """The ``theory_table`` rows of ``gammas`` (jump 1), each as a dict by
    column name."""
    header, rows = theory_table(MODEL, gammas, (1.0,), density, alpha)
    return [dict(zip(header, row)) for row in rows]


def table_row(gamma=6.0, alpha=0.05, density=0.01):
    return table_rows((gamma,), alpha, density)[0]


def null_fraction_of(row, alpha, density):
    """The null fraction ``f`` read back from a row's bound ``b`` and null
    rate ``r``: ``b/alpha = 2*r*f/(2*r*f + A)``, solved for ``f``."""
    bound = row["fdr_bound_bh"]
    return density * bound / ((alpha - bound) * 2.0 * row["null_rate"])


class TestNullMaxRate:
    def test_reference_value(self):
        # sqrt(5/2) / (2 pi sqrt(40)) for this model and bandwidth
        assert null_max_rate(MOMENTS) == pytest.approx(0.03978873577297383, rel=1e-12)
        xi = math.hypot(6.0, 2.0)
        assert null_max_rate(MOMENTS) == pytest.approx(
            math.sqrt(2.5) / (2 * math.pi * xi), rel=1e-12
        )

    def test_sigma_invariant(self):
        loud = closed_form_moments(NoiseModel(5.0, 2.0), 6.0)
        assert null_max_rate(loud) == pytest.approx(null_max_rate(MOMENTS), rel=1e-12)

    def test_decreasing_in_bandwidth(self):
        rates = [null_max_rate(closed_form_moments(MODEL, g)) for g in range(1, 11)]
        assert all(a > b for a, b in zip(rates, rates[1:]))


class TestSnr:
    def test_reference_value(self):
        assert snr(1.0, MODEL, 6.0) == pytest.approx(2.8159262270582555, rel=1e-12)

    def test_components_identity(self):
        """The closed form equals peak height over derivative noise sd,
        computed through the kernel and moment code paths."""
        for gamma in (0.5, 2.0, 6.0, 10.0):
            m = closed_form_moments(MODEL, gamma)
            w0 = center_tap(KernelSpec(gamma=gamma))
            for jump in (1.0, -2.5):
                expected = abs(jump) * w0 / m.sd_d1
                assert snr(jump, MODEL, gamma) == pytest.approx(expected, rel=1e-12)

    def test_dip_location_on_grid(self):
        grid = np.arange(0.5, 10.01, 0.5)
        vals = [snr(1.0, MODEL, g) for g in grid]
        best = grid[int(np.argmin(vals))]
        nearest = grid[int(np.argmin(np.abs(grid - math.sqrt(2) * MODEL.nu)))]
        assert best == nearest == 3.0

    def test_white_noise_strictly_increasing(self):
        white = NoiseModel(sigma=1.0, nu=0.0)
        vals = [snr(1.0, white, g) for g in np.arange(0.5, 10.01, 0.5)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_jump_sign_irrelevant(self):
        assert snr(-3.0, MODEL, 6.0) == snr(3.0, MODEL, 6.0)


class TestApproxPower:
    def test_half_at_peak_height(self):
        w0 = center_tap(KernelSpec(gamma=6.0))
        assert approx_power(2.0, 2.0 * w0, MOMENTS, 6.0) == 0.5

    @pytest.mark.parametrize("gamma", [0.01, 0.1, 0.2])
    def test_bandwidths_below_one_grid_step_support(self, gamma):
        """The center value needs no sampled kernel, so bandwidths whose
        support is narrower than one grid step are accepted."""
        w0 = 1.0 / math.sqrt(2.0 * math.pi) / gamma
        assert approx_power(2.0, 2.0 * w0, MOMENTS, gamma) == 0.5

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan])
    def test_refuses_a_bandwidth_that_is_not_positive(self, gamma):
        with pytest.raises(InvalidParameterError, match="gamma must be positive"):
            approx_power(1.0, 0.0, MOMENTS, gamma)

    def test_limits(self):
        assert approx_power(1.0, -math.inf, MOMENTS, 6.0) == 1.0
        assert approx_power(1.0, math.inf, MOMENTS, 6.0) == 0.0

    def test_strong_jump_near_one(self):
        u_star = table_row()["u_star"]
        value = approx_power(3.0, u_star, MOMENTS, 6.0)
        assert 0.99 < value < 1.0

    def test_monotone_in_jump(self):
        u = 0.05
        vals = [approx_power(a, u, MOMENTS, 6.0) for a in (0.5, 1.0, 2.0, 3.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestAsymptoticThreshold:
    def test_pvalue_reference(self):
        assert table_row()["q_star"] == pytest.approx(0.01013966970291401, rel=1e-12)

    def test_threshold_reference(self):
        assert table_row()["u_star"] == pytest.approx(0.06953311886706356, abs=1e-10)

    def test_inverse_contract(self):
        row = table_row()
        assert abs(peak_height_tail(row["u_star"], MOMENTS) - row["q_star"]) < 1e-10

    def test_alpha_near_one_gives_low_threshold(self):
        # as alpha approaches 1 the limiting threshold dives below the
        # entire null height distribution
        rows = [table_row(alpha=a) for a in (0.99, 1.0 - 1e-6, 1.0 - 1e-12)]
        thresholds = [row["u_star"] for row in rows]
        assert all(a > b for a, b in zip(thresholds, thresholds[1:]))
        assert rows[-1]["q_star"] == pytest.approx(1.0, abs=1e-9)
        assert thresholds[-1] < -3 * MOMENTS.sd_d1

    def test_degenerate_config(self):
        with pytest.raises(InvalidParameterError, match="no null region remains"):
            table_row(gamma=6.0, density=0.05)  # occupancy 2*4*6*0.05 = 2.4


class TestFdrUpperBound:
    def test_bh_mode_reference(self):
        assert table_row()["fdr_bound_bh"] == pytest.approx(0.04026864101637727, rel=1e-12)

    def test_bh_mode_never_exceeds_alpha(self):
        for alpha in (0.01, 0.05, 0.2):
            for density in (0.001, 0.005, 0.01):
                for row in table_rows((1.0, 3.0, 6.0, 10.0), alpha, density):
                    assert row["fdr_bound_bh"] <= alpha

    def test_monotone_in_density(self):
        # more change points leave fewer null extrema per true one
        bounds = [table_row(density=d)["fdr_bound_bh"] for d in (0.002, 0.005, 0.01)]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))


class TestTheoreticalPowerCurve:
    GRID = np.array([0.5] + list(range(1, 11)), dtype=float)

    def test_reference_values(self):
        curve = power_column(MODEL, 1.0, [1.0, 3.0, 6.0, 10.0], 0.01, 0.05)
        assert curve == pytest.approx(
            [0.561613816234982, 0.21660100165552032, 0.4487331571729915, 0.8026235715258311],
            rel=1e-9,
        )

    def test_stronger_jump_dominates(self):
        weak = power_column(MODEL, 1.0, self.GRID, 0.01, 0.05)
        strong = power_column(MODEL, 3.0, self.GRID, 0.01, 0.05)
        assert np.all(strong > weak)

    def test_values_are_probabilities(self):
        curve = power_column(MODEL, 2.0, self.GRID, 0.01, 0.05)
        assert np.all((curve >= 0.0) & (curve <= 1.0))

    def test_dip_near_snr_minimum(self):
        curve = power_column(MODEL, 1.0, self.GRID, 0.01, 0.05)
        best = self.GRID[int(np.argmin(curve))]
        nearest = self.GRID[int(np.argmin(np.abs(self.GRID - math.sqrt(2) * MODEL.nu)))]
        assert best == nearest == 3.0

    def test_realized_power_tracks_curve_for_strong_jumps(self):
        """For strong jumps the simulated power stays within 0.05 of the
        analytic approximation."""
        from stemcpd import SimulateRequest, run_simulation

        gammas = (2.0, 6.0, 10.0)
        for jump in (2.0, 3.0):
            req = SimulateRequest(
                length=6000, separation=100, jumps=(jump,), gammas=gammas,
                tolerances=(8.0,), alpha=0.05, replications=60, seed=71,
            )
            realized = {c.gamma: c.power for c in run_simulation(req)}
            curve = power_column(MODEL, jump, gammas, 1.0 / 100, 0.05)
            for gamma, predicted in zip(gammas, curve):
                assert realized[gamma] > predicted - 0.05


class TestTheoryTable:
    HEADER = ["gamma", "var_d1", "var_d2", "var_d3", "delta", "null_rate", "q_star", "u_star",
              "fdr_bound_bh", "snr_j1", "snr_j3", "snr_j1", "power_j1", "power_j3", "power_j1"]

    def test_rows_are_the_formulas(self):
        # a repeated jump keeps its repeated columns, in grid order
        header, rows = theory_table(MODEL, (6.0, 1.0), (1.0, 3.0, 1.0), 0.01, 0.05)
        assert header == self.HEADER
        assert [row[0] for row in rows] == [6.0, 1.0]
        for row in rows:
            gamma = row[0]
            moments = closed_form_moments(MODEL, gamma)
            null_fraction, q_star, bound = step_up_limit(moments, gamma, 0.01, 0.05)
            assert row[:6] == [gamma, moments.var_d1, moments.var_d2, moments.var_d3,
                               moments.delta, null_max_rate(moments)]
            assert row[6] == pytest.approx(q_star, rel=1e-12)
            assert row[7] == invert_peak_height_tail(row[6], moments)
            assert row[8] == pytest.approx(bound, rel=1e-12)
            named = dict(zip(header, row))
            assert null_fraction_of(named, 0.05, 0.01) == pytest.approx(null_fraction, rel=1e-10)
            assert row[9:] == [
                *(snr(a, MODEL, gamma) for a in (1.0, 3.0, 1.0)),
                *(approx_power(a, row[7], moments, gamma) for a in (1.0, 3.0, 1.0)),
            ]
            assert all(type(value) is float for value in row)

    def test_null_fraction_from_columns(self):
        # occupancy 2*4*6*0.01 = 0.48
        assert step_up_limit(MOMENTS, 6.0, 0.01, 0.05)[0] == pytest.approx(0.52)
        assert null_fraction_of(table_row(), 0.05, 0.01) == pytest.approx(0.52, rel=1e-10)

    def test_each_bandwidth_computed_once(self, monkeypatch):
        from stemcpd import theory

        calls = Counter()

        def counted(f):
            def wrapper(*args):
                calls[f.__name__] += 1
                return f(*args)
            return wrapper

        for name in ("closed_form_moments", "invert_peak_height_tail"):
            monkeypatch.setattr(theory, name, counted(getattr(theory, name)))
        theory_table(MODEL, (2.0, 4.0, 8.0), (1.0, 2.0, 3.0), 0.01, 0.05)
        assert calls == {"closed_form_moments": 3, "invert_peak_height_tail": 3}

    @pytest.mark.parametrize("gammas, jumps, message", [
        ((), (1.0,), "gammas grid must be non-empty"),
        ((6.0,), (), "jumps grid must be non-empty"),
        ((6.0, math.nan), (1.0,), "gammas grid must be finite"),
        ((6.0,), (1.0, -math.inf), "jumps grid must be finite"),
        ((), (), "jumps grid must be non-empty"),
    ])
    def test_refuses_what_simulate_refuses(self, gammas, jumps, message):
        from stemcpd import SimulateRequest

        with pytest.raises(InvalidParameterError, match=message):
            theory_table(MODEL, gammas, jumps, 0.01, 0.05)
        with pytest.raises(InvalidParameterError, match=message):
            SimulateRequest(gammas=gammas, jumps=jumps)

    @pytest.mark.parametrize("gammas, density, alpha, message", [
        pytest.param((6.0,), 0.0, 0.05, "density must be positive", id="density-zero"),
        pytest.param((6.0,), -0.01, 0.05, "density must be positive", id="density-negative"),
        pytest.param((6.0,), math.nan, 0.05, "density must be positive", id="density-nan"),
        pytest.param((6.0,), 0.01, 0.0, "alpha must lie in", id="alpha-zero"),
        pytest.param((6.0,), 0.01, 1.0, "alpha must lie in", id="alpha-one"),
        pytest.param((6.0,), 0.01, math.nan, "alpha must lie in", id="alpha-nan"),
        # 2*4*12.5*0.01 is exactly 1, at the widest bandwidth, which comes last
        pytest.param((1.0, 12.5), 0.01, 0.05, "kernel occupancy .* reaches 1; no null region remains",
                     id="occupancy-one"),
        pytest.param((1.0, 6.0), 0.05, 0.05, "kernel occupancy .* reaches 1; no null region remains",
                     id="occupancy-above-one"),
    ])
    def test_refuses_before_any_row(self, monkeypatch, gammas, density, alpha, message):
        from stemcpd import theory

        def no_row(*args):
            raise AssertionError("a threshold was computed before the refusal")

        monkeypatch.setattr(theory, "invert_peak_height_tail", no_row)
        with pytest.raises(InvalidParameterError, match=message):
            theory_table(MODEL, gammas, (1.0,), density, alpha)


#: The paper design at growing jumps, scored at b = 10.
GRID = SimulateRequest(jumps=(1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0), gammas=(2.0, 6.0, 10.0),
                       tolerances=(10.0,), replications=300, seed=11)

FINITE_N = "the asymptotic columns leave out the finite-n terms; ROADMAP item 5"

#: The cells where an asymptotic column misses today, keyed by ``(check,
#: gamma, jump)``: the measured value and its cause.
KNOWN_MISSES = {
    ("fdr", 10.0, 3.0): f"FDR 0.0308 against a bound of 0.0248, 6.7 se over: {FINITE_N}",
    ("power", 2.0, 1.0): f"power 0.089 against power_j1 0.218: {FINITE_N}",
}


def grid_cells(check, gammas, jumps):
    """Every (gamma, jump) of ``gammas`` x ``jumps`` as a parameter set of
    ``check``, the known misses marked as strict xfails."""
    params = []
    for gamma, jump in itertools.product(gammas, jumps):
        reason = KNOWN_MISSES.get((check, gamma, jump))
        marks = [pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)]
        params.append(pytest.param(gamma, jump, marks=marks if reason else []))
    return params


@functools.lru_cache(maxsize=None)
def joined_grid():
    """Each cell of ``GRID``, keyed by ``(gamma, jump)``, joined with the
    asymptotic columns of its bandwidth as ``(cell, fdr_bound_bh,
    power_j*)``.  The theory rows use the grid's own density, one change
    point per ``SimulateRequest.separation`` samples."""
    header, rows = theory_table(GRID.noise_model(), GRID.gammas, GRID.jumps,
                                1.0 / SimulateRequest.separation, GRID.alpha)
    theory = {row[0]: dict(zip(header, row)) for row in rows}
    return {(cell.gamma, cell.jump): (cell, theory[cell.gamma]["fdr_bound_bh"],
                                      theory[cell.gamma][f"power_j{cell.jump:g}"])
            for cell in run_simulation(GRID, threads=1)}


def along_jumps(gamma):
    """The joined cells of bandwidth ``gamma``, in increasing jump order."""
    return [joined_grid()[gamma, jump] for jump in GRID.jumps]


class TestTheoryAgainstSimulation:
    """The abstract's asymptotic claims, checked on a simulated grid: the
    step-up FDR keeps below ``fdr_bound_bh`` and power approaches
    ``power_j*`` as the jumps grow.

    Every band is three Monte Carlo standard errors.  The se of a
    difference between two jumps' cells is taken as if they were
    independent, though they share each replicate's noise.  At gamma 10 the
    realized FDR lies above the bound at every jump (24.8 se at jump 1, 1.4
    se at jump 12), so there the gates are that the excess does not grow
    and is within the band at the largest jump; jump 3 is pinned as the
    known miss.  Power is within 0.05 of ``power_j*`` from jump 1.5 on;
    the jump-1 gaps (0.129, 0.078 and 0.051 at gamma 2, 6 and 10) are gated
    by their shrinking, and gamma 2's is pinned as the known miss.
    """

    def test_fdr_excess_does_not_grow_with_jump(self):
        # the bound is one number per bandwidth, so the excess moves as the FDR
        cells = [cell for cell, _, _ in along_jumps(10.0)]
        for a, b in zip(cells, cells[1:]):
            assert b.fdr - a.fdr <= 3.0 * math.hypot(a.fdr_se, b.fdr_se), (a.jump, b.jump)

    @pytest.mark.parametrize("gamma, jump", grid_cells("fdr", (2.0, 6.0), GRID.jumps)
                             + grid_cells("fdr", (10.0,), (3.0, 12.0)))
    def test_fdr_at_most_bound(self, gamma, jump):
        cell, bound, _ = joined_grid()[gamma, jump]
        assert cell.fdr <= bound + 3.0 * cell.fdr_se, (cell.fdr, cell.fdr_se, bound)

    @pytest.mark.parametrize("gamma", GRID.gammas)
    def test_power_does_not_fall_with_jump(self, gamma):
        cells = [cell for cell, _, _ in along_jumps(gamma)]
        for a, b in zip(cells, cells[1:]):
            assert b.power >= a.power - 3.0 * math.hypot(a.power_se, b.power_se), (a.jump, b.jump)

    @pytest.mark.parametrize("gamma", GRID.gammas)
    def test_power_gap_shrinks_with_jump(self, gamma):
        gaps = [(abs(predicted - cell.power), cell) for cell, _, predicted in along_jumps(gamma)]
        for (gap_a, a), (gap_b, b) in zip(gaps, gaps[1:]):
            assert gap_b <= gap_a + 3.0 * math.hypot(a.power_se, b.power_se), (a.jump, b.jump)

    @pytest.mark.parametrize("gamma, jump", grid_cells("power", (2.0,), (1.0,))
                             + grid_cells("power", GRID.gammas, GRID.jumps[1:]))
    def test_power_near_asymptotic(self, gamma, jump):
        cell, _, predicted = joined_grid()[gamma, jump]
        assert abs(predicted - cell.power) <= 0.05, (cell.power, predicted)
