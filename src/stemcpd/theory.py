"""Analytic rates, signal-to-noise ratio, approximate power and FDR bounds.

These are the closed-form counterparts of the Monte Carlo quantities the
simulation harness measures: the expected density of null extrema, the
large-jump approximation to per-jump detection probability, the
deterministic limit of the step-up height threshold, and leading-term
upper bounds on the false discovery rate.  Asymptotic remainder terms are
not computable and are omitted throughout; bounds are leading-term only.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateConfigError, InvalidParameterError
from .inference import SpectralMoments, closed_form_moments, invert_peak_height_tail, peak_height_tail
from .kernels import GAUSSIAN_CUTOFF, KernelSpec, kernel_value
from .multitest import check_alpha
from .signals import NoiseModel


@dataclass(frozen=True)
class TheoryConfig:
    """Inputs for threshold and bound formulas.

    ``density`` is the expected number of change points per unit length.
    The kernel occupancy ``2*GAUSSIAN_CUTOFF*gamma*density`` must stay below one,
    otherwise the null region vanishes and the formulas degenerate.
    """

    density: float
    alpha: float
    moments: SpectralMoments
    gamma: float

    def __post_init__(self) -> None:
        if not self.density > 0:
            raise InvalidParameterError("density must be positive")
        check_alpha(self.alpha)
        if not self.gamma > 0:
            raise InvalidParameterError("gamma must be positive")
        if self.null_fraction <= 0.0:
            raise DegenerateConfigError(
                "kernel occupancy 2*GAUSSIAN_CUTOFF*gamma*density reaches 1; "
                "no null region remains"
            )

    @property
    def null_fraction(self) -> float:
        """Leading-term fraction of the domain outside all smoothed supports."""
        return 1.0 - 2.0 * GAUSSIAN_CUTOFF * self.gamma * self.density


def null_max_rate(moments: SpectralMoments) -> float:
    """Expected local maxima of the smoothed derivative noise per unit
    length: ``sqrt(var_d3/var_d2)/(2*pi)`` (the classical rate for a smooth
    stationary Gaussian process)."""
    return math.sqrt(moments.var_d3 / moments.var_d2) / (2.0 * math.pi)


def null_max_rate_above(u: float, moments: SpectralMoments) -> float:
    """Expected local maxima per unit length with height above ``u``."""
    return null_max_rate(moments) * peak_height_tail(u, moments)


def snr(jump: float, model: NoiseModel, gamma: float) -> float:
    """Peak height of a smoothed jump relative to the derivative noise sd.

    For the Gaussian autocorrelation model this is
    ``sqrt(2)*|jump|/(sigma*pi^(1/4)) * (gamma^2+nu^2)^(3/4)/gamma``.
    In gamma it dips to a local minimum at ``sqrt(2)*nu`` and increases
    thereafter; for white noise it increases throughout.
    """
    if not gamma > 0:
        raise InvalidParameterError("gamma must be positive")
    return (
        math.sqrt(2.0)
        * abs(jump)
        / (model.sigma * math.pi ** 0.25)
        * (gamma ** 2 + model.nu ** 2) ** 0.75
        / gamma
    )


def approx_power(jump: float, u: float, moments: SpectralMoments, gamma: float) -> float:
    """Large-jump approximation to the probability of detecting one jump
    at a fixed height threshold ``u``: Phi((|jump|*w(0) - u)/sd)."""
    peak = abs(jump) * float(kernel_value(KernelSpec(gamma=gamma), 0.0))
    if u == -math.inf:
        return 1.0
    if u == math.inf:
        return 0.0
    return float(ndtr((peak - u) / moments.sd_d1))


def asymptotic_bh_pvalue(cfg: TheoryConfig) -> float:
    """Deterministic limit of the step-up p-value threshold.

    ``alpha*A / (A + 2*rate*(1 - 2*GAUSSIAN_CUTOFF*gamma*A)*(1 - alpha))`` with
    ``A`` the change-point density and ``rate`` the null maxima rate.
    """
    rate = null_max_rate(cfg.moments)
    a = cfg.density
    return cfg.alpha * a / (a + 2.0 * rate * cfg.null_fraction * (1.0 - cfg.alpha))


def asymptotic_bh_threshold(cfg: TheoryConfig) -> float:
    """Deterministic limit of the step-up height threshold (inverse tail of
    the asymptotic p-value threshold)."""
    return invert_peak_height_tail(asymptotic_bh_pvalue(cfg), cfg.moments)


def fdr_upper_bound(cfg: TheoryConfig, u: float = None) -> float:
    """Leading-term upper bound on the false discovery rate.

    With a fixed height threshold ``u`` the bound is
    ``2*r_u*f / (2*r_u*f + A)`` where ``r_u`` is the null exceedance rate
    and ``f`` the null fraction.  With ``u`` omitted, the bound for the
    step-up procedure is ``alpha`` times the same ratio evaluated with the
    threshold-free rate, hence never exceeds ``alpha``.
    """
    if u is None:
        rate = 2.0 * null_max_rate(cfg.moments) * cfg.null_fraction
        return cfg.alpha * rate / (rate + cfg.density)
    rate = 2.0 * null_max_rate_above(u, cfg.moments) * cfg.null_fraction
    return rate / (rate + cfg.density)


def theoretical_power_curve(
    jump: float,
    model: NoiseModel,
    gammas,
    density: float,
    alpha: float,
) -> np.ndarray:
    """Approximate power at the asymptotic step-up threshold, per bandwidth.

    For each bandwidth: compute closed-form moments, the deterministic
    height threshold, and the large-jump detection probability there.
    """
    powers = []
    for gamma in np.asarray(gammas, dtype=float):
        moments = closed_form_moments(model, gamma)
        cfg = TheoryConfig(density=density, alpha=alpha, moments=moments, gamma=gamma)
        u_star = asymptotic_bh_threshold(cfg)
        powers.append(approx_power(jump, u_star, moments, gamma))
    return np.array(powers)
