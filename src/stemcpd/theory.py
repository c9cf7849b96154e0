"""Analytic rates, signal-to-noise ratio, approximate power and FDR bounds.

These are the closed-form counterparts of the Monte Carlo quantities the
simulation harness measures: the expected density of null extrema, the
large-jump approximation to per-jump detection probability, the
deterministic limit of the step-up threshold, and the leading-term upper
bound on the step-up false discovery rate.  Asymptotic remainder terms are
not computable and are omitted throughout; the bound is leading-term only.
``theory_table`` is the one place the threshold and the bound are
computed, per bandwidth, as ``stemcpd theory`` prints them.
"""

import math

from scipy.special import ndtr

from .errors import InvalidParameterError
from .inference import SpectralMoments, closed_form_moments, invert_peak_height_tail
from .kernels import _SQRT_2PI, GAUSSIAN_CUTOFF
from .multitest import check_alpha, check_grid
from .signals import NoiseModel


def null_max_rate(moments: SpectralMoments) -> float:
    """Expected local maxima of the smoothed derivative noise per unit
    length: ``sqrt(var_d3/var_d2)/(2*pi)`` (the classical rate for a smooth
    stationary Gaussian process)."""
    return math.sqrt(moments.var_d3 / moments.var_d2) / (2.0 * math.pi)


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
    at a fixed height threshold ``u``: Phi((|jump|*w(0) - u)/sd), with the
    kernel's center value ``w(0) = 1/(gamma*sqrt(2*pi))``."""
    if not gamma > 0:
        raise InvalidParameterError("gamma must be positive")
    peak = abs(jump) * (1.0 / _SQRT_2PI / gamma)
    return float(ndtr((peak - u) / moments.sd_d1))


def theory_table(model: NoiseModel, gammas, jumps, density: float, alpha: float):
    """The analytic curves per bandwidth, as ``(header, rows)``.

    Each row holds, for one bandwidth of ``gammas`` in order, the bandwidth,
    its closed-form moments, the null maxima rate, the asymptotic step-up
    p-value and height thresholds ``q_star`` and ``u_star``, the step-up FDR
    bound, then the SNR and the approximate power at ``u_star`` of each jump
    of ``jumps`` in order (a repeated jump repeats its columns).  Both grids
    must be non-empty and finite.

    ``density`` is the expected number of change points per unit length,
    ``A``.  The kernel occupancy ``2*GAUSSIAN_CUTOFF*gamma*A`` must stay
    below one at every bandwidth, or no null region remains; the null
    fraction ``f`` is one minus it.  With ``r`` the null maxima rate,
    ``q_star = alpha*A/(A + 2*r*f*(1 - alpha))`` is the deterministic limit
    of the step-up p-value threshold, ``u_star`` its inverse height tail,
    and ``alpha*2*r*f/(2*r*f + A)`` the leading-term bound, never above
    ``alpha``.
    """
    check_grid("jumps", jumps)
    check_grid("gammas", gammas)
    if not density > 0:
        raise InvalidParameterError("density must be positive")
    check_alpha(alpha)
    # moments before occupancy: closed_form_moments refuses a bandwidth that
    # is not positive, or whose moments leave the floating-point range, by name
    grid = [(gamma, closed_form_moments(model, gamma)) for gamma in map(float, gammas)]
    if 2.0 * GAUSSIAN_CUTOFF * max(gammas) * density >= 1.0:
        raise InvalidParameterError(
            "kernel occupancy 2*GAUSSIAN_CUTOFF*gamma*density reaches 1; "
            "no null region remains"
        )
    header = ["gamma", "var_d1", "var_d2", "var_d3", "delta", "null_rate",
              "q_star", "u_star", "fdr_bound_bh"]
    header += [f"snr_j{a:g}" for a in jumps]
    header += [f"power_j{a:g}" for a in jumps]
    rows = []
    for gamma, moments in grid:
        rate = null_max_rate(moments)
        # null maxima and minima per unit length, outside every kernel support
        null_extrema = 2.0 * rate * (1.0 - 2.0 * GAUSSIAN_CUTOFF * gamma * density)
        q_star = alpha * density / (density + null_extrema * (1.0 - alpha))
        u_star = invert_peak_height_tail(q_star, moments)
        rows.append([
            gamma, moments.var_d1, moments.var_d2, moments.var_d3, moments.delta,
            rate, q_star, u_star, alpha * null_extrema / (null_extrema + density),
            *(snr(a, model, gamma) for a in jumps),
            *(approx_power(a, u_star, moments, gamma) for a in jumps),
        ])
    return header, rows
