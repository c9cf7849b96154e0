"""Spectral moments of the smoothed noise and p-values for extremum heights.

Under the null the derivative-smoothed noise is a smooth stationary
Gaussian process, and the height of one of its local maxima has a known
distribution driven entirely by three variances: those of the first,
second and third derivatives of the smoothed noise.  The moments come
either in closed form (Gaussian autocorrelation model) or from trimmed
empirical variances of the observed smoothed derivatives.  P-values for a
whole candidate set come from one array evaluation of the height tail; the
height threshold inverts that same tail by secant-slope Newton steps on its
logarithm, and ends on the adjacent floats that bracket the target.  The
tail is the one place the null height law is written.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtr, ndtri

from .detect import Extrema, smooth
from .errors import InvalidParameterError, MomentEstimationError
from .kernels import _SQRT_2PI, KernelSpec, _phi
from .signals import NoiseModel, TimeSeries

_SQRT_PI = math.sqrt(math.pi)
_TINY = np.finfo(float).tiny

#: Heights beyond this many standard deviations ``sd_d1`` leave the height
#: tail saturated: its Gaussian factors are exp(-800) == 0.0
#: and its normal integrals exactly 0 or 1 there.  Clamping heights to it
#: changes no result and keeps phi's square from overflowing.
_SATURATION = 40.0

#: Fraction of largest-magnitude smoothed-derivative samples that the
#: empirical moment estimate discards.
_TRIM = 0.1


@dataclass(frozen=True)
class SpectralMoments:
    """Variances of the first three derivatives of the smoothed noise.

    ``delta = var_d1*var_d3 - var_d2**2`` must be strictly positive, which
    holds for any non-degenerate process smooth enough to have all three
    derivatives (strict Cauchy-Schwarz).
    """

    var_d1: float
    var_d2: float
    var_d3: float
    delta: float = field(init=False)

    def __post_init__(self) -> None:
        if not all(0 < v < math.inf for v in (self.var_d1, self.var_d2, self.var_d3)):
            raise InvalidParameterError("derivative variances must be finite and positive")
        delta = self.var_d1 * self.var_d3 - self.var_d2 * self.var_d2
        if not delta > 0:
            raise InvalidParameterError(
                f"degenerate spectral moments: delta = {delta:g} is not positive"
            )
        object.__setattr__(self, "delta", delta)

    @property
    def sd_d1(self) -> float:
        """Standard deviation of the smoothed derivative itself."""
        return math.sqrt(self.var_d1)


def closed_form_moments(model: NoiseModel, gamma: float) -> SpectralMoments:
    """Exact moments for Gaussian-autocorrelation noise under a Gaussian kernel.

    Smoothing noise of correlation scale ``nu`` with a Gaussian kernel of
    bandwidth ``gamma`` gives a Gaussian-shaped combined kernel of scale
    ``xi = sqrt(gamma^2 + nu^2)``; the variance of its k-th derivative is
    ``(2k-1)!! * sigma^2 / (2^(k+1) sqrt(pi) xi^(2k+1))``.  Inputs whose
    moments leave the floating-point range are refused by name.
    """
    if not gamma > 0:
        raise InvalidParameterError("gamma must be positive")
    xi = math.hypot(gamma, model.nu)
    try:
        s2 = model.sigma ** 2
        return SpectralMoments(
            var_d1=s2 / (4.0 * _SQRT_PI * xi ** 3),
            var_d2=3.0 * s2 / (8.0 * _SQRT_PI * xi ** 5),
            var_d3=15.0 * s2 / (16.0 * _SQRT_PI * xi ** 7),
        )
    except (ArithmeticError, InvalidParameterError) as exc:
        # the true moments are finite, positive and non-degenerate for any
        # positive sigma, nu and gamma: only overflow or underflow gets here
        raise InvalidParameterError(
            f"closed-form moments are out of floating-point range at sigma={model.sigma:g}, "
            f"nu={model.nu:g}, gamma={gamma:g}"
        ) from exc


def trim_correction(trim: float) -> float:
    """Variance retained by a standard normal after discarding the top
    ``trim`` fraction by absolute value (used to de-bias trimmed variances)."""
    if not 0.0 <= trim < 0.5:
        raise InvalidParameterError("trim fraction must lie in [0, 0.5)")
    if trim == 0.0:
        return 1.0
    c = ndtri(1.0 - trim / 2.0)
    return 1.0 - 2.0 * c * float(_phi(c)) / (1.0 - trim)


def _trimmed_variance(d: TimeSeries) -> float:
    x = d.values[d.interior_slice()]
    n = len(x)
    drop = int(math.ceil(_TRIM * n))
    # one copy of the input, sorted and squared in place
    kept = np.abs(x)
    kept.sort()
    kept = kept[: n - drop]
    np.square(kept, out=kept)
    return float(np.mean(kept) / trim_correction(_TRIM))


def estimate_moments_empirical(series: TimeSeries, gamma: float, dy: TimeSeries) -> SpectralMoments:
    """Estimate the spectral moments from the observed sequence itself.

    ``dy`` is the order-1 smoothed derivative the detector already holds;
    orders 2 and 3 are smoothed here.  Each variance is estimated by a
    trimmed second moment: the ``ceil(0.1*n)`` interior samples of largest
    absolute value are discarded and the mean square of the rest is
    rescaled by the trimmed-normal variance factor, so the estimator is
    unbiased under a pure-noise sequence.  Trimming suppresses the extreme
    derivative values that change points produce, without assuming their
    presence or location.  An interior shorter than 100 samples raises
    ``MomentEstimationError``, as do variances that vanish, leave the
    floating-point range or are inconsistent.
    """
    lo, hi = dy.interior
    if hi - lo < 100:
        raise MomentEstimationError(f"interior too short for moment estimation ({hi - lo} samples)")
    variances = [_trimmed_variance(dy)]
    variances += (_trimmed_variance(smooth(series, KernelSpec(gamma=gamma, order=order)))
                  for order in (2, 3))
    if min(variances) <= 0.0:
        raise MomentEstimationError("smoothed derivatives vanish; cannot estimate moments")
    v1, v2, v3 = variances
    if not all(_TINY <= v < math.inf for v in (v1 * v3, v2 * v2)):
        raise MomentEstimationError(
            "empirical moments are out of floating-point range for an input of magnitude "
            f"{np.max(np.abs(series.values)):g} at gamma={gamma:g}")
    if v1 * v3 - v2 * v2 <= 0.0:
        raise MomentEstimationError(
            "estimated moments are inconsistent (nonpositive determinant)"
        )
    return SpectralMoments(var_d1=v1, var_d2=v2, var_d3=v3)


def _bump_coefficient(moments: SpectralMoments) -> float:
    """``sqrt(2*pi*var_d2^2/(var_d3*var_d1))``, the weight of the height
    tail's bump term ``phi(u/sd)*Phi(...)``."""
    return _SQRT_2PI * moments.var_d2 / math.sqrt(moments.var_d3 * moments.var_d1)


def _heights(u, sd: float):
    """Heights clamped to ``+/-_SATURATION*sd``: a scalar as a Python float,
    anything else as a float64 array."""
    limit = _SATURATION * sd
    if isinstance(u, (float, int)):
        return min(max(float(u), -limit), limit)
    return np.minimum(np.maximum(np.asarray(u, dtype=float), -limit), limit)


def peak_height_tail(u, moments: SpectralMoments):
    """Right-tail probability of the height of a null local maximum.

    For a smooth stationary Gaussian process with derivative variances
    ``(var_d1, var_d2, var_d3)``, the probability that a local maximum
    exceeds height ``u`` is

        Q(u*sqrt(var_d3/delta))
        + sqrt(2*pi*var_d2^2/(var_d3*var_d1)) * phi(u/sd)
          * Phi(u*var_d2/(sd*sqrt(delta)))

    with ``sd = sqrt(var_d1)`` and ``Q`` the standard normal survival
    function.  Strictly decreasing, with limits 1 and 0 at -inf/+inf.
    Accepts scalars or arrays; results are clipped into (0, 1] so extreme
    heights never round to an exact zero p-value.
    """
    sd = moments.sd_d1
    u = _heights(u, sd)
    sqrt_delta = math.sqrt(moments.delta)
    tail = ndtr(-u * math.sqrt(moments.var_d3) / sqrt_delta)
    coef = _bump_coefficient(moments)
    bump = coef * _phi(u / sd) * ndtr(u * moments.var_d2 / (sd * sqrt_delta))
    out = np.minimum(np.maximum(tail + bump, _TINY), 1.0)
    return out if out.ndim else float(out)


def invert_peak_height_tail(p: float, moments: SpectralMoments) -> float:
    """Height ``u`` with ``peak_height_tail(u) == p``, to the last bit.

    The answer is ``0.5*(lo+hi)`` for the adjacent floats ``lo < hi`` with
    ``tail(lo) > p >= tail(hi)``, found by Newton steps on ``log tail``
    whose slope is the secant through the last two iterates, so the tail is
    the only formula evaluated.  The first iterate is the bump-term
    asymptote ``sd*sqrt(2*ln(coef/(p*sqrt(2*pi))))`` (0 when that is
    undefined), and the first slope the bump term's Gaussian slope
    ``-max(|u|, sd)/var_d1`` there.  The evaluated heights are kept as a
    bracket ``[lo, hi]``; a step that leaves the bracket, or that no falling
    slope defines, is replaced by a bisection step, or by a step of
    ``max(sd, |u|)`` while one side is still open.  Once the steps no
    longer move, a walk from the last iterate closes the bracket to
    adjacent floats: its first stride is one ``math.nextafter`` step (or,
    if wider, the width over which the last slope moves the tail by one
    rounding step), strides double while the crossing lies ahead, and
    bisection takes over once it is passed.  Where the rounded tail
    decreases monotonically through the crossing the pair is unique, and
    from the asymptote a few tail evaluations find it.

    ``p == 1`` maps to ``-inf``.  A ``p`` below the smallest normal float
    maps to ``+inf``: no clipped tail is that small, so no height reaches it.
    """
    if not 0.0 < p <= 1.0:
        raise InvalidParameterError("target probability must lie in (0, 1]")
    if p == 1.0:
        return -math.inf
    if p < _TINY:
        return math.inf
    sd = moments.sd_d1
    log_p = math.log(p)
    ratio = _bump_coefficient(moments) / (p * _SQRT_2PI)
    u = sd * math.sqrt(2.0 * math.log(ratio)) if ratio > 1.0 else 0.0
    slope = -max(abs(u), sd) / moments.var_d1  # the bump term's slope of log tail
    lo, hi = -math.inf, math.inf
    previous = None
    while True:
        tail = peak_height_tail(u, moments)
        if tail > p:
            lo = u
        else:
            hi = u
        log_tail = math.log(tail)
        if previous is not None:  # the secant through the last two iterates
            slope = (log_tail - previous[1]) / (u - previous[0])
        nxt = u - (log_tail - log_p) / slope if slope < 0.0 else math.nan
        if nxt == u:
            break
        if not lo < nxt < hi:  # also catches a NaN step
            if lo == -math.inf:
                nxt = hi - max(sd, abs(hi))
            elif hi == math.inf:
                nxt = lo + max(sd, abs(lo))
            else:
                nxt = 0.5 * (lo + hi)
                if nxt == lo or nxt == hi:
                    return nxt
        previous = u, log_tail
        u = nxt
    # u is the last iterate and one end of the bracket; any open side lies ahead of it
    ahead = 1.0 if u == lo else -1.0
    # one float step, or the width of a float-level plateau of the tail if wider:
    # from u = 0 on a plateau, float steps alone would double about 1,000 times
    stride = max(abs(math.nextafter(u, ahead * math.inf) - u), math.ulp(tail) / tail / -slope)
    while True:
        trial = u + ahead * stride
        if lo > -math.inf and hi < math.inf:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                return mid
            if not abs(trial - u) < abs(mid - u):
                trial = mid
        short = peak_height_tail(trial, moments) > p
        if short:
            lo = trial
        else:
            hi = trial
        if short == (ahead > 0):  # the crossing is still ahead
            u, stride = trial, 2.0 * stride


def assign_pvalues(extrema: Extrema, moments: SpectralMoments) -> Extrema:
    """Attach a p-value to every extremum.

    The result is a new ``Extrema`` in the same order.  Maxima are tested
    against the right tail at their height; minima against the right tail
    at the negated height, by sign symmetry of the noise process.
    """
    return replace(extrema, p_value=peak_height_tail(extrema.sign * extrema.height, moments))
