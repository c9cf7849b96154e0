"""Smoothing kernels and their sampled derivative weights.

Smoothing uses the truncated Gaussian kernel scaled by a bandwidth g,
``w_g(t) = phi(t/g)/g`` on ``|t| <= 4g`` and zero outside.
Convolving a sequence with unit-grid samples of ``w_g`` estimates the
underlying smooth trend; convolving with samples of the k-th derivative of
``w_g`` estimates the k-th derivative of that trend.  Every convolution in
this package is driven by the weight sequences produced here and summed by
``convolve_weights`` in one fixed order, so its bits do not depend on the
BLAS kernel a CPU selects.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

#: Support half-width of the truncated Gaussian, in bandwidth units.
GAUSSIAN_CUTOFF = 4.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Output samples per block in ``convolve_weights``: the block, its scratch
#: term and the two input windows (256 KiB each) stay in a per-core L2
#: cache across all lags; much smaller blocks pay more in ufunc calls.
_BLOCK = 32768


def _phi(x):
    """Standard Gaussian density at x."""
    return np.exp(-0.5 * (x * x)) / _SQRT_2PI


@dataclass(frozen=True)
class KernelSpec:
    """A bandwidth-scaled truncated Gaussian and a derivative order.

    Parameters
    ----------
    gamma : float
        Bandwidth in grid steps.  Must be positive, and the support
        half-width ``GAUSSIAN_CUTOFF*gamma`` finite.
    order : int
        Derivative order, 0 through 3.  Order 0 is plain smoothing.
    """

    gamma: float
    order: int = 0

    def __post_init__(self) -> None:
        if not (self.gamma > 0 and GAUSSIAN_CUTOFF * self.gamma < math.inf):
            raise InvalidParameterError(
                "gamma must be positive, and the support half-width 4*gamma finite"
            )
        if self.order not in (0, 1, 2, 3):
            raise InvalidParameterError("order must be 0, 1, 2 or 3")

    def half_width(self) -> int:
        """Number of weight samples on each side of the center."""
        return int(math.ceil(GAUSSIAN_CUTOFF * self.gamma))


def kernel_weights(spec: KernelSpec) -> np.ndarray:
    """Unit-grid samples of the order-th derivative of ``w_g``.

    Returns an odd-length, centered array covering grid offsets ``-K .. K``
    with ``K = ceil(4*gamma)``: exactly symmetric for even orders as
    sampled, antisymmetrized exactly for odd orders, so their true sum is zero.
    Inside the support each tap is the derivative of the untruncated
    Gaussian density, ignoring the jump that truncation makes at the edge;
    a tap past ``4*gamma`` is exactly zero.
    """
    if GAUSSIAN_CUTOFF * spec.gamma < 1.0:
        raise InvalidParameterError(
            f"kernel support half-width {GAUSSIAN_CUTOFF * spec.gamma:g} is "
            "narrower than one grid step"
        )
    k = spec.half_width()
    t = np.arange(-k, k + 1, dtype=float)
    x = t / spec.gamma
    phi = _phi(x)
    if spec.order == 0:
        w = phi
    elif spec.order == 1:
        w = -x * phi
    elif spec.order == 2:
        w = (x * x - 1.0) * phi
    else:
        w = (3.0 * x - x ** 3) * phi
    w = np.where(np.abs(t) <= GAUSSIAN_CUTOFF * spec.gamma,
                 w / spec.gamma ** (spec.order + 1), 0.0)
    # not a no-op: numpy's ``x ** 3`` does not round x and -x to exact
    # negatives, so raw order-3 samples miss antisymmetry by an ulp at some
    # offsets (at gamma 3, 6, 10 and 50 among others).  Without this step
    # convolve_weights would lose its exact zeros on flat input, and every
    # empirical-moment result would move.
    if spec.order % 2 == 1:
        w = (w - w[::-1]) / 2.0
    return w


def convolve_weights(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Centered discrete convolution with a symmetric or antisymmetric kernel,
    over the interior where the whole kernel fits.

    With ``k`` the kernel's half-width, output sample t in ``[k, n-k)``
    equals ``convolve(values, weights, mode='same')[t]`` but is
    accumulated in symmetric pairs, so exactly antisymmetric weights yield
    exactly zero output wherever the input is locally constant.  Every
    sample outside that interior (all of them when n < 2k+1) is exactly
    +0.0.

    Every interior sample is summed in one fixed order: the center term,
    then ``w[k+j] * (y[t-j] -/+ y[t+j])`` for lags j = 1, 2, ... in turn.
    Results are therefore bit-for-bit independent of the block size used
    to keep the working set in cache.
    """
    n = len(values)
    k = (len(weights) - 1) // 2
    if len(weights) != 2 * k + 1:
        raise InvalidParameterError("weights must have odd length")
    center = weights[k]
    combine = np.subtract if np.array_equal(weights[::-1], -weights) else np.add
    if combine is np.add and not np.array_equal(weights[::-1], weights):
        raise InvalidParameterError("weights must be symmetric or antisymmetric")
    # `out` starts at +0.0 and only ever has terms added to it, so it never
    # holds -0.0 and the sign of a zero term cannot show
    out = np.zeros(n)
    term = np.empty(min(n, _BLOCK))
    for lo in range(k, n - k, _BLOCK):
        hi = min(lo + _BLOCK, n - k)
        acc, tmp = out[lo:hi], term[: hi - lo]
        if center != 0.0:
            np.multiply(values[lo:hi], center, out=tmp)
            acc += tmp
        for j in range(1, k + 1):
            # w[j]*y[t-j] + w[-j]*y[t+j] = w[j]*(y[t-j] -/+ y[t+j])
            combine(values[lo - j : hi - j], values[lo + j : hi + j], out=tmp)
            tmp *= weights[k + j]
            acc += tmp
    return out
