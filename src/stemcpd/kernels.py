"""Smoothing kernels and their sampled derivative weights.

Smoothing uses the truncated Gaussian kernel scaled by a bandwidth g,
``w_g(t) = phi(t/g)/g`` on ``|t| <= 4g`` and zero outside.
Convolving a sequence with unit-grid samples of ``w_g`` estimates the
underlying smooth trend; convolving with samples of the k-th derivative of
``w_g`` estimates the k-th derivative of that trend.  Every convolution in
this package is driven by the weight sequences produced here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandwidthTooSmallError, InvalidParameterError

#: Support half-width of the truncated Gaussian, in bandwidth units.
GAUSSIAN_CUTOFF = 4.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(x):
    """Standard Gaussian density at x."""
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def _gauss_derivative(x: np.ndarray, order: int) -> np.ndarray:
    """Order-th derivative of the standard Gaussian density at x."""
    phi = _phi(x)
    if order == 0:
        return phi
    if order == 1:
        return -x * phi
    if order == 2:
        return (x * x - 1.0) * phi
    return (3.0 * x - x ** 3) * phi


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


def kernel_value(spec: KernelSpec, t) -> np.ndarray:
    """Analytic value of the order-th derivative of ``w_g`` at offset ``t``.

    Values outside the truncated support are exactly zero.  Inside the
    support the derivative of the untruncated Gaussian density is used;
    the jump introduced by truncation at the support edge is ignored.
    """
    t = np.asarray(t, dtype=float)
    x = t / spec.gamma
    out = _gauss_derivative(x, spec.order) / spec.gamma ** (spec.order + 1)
    return np.where(np.abs(t) <= GAUSSIAN_CUTOFF * spec.gamma, out, 0.0)


def kernel_weights(spec: KernelSpec) -> np.ndarray:
    """Unit-grid samples of the order-th derivative of ``w_g``.

    Returns an odd-length, centered array covering grid offsets ``-K .. K``
    with ``K = ceil(4*gamma)``.  Even orders are symmetrized exactly;
    odd orders are antisymmetrized exactly, so their true sum is zero.
    Order-0 weights are rescaled so that ``sum(weights) == 1`` (discrete
    unit action).
    """
    if GAUSSIAN_CUTOFF * spec.gamma < 1.0:
        raise BandwidthTooSmallError(
            f"kernel support half-width {GAUSSIAN_CUTOFF * spec.gamma:g} is "
            "narrower than one grid step"
        )
    k = spec.half_width()
    w = np.asarray(kernel_value(spec, np.arange(-k, k + 1)))
    if spec.order % 2 == 1:
        w = (w - w[::-1]) / 2.0
    else:
        w = (w + w[::-1]) / 2.0
    if spec.order == 0:
        w = w / math.fsum(w)
        w[k] += 1.0 - math.fsum(w)
    return w
