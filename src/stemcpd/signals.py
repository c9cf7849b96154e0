"""Piecewise-constant ground-truth signals and stationary Gaussian noise.

The observation model is a step signal plus zero-mean stationary Gaussian
noise, sampled on the unit grid t = 1..length.  Noise is built by
convolving an i.i.d. standard normal sequence with the truncated Gaussian
of ``kernels`` at scale ``nu`` (white noise when ``nu`` is zero), which
makes the smoothed process differentiable enough for the extremum height
theory to apply.
"""

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError
from .kernels import KernelSpec, convolve_weights, kernel_weights

@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A real-valued sequence on the unit grid: sample ``i`` sits at
    t = i + 1.

    ``interior`` is a half-open index range marking where a smoothing
    kernel's full support fit inside the data; it is attached by the
    smoothing step, whose output is exactly zero outside it, and is None
    otherwise.
    """

    values: np.ndarray
    interior: tuple = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise InvalidParameterError("values must be one-dimensional")
        # a NaN propagates to both extremes and an inf is one of them; no
        # mask is allocated, and unlike a sum neither extreme can overflow
        if not (math.isfinite(values.min(initial=0.0)) and math.isfinite(values.max(initial=0.0))):
            raise InvalidParameterError("values must be finite")

    def __len__(self) -> int:
        return len(self.values)

    def interior_slice(self) -> slice:
        if self.interior is None:
            return slice(0, len(self.values))
        return slice(self.interior[0], self.interior[1])


@dataclass(frozen=True)
class NoiseModel:
    """Stationary Gaussian noise: white noise of scale ``sigma`` convolved
    with a Gaussian density of scale ``nu`` (``nu=0`` means white noise)."""

    sigma: float
    nu: float

    def __post_init__(self) -> None:
        if not 0 < self.sigma < math.inf:
            raise InvalidParameterError(f"sigma must be positive and finite, got {self.sigma}")
        if not 0 <= self.nu < math.inf:
            raise InvalidParameterError(f"nu must be non-negative and finite, got {self.nu}")


@dataclass(frozen=True, eq=False)
class PiecewiseSignal:
    """Ground truth: jump locations and sizes of a piecewise-constant mean.

    ``jumps`` is a sequence of ``(location, size)`` pairs with finite,
    strictly increasing locations and finite nonzero sizes; the signal
    holds them as the read-only float64 arrays ``locations`` and ``sizes``.
    The sampled domain is t = 1..length; a jump at location v means the
    mean changes between the samples at v-1 and v (the sample at v is on
    the new level).  No jumps describe a flat signal for null experiments.
    """

    jumps: InitVar[tuple]
    length: int
    locations: np.ndarray = field(init=False)
    sizes: np.ndarray = field(init=False)

    def __post_init__(self, jumps) -> None:
        try:
            pairs = np.array(jumps, dtype=float).reshape(len(jumps), 2)
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError("jumps must be a sequence of (location, size) pairs") from exc
        if not np.all(np.isfinite(pairs)):
            raise InvalidParameterError("jump locations and sizes must be finite")
        if self.length <= 0:
            raise InvalidParameterError("length must be positive")
        locations, sizes = _read_only(pairs.T)
        if np.any(np.diff(locations) <= 0.0):
            raise InvalidParameterError("jump locations must be strictly increasing")
        if np.any(sizes == 0.0):
            raise InvalidParameterError("jump sizes must be nonzero")
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "sizes", sizes)

    @property
    def n_jumps(self) -> int:
        return len(self.locations)

    def min_separation(self) -> float:
        return float(np.min(np.diff(self.locations), initial=math.inf))

    @cached_property
    def mean(self) -> np.ndarray:
        """The step signal on the unit grid t = 1..length, built once per
        signal (on first use, so an unused signal pickles small) and
        read-only."""
        t = np.arange(1, self.length + 1, dtype=float)
        # cumsum adds left to right from the first jump on, so each level is
        # rounded exactly as repeated `mu[t >= v] += a` would round it
        levels = np.concatenate(([0.0], np.cumsum(self.sizes)))
        return _read_only(levels[np.searchsorted(self.locations, t, side="right")])


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=float, order="C")
    array.flags.writeable = False
    return array


def make_staircase(jump: float, separation: int, length: int) -> PiecewiseSignal:
    """Staircase signal stepping by ``jump`` every ``separation`` samples.

    Change points sit at every multiple of ``separation`` strictly inside
    the sampled domain (multiples equal to ``length`` are excluded: a jump
    at the final sample has no post-jump segment to detect).
    """
    if jump == 0.0:
        raise InvalidParameterError("jump size must be nonzero")
    separation = int(separation)
    if separation < 2:
        raise InvalidParameterError("separation must be at least 2")
    if length <= separation:
        raise InvalidParameterError("length must exceed separation")
    locations = np.arange(separation, length, separation)
    return PiecewiseSignal(np.column_stack((locations, np.full(len(locations), jump))), length)


def check_sampled_nu(nu: float) -> None:
    """Refuse a noise scale that ``sample_noise`` cannot draw: 0 < nu < 0.5.

    There the unit-grid filter ``phi(k/nu)/nu`` is not a Gaussian filter
    and the noise is not the model's: on 4e5 samples at gamma 6 the
    smoothed derivative's variance is about 16 times the closed form at
    nu = 0.1 and 1.2 times at 0.4, against 1.0 from nu = 0.5 up.
    """
    if 0.0 < nu < 0.5:
        raise InvalidParameterError(
            f"noise scale nu={nu:g} is too fine for the unit grid: sampled noise needs "
            "nu = 0 (white noise) or nu >= 0.5"
        )


def sample_noise(model: NoiseModel, length: int, seed: int) -> TimeSeries:
    """Draw one realization of the noise process on the grid t = 1..length.

    White noise is drawn on a grid padded by the filter's half-width (four
    correlation scales) on each side before convolution so the returned
    window is stationary throughout.  The filter is the order-0 weights
    ``kernel_weights(KernelSpec(nu))``, so the process variance is about
    ``sigma^2/(2 sqrt(pi) nu)``.  A ``nu`` that ``check_sampled_nu``
    refuses, and a filter longer than ``length``, are refused.  Output is
    a deterministic function of (model, length, seed): the generator is
    numpy's PCG64, and the filter is summed by ``convolve_weights`` in one
    fixed order, so the BLAS kernel a CPU selects cannot move its bits.
    """
    if length < 1:
        raise InvalidParameterError("length must be at least 1")
    check_sampled_nu(model.nu)
    rng = np.random.default_rng(seed)
    if model.nu == 0.0:
        return TimeSeries(model.sigma * rng.standard_normal(length))
    spec = KernelSpec(gamma=model.nu)
    pad = spec.half_width()
    if 2 * pad + 1 > length:
        raise InvalidParameterError(
            f"noise scale nu={model.nu:g} needs a filter of 2*ceil(4*nu)+1 samples, "
            f"more than the length {length}"
        )
    e = rng.standard_normal(length + 2 * pad)
    return TimeSeries(model.sigma * convolve_weights(e, kernel_weights(spec))[pad : pad + length])

