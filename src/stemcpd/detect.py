"""Differential smoothing and extraction of candidate extrema.

A change point of the piecewise-constant mean turns into a signed bump of
the smoothed derivative, so candidate change points are the strict local
maxima and minima of the derivative-smoothed sequence.  Candidates are
restricted to the interior where the full kernel support fits inside the
data, which avoids partial-kernel bias at the boundaries.

The candidates of one sequence travel through inference and selection as
one ``Extrema``: parallel arrays of grid index, height, sign and p-value.
It reads as a sequence of ``Extremum`` records, one per candidate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BandwidthTooLargeError, InvalidParameterError
from .kernels import KernelSpec, kernel_weights
from .signals import TimeSeries

#: Output samples per block in ``convolve_weights``: the block, its scratch
#: term and the two input windows (256 KiB each) stay in a per-core L2
#: cache across all lags; much smaller blocks pay more in ufunc calls.
_BLOCK = 32768


@dataclass(frozen=True)
class Extremum:
    """A strict local extremum of the smoothed derivative.

    ``index`` is the integer grid location t of the sample (unit grid),
    ``height`` the derivative value there, ``sign`` +1 for a maximum and
    -1 for a minimum.  ``p_value`` is NaN until the inference step fills it.
    """

    index: int
    height: float
    sign: int
    p_value: float


@dataclass(frozen=True, eq=False)
class Extrema:
    """Candidate extrema of one sequence, in positional order, as arrays.

    ``index`` (int64 grid locations), ``height`` (float64), ``sign``
    (int64, +1 for a maximum and -1 for a minimum) and ``p_value``
    (float64, NaN before inference) have one entry per candidate.

    It reads as a sequence of ``Extremum`` records: an integer index
    gives a record holding plain Python numbers, iteration yields records
    in order, and a slice, integer array or boolean mask gives another
    ``Extrema``.
    """

    index: np.ndarray
    height: np.ndarray
    sign: np.ndarray
    p_value: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return Extremum(self.index[key].item(), self.height[key].item(),
                            self.sign[key].item(), self.p_value[key].item())
        if not isinstance(key, slice):
            key = np.asarray(key)
            if key.size == 0:
                key = key.astype(np.intp)
        return Extrema(self.index[key], self.height[key], self.sign[key], self.p_value[key])

    def __iter__(self):
        return map(Extremum, self.index.tolist(), self.height.tolist(), self.sign.tolist(),
                   self.p_value.tolist())


def convolve_weights(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Centered discrete convolution with a symmetric or antisymmetric kernel.

    Equivalent to ``convolve(values, weights, mode='same')`` but
    accumulated in symmetric pairs, so exactly antisymmetric weights yield
    exactly zero output wherever the input is locally constant.  Entries
    within half a kernel of either end use zero padding and are only
    meaningful inside the interior range.

    Every output sample is summed in one fixed order: the center term,
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
    lags = max(min(k, n - 1), 0)
    padded = np.zeros(n + 2 * lags)
    padded[lags : lags + n] = values
    # `out` starts at +0.0 and only ever has terms added to it, so it never
    # holds -0.0 and the sign of a zero term cannot show (the padding makes
    # y + 0.0 where a sum of pairs without it would keep y itself)
    out = np.zeros(n)
    term = np.empty(min(n, _BLOCK))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        acc, tmp = out[lo:hi], term[: hi - lo]
        if center != 0.0:
            np.multiply(values[lo:hi], center, out=tmp)
            acc += tmp
        for j in range(1, lags + 1):
            # w[j]*y[t-j] + w[-j]*y[t+j] = w[j]*(y[t-j] -/+ y[t+j])
            combine(padded[lo + lags - j : hi + lags - j], padded[lo + lags + j : hi + lags + j],
                    out=tmp)
            tmp *= weights[k + j]
            acc += tmp
    return out


def smooth(series: TimeSeries, spec: KernelSpec) -> TimeSeries:
    """Convolve a series with the sampled kernel derivative weights.

    The output has the same length as the input and carries the half-open
    interior range where the kernel's full support fit.  Raises if the
    series is shorter than the kernel.
    """
    n = len(series)
    k = spec.half_width()
    if n < 2 * k + 1:
        raise BandwidthTooLargeError(
            # 2*k+1 may exceed the float range where k itself does not
            f"series of length {n} is shorter than the kernel at gamma={spec.gamma:g} "
            f"(2*{k:g}+1 samples)"
        )
    out = convolve_weights(series.values, kernel_weights(spec))
    return TimeSeries(out, interior=(k, n - k))


def find_local_extrema(dy: TimeSeries) -> Extrema:
    """Strict local maxima and minima of ``dy`` inside its interior range.

    A plateau of equal values flanked by strictly smaller (larger) values
    is reported once, at its leftmost point, as a maximum (minimum).
    Exact-zero segments never produce extrema, so a constant input yields
    none.  Both flanking values must lie inside the interior, hence no
    extremum is reported within the boundary margin.  P-values are NaN
    until ``assign_pvalues`` fills them in.
    """
    sl = dy.interior_slice()
    seg = dy.values[sl]
    if len(seg) < 3:
        return Extrema(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64),
                       np.empty(0))
    # run-length encode so plateaus collapse to a single candidate
    starts = np.concatenate(([0], np.flatnonzero(seg[1:] != seg[:-1]) + 1))
    run_values = seg[starts]
    mid, left, right = run_values[1:-1], run_values[:-2], run_values[2:]
    nonzero = mid != 0.0
    is_max = nonzero & (mid > left) & (mid > right)
    is_min = nonzero & (mid < left) & (mid < right)
    hits = np.flatnonzero(is_max | is_min)
    return Extrema(
        index=starts[hits + 1] + (1 + sl.start),
        height=run_values[hits + 1],
        sign=np.where(is_max[hits], 1, -1),
        p_value=np.full(len(hits), np.nan),
    )
