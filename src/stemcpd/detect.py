"""Differential smoothing and extraction of candidate extrema.

A change point of the piecewise-constant mean turns into a signed bump of
the smoothed derivative, so candidate change points are the strict local
maxima and minima of the derivative-smoothed sequence.  Candidates are
restricted to the interior where the full kernel support fits inside the
data, which avoids partial-kernel bias at the boundaries.  Extraction
compares neighbours once and drops the ties: a candidate is a turn in the
directions of the remaining moves, mapped back to its sample by counting
the ties before it, so a plateau is one candidate.

The candidates of one sequence travel through inference and selection as
one ``Extrema``: parallel arrays of grid index, height, sign and p-value.
It reads as a sequence of ``Extremum`` records, one per candidate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BandwidthTooLargeError
from .kernels import KernelSpec, convolve_weights, kernel_weights
from .signals import TimeSeries

#: Candidates converted per ``tolist()`` call while iterating an ``Extrema``,
#: so iteration holds this many records' Python numbers at most.
_RECORD_CHUNK = 4096


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
    in order (converting ``_RECORD_CHUNK`` candidates at a time), and a
    slice, integer array or boolean mask gives another ``Extrema``.
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
        for lo in range(0, len(self.index), _RECORD_CHUNK):
            chunk = slice(lo, lo + _RECORD_CHUNK)
            yield from map(Extremum, self.index[chunk].tolist(), self.height[chunk].tolist(),
                           self.sign[chunk].tolist(), self.p_value[chunk].tolist())


def smooth(series: TimeSeries, spec: KernelSpec) -> TimeSeries:
    """Convolve a series with the sampled kernel derivative weights.

    The output has the same length as the input and carries the half-open
    interior range where the kernel's full support fit; every sample
    outside it is exactly +0.0.  Raises if the series is shorter than the
    kernel.
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

    Each pair of neighbours is compared once.  Dropping the ties leaves
    the directions of the moves; an extremum sits right after each move
    whose successor turns the other way, and its sample is found by adding
    back the ties before that move.  The full-length temporaries are
    boolean, at most three alive at once; the index arrays are sized by
    the ties and the candidates.
    """
    sl = dy.interior_slice()
    seg = dy.values[sl]
    before, after = seg[:-1], seg[1:]
    up = after > before
    moves = after < before
    moves |= up
    rising = up[moves]
    del up
    # move j (counting moves only) is followed by one the other way
    turns = np.flatnonzero(rising[1:] != rising[:-1])
    # tie i has ties[i] - i moves before it: add the ties before each turn
    ties = np.flatnonzero(np.logical_not(moves, out=moves))
    del moves
    at = turns + 1 + np.searchsorted(ties - np.arange(len(ties)), turns, side="right")
    height = seg[at]
    keep = height != 0.0
    return Extrema(
        index=at[keep] + (1 + sl.start),
        height=height[keep],
        sign=np.where(rising[turns[keep]], 1, -1),
        p_value=np.full(np.count_nonzero(keep), np.nan),
    )
