"""Differential smoothing and extraction of candidate extrema.

A change point of the piecewise-constant mean turns into a signed bump of
the smoothed derivative, so candidate change points are the strict local
maxima and minima of the derivative-smoothed sequence.  Candidates are
restricted to the interior where the full kernel support fits inside the
data, which avoids partial-kernel bias at the boundaries.  Extraction
compares neighbours; a tie takes the direction of the next move, so a
candidate is a turn in the directions and a plateau is one candidate.

The candidates of one sequence travel through inference and selection as
one ``Extrema``: parallel arrays of grid index, height, sign and p-value.
The arrays are the interface; iterating it as ``Extremum(index, height,
sign)`` records, one per candidate, is read only by the benchmark's checks.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
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
    -1 for a minimum.
    """

    index: int
    height: float
    sign: int


@dataclass(frozen=True, eq=False)
class Extrema:
    """Candidate extrema of one sequence, in positional order, as arrays.

    ``index`` (int64 grid locations), ``height`` (float64), ``sign``
    (int64, +1 for a maximum and -1 for a minimum) and ``p_value``
    (float64, NaN before inference) have one entry per candidate.

    Iteration yields one ``Extremum`` record of plain Python numbers per
    candidate, in order, converting ``_RECORD_CHUNK`` candidates at a
    time.  A slice, integer array or boolean mask gives another
    ``Extrema``; a single integer is refused.
    """

    index: np.ndarray
    height: np.ndarray
    sign: np.ndarray
    p_value: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, key):
        if not isinstance(key, slice):
            key = np.asarray(key)
            if key.ndim == 0:
                raise TypeError("an Extrema takes a slice, an index array or a mask")
            if key.size == 0:
                key = key.astype(np.intp)
        return Extrema(self.index[key], self.height[key], self.sign[key], self.p_value[key])

    def __iter__(self):
        for lo in range(0, len(self.index), _RECORD_CHUNK):
            chunk = slice(lo, lo + _RECORD_CHUNK)
            yield from map(Extremum, self.index[chunk].tolist(), self.height[chunk].tolist(),
                           self.sign[chunk].tolist())


def smooth(series: TimeSeries, spec: KernelSpec) -> TimeSeries:
    """Convolve a series with the sampled kernel derivative weights.

    The output has the same length as the input and carries the half-open
    interior range where the kernel's full support fit; every sample
    outside it is exactly +0.0.  Raises if the series is shorter than the
    kernel, or if the sums overflow the floating-point range.
    """
    n = len(series)
    k = spec.half_width()
    if n < 2 * k + 1:
        raise InvalidParameterError(
            # 2*k+1 may exceed the float range where k itself does not
            f"series of length {n} is shorter than the kernel at gamma={spec.gamma:g} "
            f"(2*{k:g}+1 samples)"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out = convolve_weights(series.values, kernel_weights(spec))
    try:
        return TimeSeries(out, interior=(k, n - k))
    except InvalidParameterError:  # the one refusal left: a sum that overflowed
        raise InvalidParameterError(
            f"smoothing at gamma={spec.gamma:g} leaves the floating-point range for an input "
            f"of magnitude {np.max(np.abs(series.values)):g}") from None


def find_local_extrema(dy: TimeSeries) -> Extrema:
    """Strict local maxima and minima of ``dy`` inside its interior range.

    A plateau of equal values flanked by strictly smaller (larger) values
    is reported once, at its leftmost point, as a maximum (minimum).
    Exact-zero segments never produce extrema, so a constant input yields
    none.  Both flanking values must lie inside the interior, hence no
    extremum is reported within the boundary margin.  P-values are NaN
    until ``assign_pvalues`` fills them in.

    Neighbours are compared for a rise and for a tie.  A run of ties takes
    the direction of the move after it, so the directions turn where a
    plateau starts; a run that no move ends is cut off.  An extremum sits
    one sample past each move whose successor turns the other way.  The
    full-length temporaries are boolean, at most two alive at once.
    """
    sl = dy.interior_slice()
    seg = dy.values[sl]
    before, after = seg[:-1], seg[1:]
    rising = after > before
    ties = (after == before).nonzero()[0]
    # ties[i] - i is constant along a run of ties: the move after tie i's run
    run = ties - np.arange(len(ties))
    ends = run + run.searchsorted(run, side="right")
    cut = np.count_nonzero(ends == len(rising))  # the last run, if no move ends it
    rising = rising[: len(rising) - cut]
    rising[ties[: len(ties) - cut]] = rising[ends[: len(ties) - cut]]
    turns = (rising[1:] != rising[:-1]).nonzero()[0]
    height = after[turns]
    keep = height != 0.0
    return Extrema(
        index=turns[keep] + (2 + sl.start),
        height=height[keep],
        sign=np.where(rising[turns[keep]], 1, -1),
        p_value=np.full(np.count_nonzero(keep), np.nan),
    )
