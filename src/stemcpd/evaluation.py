"""Scoring detections against ground truth with a location tolerance.

A detection counts as true when it falls inside the open window
``(v - b, v + b)`` around a change point v; anything landing outside every
window is false.  Power credits each change point at most once, and only
for a significant extremum of the matching sign (maximum for an upward
jump, minimum for a downward one); a detection inside windows of the other
sign only is neither false nor a hit.
"""

import math

import numpy as np

from .detect import Extrema
from .errors import InvalidParameterError
from .signals import PiecewiseSignal


def _nearest_distance(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``|point - target|`` to the nearest of the sorted ``targets`` for
    each point, inf without targets.

    Rounding is monotone, so the nearest in exact arithmetic stays the
    nearest in floats: only the targets on either side of a point are
    compared, and the distance is the one a full scan would find."""
    fenced = np.concatenate(([-np.inf], targets, [np.inf]))
    right = fenced.searchsorted(points)
    return np.minimum(points - fenced[right - 1], fenced[right] - points)


def classify(detections: Extrema, truth: PiecewiseSignal, tolerances) -> np.ndarray:
    """Score significant extrema against the true change points at every
    tolerance in ``tolerances``: the (2, T) float64 rows of realized FDP,
    V/max(R, 1) for V false of R detections, and power, NaN without jumps;
    column t is the score at the t-th tolerance.

    Distances are taken once, each by a sorted search: each detection's
    nearest jump and each jump's nearest detection of matching sign.  The
    window test ``distance < b`` passes the distances sorted left of ``b``.
    Overlapping windows (2b above the smallest jump spacing) are scored by
    the same literal definitions, without a warning: ``SimulateRequest`` warns.
    """
    b = np.asarray(tolerances, dtype=float).reshape(-1)
    if not (b > 0).all():
        raise InvalidParameterError("tolerance must be positive")
    pos = detections.index.astype(float)
    raised = detections.sign > 0
    locations = truth.locations
    found = np.where(truth.sizes > 0, _nearest_distance(locations, np.sort(pos[raised])),
                     _nearest_distance(locations, np.sort(pos[~raised])))  # (J,)
    hits = np.sort(found).searchsorted(b)  # jumps found at each tolerance
    power = hits / truth.n_jumps if truth.n_jumps else np.full(len(b), np.nan)
    n_true = np.sort(_nearest_distance(pos, locations)).searchsorted(b)
    return np.array(((len(pos) - n_true) / max(len(pos), 1), power))


def aggregate(scores) -> np.ndarray:
    """Average realized FDP and power over replicates, in input order.

    ``scores`` stacks one ``classify`` score per replicate along a leading
    replicate axis: shape (R, ..., 2, T), where any axes between index
    cells scored at the same T tolerances (the harness passes a whole grid
    as (R, jumps, bandwidths, 2, T)).  Returns the (4, ..., T) float64 rows
    of realized FDR, its standard error, power (NaN without jumps) and its
    standard error, in ``CellResult``'s column order.

    Reducing the last axis of a C-contiguous (..., 2, T, R) copy, numpy uses
    the pairwise summation of a 1-D array: each cell and tolerance's mean
    and sd are bit for bit those of its own replicates.  A single
    replicate's error is 0, or NaN with NaN power."""
    x = np.asarray(scores, dtype=float)
    if not len(x):
        raise InvalidParameterError("aggregate requires at least one result")
    x = np.moveaxis(x, 0, -1).copy()
    n = x.shape[-1]
    mean = x.mean(axis=-1)
    se = (np.std(x, axis=-1, ddof=1) / math.sqrt(n) if n > 1
          else np.where(np.isnan(mean), np.nan, 0.0))
    return np.stack((mean[..., 0, :], se[..., 0, :], mean[..., 1, :], se[..., 1, :]))
