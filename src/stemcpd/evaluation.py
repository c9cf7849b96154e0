"""Scoring detections against ground truth with a location tolerance.

A detection counts as true when it falls inside the open window
``(v - b, v + b)`` around a change point v; anything landing outside every
window is false.  Power credits each change point at most once, and only
for a significant extremum of the matching sign (maximum for an upward
jump, minimum for a downward one).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .detect import Extrema
from .errors import InvalidParameterError
from .signals import PiecewiseSignal


@dataclass(frozen=True, eq=False)
class EvalResult:
    """Error bookkeeping for one realization at T tolerances, in order.

    ``n_detected`` (R) counts significant extrema.  The other fields are
    arrays with one row per tolerance: ``n_false`` (V) counts those outside
    every window regardless of sign, ``fdp`` is V/max(R, 1), and the (T, J)
    ``per_jump_hit`` flags, per change point, whether a significant extremum
    of the matching sign fell inside its window; ``power_fraction`` is the
    mean of each row, or NaN when there are no jumps.  ``n_wrong_sign``
    counts detections inside some window but matching the sign of none of
    the windows that contain them (neither false nor a hit).
    ``overlap_warning`` is set where windows overlap (2b exceeds the
    smallest jump spacing); the counts still follow the set definitions.
    """

    n_detected: int
    n_false: np.ndarray
    fdp: np.ndarray
    per_jump_hit: np.ndarray
    power_fraction: np.ndarray
    n_wrong_sign: np.ndarray
    overlap_warning: np.ndarray


@dataclass(frozen=True, eq=False)
class AggregateResult:
    """Monte Carlo averages over one cell's replicates, one entry per tolerance:
    realized FDR and power (NaN without jumps) with their standard errors."""

    fdr: np.ndarray
    fdr_se: np.ndarray
    power: np.ndarray
    power_se: np.ndarray
    n_replications: int


def classify(detections: Extrema, truth: PiecewiseSignal, tolerances) -> EvalResult:
    """Score significant extrema against the true change points at every
    tolerance in ``tolerances``: one ``EvalResult`` whose row t is the
    score at the t-th tolerance.

    Distances are taken once: each detection's nearest jump, its nearest
    jump of matching sign, and each jump's nearest detection of matching
    sign.  The window test at tolerance ``b`` is then ``distance < b``.
    """
    b = np.asarray(tolerances, dtype=float).reshape(-1, 1)
    if not np.all(b > 0):
        raise InvalidParameterError("tolerance must be positive")
    overlap = 2.0 * b[:, 0] > truth.min_separation()
    if overlap.any():
        warnings.warn(
            "tolerance windows overlap (2b exceeds the minimum jump spacing); "
            "counts follow the literal definitions and may double-credit",
            stacklevel=2,
        )
    dist = np.abs(detections.index.astype(float)[:, None] - truth.locations[None, :])  # (r, J)
    matched = np.where(detections.sign[:, None] * truth.sizes[None, :] > 0, dist, np.inf)
    n_in_any = np.count_nonzero(dist.min(axis=1, initial=np.inf) < b, axis=1)
    # inside a window of matching sign, hence also inside some window
    n_in_matched = np.count_nonzero(matched.min(axis=1, initial=np.inf) < b, axis=1)
    hits = matched.min(axis=0, initial=np.inf) < b  # (T, J)
    power = hits.mean(axis=1) if truth.n_jumps else np.full(len(hits), np.nan)
    r = len(detections)
    n_false = r - n_in_any
    n_wrong_sign = n_in_any - n_in_matched
    return EvalResult(r, n_false, n_false / max(r, 1), hits, power, n_wrong_sign, overlap)


def aggregate(results) -> AggregateResult:
    """Average realized FDP and power over the replicates of one cell, all
    scored at the same tolerances, in input order.

    Reducing the last axis of a C-contiguous (2, T, R) stack, numpy uses the
    pairwise summation of a 1-D array: each tolerance's mean and sd are bit
    for bit those of its own replicates.  A single replicate's error is 0,
    or NaN with NaN power."""
    results = list(results)
    if not results:
        raise InvalidParameterError("aggregate requires at least one result")
    x = np.array([(res.fdp, res.power_fraction) for res in results]).transpose(1, 2, 0).copy()
    mean = x.mean(axis=-1)
    se = (np.std(x, axis=-1, ddof=1) / math.sqrt(len(results)) if len(results) > 1
          else np.where(np.isnan(mean), np.nan, 0.0))
    return AggregateResult(mean[0], se[0], mean[1], se[1], len(results))
