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


@dataclass(frozen=True)
class EvalResult:
    """Error bookkeeping for one realization.

    ``n_detected`` (R) counts significant extrema, ``n_false`` (V) those
    outside every tolerance window regardless of sign, and ``fdp`` is
    V/max(R, 1).  ``per_jump_hit`` flags, per change point, whether a
    significant extremum of the matching sign fell inside its window;
    ``power_fraction`` is their mean, or None when there are no jumps.
    ``n_wrong_sign`` counts detections inside some window but matching the
    sign of none of the windows that contain them (neither false nor a
    hit).  ``overlap_warning`` is set when windows overlap (2b exceeds the
    smallest jump spacing), in which case the counts are still computed
    literally from the set definitions.
    """

    n_detected: int
    n_false: int
    fdp: float
    per_jump_hit: tuple
    power_fraction: float
    n_wrong_sign: int
    overlap_warning: bool


@dataclass(frozen=True)
class AggregateResult:
    """Monte Carlo averages over replications: realized FDR and power with
    their standard errors."""

    fdr: float
    fdr_se: float
    power: float
    power_se: float
    n_replications: int


def classify(detections: Extrema, truth: PiecewiseSignal, tolerances) -> tuple:
    """Score significant extrema against the true change points, one
    ``EvalResult`` per tolerance in ``tolerances``, in the order given.

    Distances are taken once: each detection's nearest jump, its nearest
    jump of matching sign, and each jump's nearest detection of matching
    sign.  The window test at tolerance ``b`` is then ``distance < b``.
    """
    b = np.asarray(tolerances, dtype=float).reshape(-1, 1)
    if not np.all(b > 0):
        raise InvalidParameterError("tolerance must be positive")
    overlap = (2.0 * b[:, 0] > truth.min_separation()).tolist()
    if any(overlap):
        warnings.warn(
            "tolerance windows overlap (2b exceeds the minimum jump spacing); "
            "counts follow the literal definitions and may double-credit",
            stacklevel=2,
        )
    dist = np.abs(detections.index.astype(float)[:, None] - truth.locations[None, :])  # (r, J)
    matched = np.where(detections.sign[:, None] * truth.sizes[None, :] > 0, dist, np.inf)
    n_in_any = np.count_nonzero(dist.min(axis=1, initial=np.inf) < b, axis=1).tolist()
    # inside a window of matching sign, hence also inside some window
    n_in_matched = np.count_nonzero(matched.min(axis=1, initial=np.inf) < b, axis=1).tolist()
    hits = matched.min(axis=0, initial=np.inf) < b  # (tolerances, J)
    powers = hits.mean(axis=1).tolist() if truth.n_jumps else [None] * len(hits)
    r = len(detections)
    return tuple(
        EvalResult(r, r - n_in, (r - n_in) / max(r, 1), tuple(row), power, n_in - n_sign, warned)
        for n_in, n_sign, row, power, warned
        in zip(n_in_any, n_in_matched, hits.tolist(), powers, overlap)
    )


def aggregate(results) -> AggregateResult:
    """Average realized FDP and power over replications, in input order."""
    results = list(results)
    if not results:
        raise InvalidParameterError("aggregate requires at least one result")
    fdp = np.array([res.fdp for res in results])
    powers = np.array([res.power_fraction for res in results if res.power_fraction is not None])
    fdr = float(np.mean(fdp))
    fdr_se = float(np.std(fdp, ddof=1) / math.sqrt(len(fdp))) if len(fdp) > 1 else 0.0
    if len(powers):
        power = float(np.mean(powers))
        power_se = (
            float(np.std(powers, ddof=1) / math.sqrt(len(powers))) if len(powers) > 1 else 0.0
        )
    else:
        power = math.nan
        power_se = math.nan
    return AggregateResult(fdr, fdr_se, power, power_se, len(results))

