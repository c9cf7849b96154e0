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
class EvalConfig:
    """Location tolerance ``b`` in grid units; windows are open intervals."""

    tolerance: float

    def __post_init__(self) -> None:
        if not self.tolerance > 0:
            raise InvalidParameterError("tolerance must be positive")


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


def classify(detections: Extrema, truth: PiecewiseSignal, cfg: EvalConfig) -> EvalResult:
    """Score significant extrema against the true change points."""
    b = cfg.tolerance
    locations = truth.locations
    sizes = truth.sizes
    overlap = truth.n_jumps >= 2 and 2.0 * b > truth.min_separation()
    if overlap:
        warnings.warn(
            "tolerance windows overlap (2b exceeds the minimum jump spacing); "
            "counts follow the literal definitions and may double-credit",
            stacklevel=2,
        )
    r = len(detections)
    if r == 0:
        hits = tuple(False for _ in range(truth.n_jumps))
        power = float(np.mean(hits)) if truth.n_jumps else None
        return EvalResult(0, 0, 0.0, hits, power, 0, overlap)
    pos = detections.index.astype(float)
    sgn = detections.sign
    if truth.n_jumps:
        inside = np.abs(pos[:, None] - locations[None, :]) < b  # (r, J)
        in_any = inside.any(axis=1)
        sign_match = inside & (sgn[:, None] * sizes[None, :] > 0)
        hits = tuple(bool(h) for h in sign_match.any(axis=0))
        n_wrong = int(np.sum(in_any & ~sign_match.any(axis=1)))
        power = float(np.mean(hits))
    else:
        in_any = np.zeros(r, dtype=bool)
        hits = ()
        n_wrong = 0
        power = None
    v = int(np.sum(~in_any))
    return EvalResult(r, v, v / max(r, 1), hits, power, n_wrong, overlap)


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

