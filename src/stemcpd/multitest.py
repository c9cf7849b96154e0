"""Benjamini-Hochberg selection over extremum p-values.

The step-up rule controls the false discovery rate of the pooled set of
candidate maxima and minima.  Because the height-to-p-value map is
strictly decreasing, the p-value threshold translates into a single height
threshold: significant maxima lie above it, significant minima below its
negation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .inference import SpectralMoments, invert_peak_height_tail


@dataclass(frozen=True, eq=False)
class BHOutcome:
    """Result of the step-up procedure on one candidate set.

    ``k`` is the number of rejections, ``p_threshold`` the rejection
    threshold ``k*alpha/m`` (0 when nothing is rejected, 1 when the
    candidate set is empty), ``rejected`` the input positions of rejected
    p-values in ascending order as a read-only ``intp`` index array, and
    ``u_threshold`` the equivalent height threshold once attached (-inf
    and +inf act as sentinels for the all-pass and no-pass cases).
    """

    k: int
    p_threshold: float
    rejected: np.ndarray
    u_threshold: float = None


def check_alpha(alpha: float) -> None:
    """Refuse an FDR level outside the open interval (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError("alpha must lie in (0, 1)")


def bh_select(pvalues, alpha: float) -> BHOutcome:
    """Step-up selection: reject the k smallest p-values, where k is the
    largest index whose i-th smallest p-value is strictly below i*alpha/m.

    The inequality is strict, so p-values exactly on the boundary are not
    rejected.  An empty input yields no rejections with threshold 1.
    """
    check_alpha(alpha)
    p = np.asarray(pvalues, dtype=float)
    m = len(p)
    if not np.all((p > 0.0) & (p <= 1.0)):
        raise InvalidParameterError("p-values must lie in (0, 1]")
    below = np.flatnonzero(np.sort(p) < np.arange(1, m + 1) * (alpha / max(m, 1)))
    k = int(below[-1]) + 1 if len(below) else 0
    p_threshold = k * alpha / m if m else 1.0
    rejected = np.flatnonzero(p < p_threshold)
    rejected.flags.writeable = False
    return BHOutcome(k=k, p_threshold=p_threshold, rejected=rejected)


def bh_height_threshold(outcome: BHOutcome, moments: SpectralMoments) -> float:
    """Height threshold equivalent to the p-value threshold.

    Solves ``peak_height_tail(u) == p_threshold``.  A threshold of 1
    (empty candidate set) maps to -inf without reading ``moments``; a
    threshold of 0 (no rejections) maps to +inf, so the height rule rejects
    nothing either way.
    """
    p = outcome.p_threshold
    if p >= 1.0:
        return -math.inf
    if p <= 0.0:
        return math.inf
    return invert_peak_height_tail(p, moments)
