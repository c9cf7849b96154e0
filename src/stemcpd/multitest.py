"""Benjamini-Hochberg selection over extremum p-values.

The step-up rule controls the false discovery rate of the pooled set of
candidate maxima and minima.  One expression, the rounded bound
``(i*alpha)/m``, decides the rejection count k, the rejected set (the k
smallest p-values) and the reported p-value threshold, so the three always
agree.  Because the height-to-p-value map is strictly decreasing, the
p-value threshold translates into a single height threshold: significant
maxima lie above it, significant minima below its negation.
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
    threshold ``(k*alpha)/m``, the same bound that picked k (0 when nothing
    is rejected, 1 when the candidate set is empty), ``rejected`` the input
    positions of the k smallest p-values, exactly those strictly below
    ``p_threshold``, in ascending order as a read-only ``intp`` index array, and
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


def check_grid(name: str, values) -> None:
    """Refuse an empty grid or one holding a non-finite value, naming the
    grid."""
    if len(values) == 0:
        raise InvalidParameterError(f"{name} grid must be non-empty")
    if not all(math.isfinite(v) for v in values):
        raise InvalidParameterError(f"{name} grid must be finite, got {values!r}")


def bh_select(pvalues, alpha: float) -> BHOutcome:
    """Step-up selection: reject the k smallest p-values, where k is the
    largest index whose i-th smallest p-value is strictly below the bound
    ``(i*alpha)/m``.

    Every bound is that one expression, rounded the same way: the rank test
    that picks k, the threshold ``(k*alpha)/m`` reported as ``p_threshold``,
    and the rejected set, the p-values strictly below it, which are exactly
    the k smallest.  The inequality is strict, so p-values exactly on the
    boundary are not rejected.  An empty input yields no rejections with
    threshold 1.  Only p-values below the largest bound ``(m*alpha)/m`` can
    pass or be rejected, so only they are sorted and compared.
    """
    check_alpha(alpha)
    p = np.asarray(pvalues, dtype=float)
    m = len(p)
    # NaN propagates to both extremes; no mask is allocated
    if not (0.0 < p.min(initial=1.0) and p.max(initial=1.0) <= 1.0):
        raise InvalidParameterError("p-values must lie in (0, 1]")
    eligible = (p < m * alpha / max(m, 1)).nonzero()[0]
    small = p[eligible]
    below = (np.sort(small) < np.arange(1, len(small) + 1) * alpha / m).nonzero()[0]
    k = int(below[-1]) + 1 if len(below) else 0
    p_threshold = k * alpha / m if m else 1.0
    rejected = eligible[small < p_threshold]
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
    if p <= 0.0:
        return math.inf
    return invert_peak_height_tail(p, moments)
