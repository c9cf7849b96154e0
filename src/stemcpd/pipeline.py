"""End-to-end detection: smooth, extract extrema, test, threshold.

The four steps are: differential kernel smoothing of the observed
sequence, extraction of strict local maxima and minima of the result,
p-values for their heights from the null extremum-height distribution, and
step-up selection of the significant subset at the requested FDR level.
``detect_change_points`` smooths and finds the null moments, then hands
the smoothed sequence to ``select_change_points``, which runs the other
three steps; the simulation harness, which builds its smoothed sequences
by linearity, calls that same function.  Candidates stay in one
``Extrema`` (parallel arrays) from extraction to the result, so no step
loops over them in Python.
"""

from dataclasses import dataclass

import numpy as np

from . import detect
from .detect import Extrema, find_local_extrema
from .errors import MomentEstimationError, StemcpdError
from .inference import (
    SpectralMoments,
    assign_pvalues,
    closed_form_moments,
    estimate_moments_empirical,
)
from .kernels import KernelSpec
from .multitest import BHOutcome, bh_height_threshold, bh_select, check_alpha
from .signals import NoiseModel, TimeSeries


@dataclass(frozen=True)
class DetectionResult:
    """Candidate extrema with p-values, the selection outcome, and context.

    ``extrema`` holds every candidate in positional order;
    ``outcome.rejected`` indexes into it and ``significant`` is that
    subset, also an ``Extrema``.  ``interior`` is the half-open
    index range of the input where candidates were eligible.  ``moments``
    is None only when the candidate set is empty and the moments could not
    be estimated.
    """

    extrema: Extrema
    moments: SpectralMoments
    outcome: BHOutcome
    gamma: float
    alpha: float
    interior: tuple

    @property
    def significant(self) -> Extrema:
        return self.extrema[self.outcome.rejected]

    @property
    def n_candidates(self) -> int:
        return len(self.extrema)


def detect_change_points(
    series: TimeSeries,
    gamma: float,
    alpha: float,
    noise_model: NoiseModel = None,
) -> DetectionResult:
    """Run the full detector on one sequence: smooth it at ``gamma``, find
    the null moments and select with ``select_change_points``.

    The null moments are the closed form for a known ``noise_model``, and
    otherwise a trimmed empirical estimate from the sequence itself.  A
    sequence with no candidate extrema (for example a constant) is handled
    cleanly even when its moments cannot be estimated: the result carries
    no moments and an empty significant set.  An ``alpha`` outside (0, 1)
    is refused before any work.
    """
    check_alpha(alpha)
    dy = detect.smooth(series, KernelSpec(gamma=gamma, order=1))
    if noise_model is not None:
        moments = closed_form_moments(noise_model, gamma)
    else:
        try:
            moments = estimate_moments_empirical(series, gamma, dy)
        except MomentEstimationError:
            if find_local_extrema(dy):
                raise
            moments = None
    return select_change_points(dy, moments, gamma, alpha)


def select_change_points(
    dy: TimeSeries,
    moments: SpectralMoments,
    gamma: float,
    alpha: float,
) -> DetectionResult:
    """Extract, test and select the candidate extrema of a smoothed sequence.

    ``dy`` is the order-1 smooth at bandwidth ``gamma``, carrying its
    interior range, and ``moments`` its null moments, or None when they
    could not be estimated and ``dy`` has no candidate extrema.  A step-up
    set that differs from the selection by the height threshold means the
    tail inversion went wrong, and raises ``StemcpdError``.
    """
    extrema = find_local_extrema(dy)
    if moments is not None:
        extrema = assign_pvalues(extrema, moments)
    # without moments there are no candidates: the empty selection's height
    # threshold is -inf and does not read the moments
    selected = bh_select(extrema.p_value, alpha)
    u_threshold = bh_height_threshold(selected, moments)
    by_height = (extrema.sign * extrema.height > u_threshold).nonzero()[0]
    if not np.array_equal(by_height, selected.rejected):
        raise StemcpdError(
            "p-value and height-threshold selections disagree "
            f"({len(selected.rejected)} vs {len(by_height)} rejections)"
        )
    return DetectionResult(
        extrema=extrema,
        moments=moments,
        outcome=BHOutcome(selected.k, selected.p_threshold, selected.rejected, u_threshold),
        gamma=gamma,
        alpha=alpha,
        interior=dy.interior,
    )
