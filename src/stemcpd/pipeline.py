"""End-to-end detection: smooth, extract extrema, test, threshold.

The four steps are: differential kernel smoothing of the observed
sequence, extraction of strict local maxima and minima of the result,
p-values for their heights from the null extremum-height distribution, and
step-up selection of the significant subset at the requested FDR level.
Candidates stay in one ``Extrema`` (parallel arrays) from extraction to the
result, so no step loops over them in Python.
"""

import math
from dataclasses import dataclass, replace

from . import detect
from .detect import Extrema, find_local_extrema
from .errors import MomentEstimationError
from .inference import (
    SpectralMoments,
    assign_pvalues,
    closed_form_moments,
    estimate_moments_empirical,
)
from .kernels import KernelSpec
from .multitest import BHOutcome, bh_select, with_height_threshold
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
    """Run the full detector on one sequence.

    The null moments are the closed form for a known ``noise_model``, and
    otherwise a trimmed empirical estimate from the sequence itself.  A
    sequence with no candidate extrema (for example a constant) is handled
    cleanly even when its moments cannot be estimated: the result carries
    no moments and an empty significant set.
    """
    dy = detect.smooth(series, KernelSpec(gamma=gamma, order=1))
    extrema = find_local_extrema(dy)
    if noise_model is not None:
        moments = closed_form_moments(noise_model, gamma)
    else:
        try:
            moments = estimate_moments_empirical(series, gamma, dy)
        except MomentEstimationError:
            if extrema:
                raise
            moments = None
    if moments is not None:
        extrema = assign_pvalues(extrema, moments)
        outcome = with_height_threshold(bh_select(extrema.p_value, alpha), moments)
    else:
        # reached only without candidates: nothing to test or select
        outcome = replace(bh_select((), alpha), u_threshold=-math.inf)
    return DetectionResult(
        extrema=extrema,
        moments=moments,
        outcome=outcome,
        gamma=gamma,
        alpha=alpha,
        interior=dy.interior,
    )
