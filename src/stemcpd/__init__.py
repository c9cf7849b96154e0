"""Change point detection in long noisy sequences.

Change points of a piecewise-constant mean are detected as significant
local maxima and minima of the derivative of the kernel-smoothed sequence.
P-values for extremum heights come from the closed-form height
distribution of local extrema of a smooth stationary Gaussian process, and
the significant subset is selected by the Benjamini-Hochberg step-up rule.
The package also ships a simulation harness measuring realized FDR and
power under a location tolerance, and the matching analytic curves and
bounds.
"""

from .detect import Extrema, Extremum, find_local_extrema, smooth
from .errors import (
    BandwidthTooLargeError,
    BandwidthTooSmallError,
    DegenerateConfigError,
    GridMismatchError,
    InvalidParameterError,
    MomentEstimationError,
    StemcpdError,
)
from .evaluation import AggregateResult, EvalResult, aggregate, classify
from .harness import CellResult, SimulateRequest, run_simulation
from .inference import (
    SpectralMoments,
    assign_pvalues,
    closed_form_moments,
    estimate_moments_empirical,
    invert_peak_height_tail,
    peak_height_tail,
)
from .kernels import GAUSSIAN_CUTOFF, KernelSpec, kernel_value, kernel_weights
from .multitest import BHOutcome, bh_height_threshold, bh_select
from .pipeline import DetectionResult, detect_change_points
from .signals import (
    NoiseModel,
    PiecewiseSignal,
    TimeSeries,
    compose,
    make_staircase,
    sample_noise,
)
from .theory import (
    TheoryConfig,
    approx_power,
    asymptotic_bh_pvalue,
    asymptotic_bh_threshold,
    fdr_upper_bound,
    null_max_rate,
    null_max_rate_above,
    snr,
    theoretical_power_curve,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateResult",
    "BHOutcome",
    "BandwidthTooLargeError",
    "BandwidthTooSmallError",
    "CellResult",
    "DegenerateConfigError",
    "DetectionResult",
    "EvalResult",
    "Extrema",
    "Extremum",
    "GAUSSIAN_CUTOFF",
    "GridMismatchError",
    "InvalidParameterError",
    "KernelSpec",
    "MomentEstimationError",
    "NoiseModel",
    "PiecewiseSignal",
    "SimulateRequest",
    "SpectralMoments",
    "StemcpdError",
    "TheoryConfig",
    "TimeSeries",
    "aggregate",
    "approx_power",
    "assign_pvalues",
    "asymptotic_bh_pvalue",
    "asymptotic_bh_threshold",
    "bh_height_threshold",
    "bh_select",
    "classify",
    "closed_form_moments",
    "compose",
    "detect_change_points",
    "estimate_moments_empirical",
    "fdr_upper_bound",
    "find_local_extrema",
    "invert_peak_height_tail",
    "kernel_value",
    "kernel_weights",
    "make_staircase",
    "null_max_rate",
    "null_max_rate_above",
    "peak_height_tail",
    "run_simulation",
    "sample_noise",
    "smooth",
    "snr",
    "theoretical_power_curve",
]
