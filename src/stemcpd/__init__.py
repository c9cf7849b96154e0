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
    InvalidParameterError,
    MomentEstimationError,
    StemcpdError,
)
from .evaluation import aggregate, classify
from .harness import CellResult, SimulateRequest, run_simulation
from .inference import (
    SpectralMoments,
    assign_pvalues,
    closed_form_moments,
    estimate_moments_empirical,
    invert_peak_height_tail,
    peak_height_tail,
)
from .kernels import GAUSSIAN_CUTOFF, KernelSpec, kernel_weights
from .multitest import BHOutcome, bh_height_threshold, bh_select
from .pipeline import DetectionResult, detect_change_points
from .signals import (
    NoiseModel,
    PiecewiseSignal,
    TimeSeries,
    make_staircase,
    sample_noise,
)
from .theory import (
    approx_power,
    null_max_rate,
    snr,
    theory_table,
)

__version__ = "0.1.0"

__all__ = [
    "BHOutcome",
    "CellResult",
    "DetectionResult",
    "Extrema",
    "Extremum",
    "GAUSSIAN_CUTOFF",
    "InvalidParameterError",
    "KernelSpec",
    "MomentEstimationError",
    "NoiseModel",
    "PiecewiseSignal",
    "SimulateRequest",
    "SpectralMoments",
    "StemcpdError",
    "TimeSeries",
    "aggregate",
    "approx_power",
    "assign_pvalues",
    "bh_height_threshold",
    "bh_select",
    "classify",
    "closed_form_moments",
    "detect_change_points",
    "estimate_moments_empirical",
    "find_local_extrema",
    "invert_peak_height_tail",
    "kernel_weights",
    "make_staircase",
    "null_max_rate",
    "peak_height_tail",
    "run_simulation",
    "sample_noise",
    "smooth",
    "snr",
    "theory_table",
]
