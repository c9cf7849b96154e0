"""Replicated simulation grids measuring realized FDR and power.

Each replicate draws noise once, overlays a staircase signal, runs the
full detector at every requested bandwidth and scores each detection
against the known change points at every requested tolerance.  Replicate
r uses the derived seed ``seed ^ r`` for every jump and bandwidth, so any
cell or replicate range can be reproduced independently; aggregation runs
in replicate order so results are deterministic regardless of parallelism.
"""

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, StemcpdError
from .evaluation import EvalResult, aggregate, classify
from .multitest import check_alpha
from .pipeline import DetectionResult, detect_change_points
from .signals import NoiseModel, PiecewiseSignal, compose, make_staircase, sample_noise

THREADS_ENV_VAR = "STEMCPD_THREADS"


def check_finite_grid(name: str, values: tuple) -> None:
    """Refuse a grid holding a non-finite value, naming the grid."""
    if not all(math.isfinite(v) for v in values):
        raise InvalidParameterError(f"{name} grid must be finite, got {values!r}")


@dataclass(frozen=True)
class SimulateRequest:
    """One simulation grid: jump sizes x bandwidths x tolerances.

    ``replications`` replicates are run per (jump, bandwidth) pair, indexed
    ``rep_start .. rep_start + replications - 1``; the detector runs once
    per replicate and is scored at every tolerance.  A jump size of zero
    requests a pure-noise (complete null) cell.  The grids, the FDR level
    and the noise model are checked here, before any replicate runs.
    """

    length: int = 12000
    separation: int = 100
    jumps: tuple = (1.0, 2.0, 3.0)
    gammas: tuple = tuple(float(g) for g in range(1, 11))
    tolerances: tuple = tuple(float(b) for b in range(2, 11))
    alpha: float = 0.05
    sigma: float = 1.0
    nu: float = 2.0
    replications: int = 500
    seed: int = 0
    rep_start: int = 0

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise InvalidParameterError("replications must be at least 1")
        if self.rep_start < 0 or self.seed < 0:
            raise InvalidParameterError("seed and rep_start must be non-negative")
        for name in ("jumps", "gammas", "tolerances"):
            values = getattr(self, name)
            if not values:
                raise InvalidParameterError(f"{name} grid must be non-empty")
            check_finite_grid(name, values)
        if any(b <= 0 for b in self.tolerances):
            raise InvalidParameterError("tolerances must be positive")
        if any(g <= 0 for g in self.gammas):
            raise InvalidParameterError("bandwidths must be positive")
        check_alpha(self.alpha)
        self.noise_model()

    def noise_model(self) -> NoiseModel:
        return NoiseModel(sigma=self.sigma, nu=self.nu)

    def truth(self, jump: float) -> PiecewiseSignal:
        if jump == 0.0:
            return PiecewiseSignal((), self.length)
        return make_staircase(jump, self.separation, self.length)


@dataclass(frozen=True)
class CellResult:
    """Aggregated realized FDR and power for one (jump, bandwidth,
    tolerance) cell."""

    jump: float
    gamma: float
    tolerance: float
    fdr: float
    fdr_se: float
    power: float
    power_se: float
    replications: int
    seed: int


def _check_threshold_equivalence(result: DetectionResult) -> None:
    """The step-up rejection set must coincide with the height-threshold
    selection; a mismatch would mean the tail inversion went wrong."""
    extrema = result.extrema
    by_height = np.flatnonzero(extrema.sign * extrema.height > result.outcome.u_threshold)
    if not np.array_equal(by_height, result.outcome.rejected):
        raise StemcpdError(
            "p-value and height-threshold selections disagree "
            f"({len(result.outcome.rejected)} vs {len(by_height)} rejections)"
        )


def run_replicate(req: SimulateRequest, truth: PiecewiseSignal, rep: int) -> list[EvalResult]:
    """One replicate on the ground truth ``truth``: one noise draw, detected
    at every bandwidth of ``req`` and scored at every tolerance.  Returns
    one ``EvalResult`` per bandwidth, in ``req.gammas`` order."""
    model = req.noise_model()
    observed = compose(truth, sample_noise(model, req.length, req.seed ^ rep))
    scores = []
    for gamma in req.gammas:
        result = detect_change_points(observed, gamma, req.alpha, noise_model=model)
        _check_threshold_equivalence(result)
        scores.append(classify(result.significant, truth, req.tolerances))
    return scores


def env_threads() -> int:
    """Parallelism cap from the environment (defaults to 1)."""
    raw = os.environ.get(THREADS_ENV_VAR, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_simulation(req: SimulateRequest, threads: int = None) -> list:
    """Run the whole grid; one CellResult per (jump, gamma, tolerance).

    Cells appear in grid order (jumps outermost, tolerances innermost).
    The grid is one task list of (jump, replicate); each task draws its
    noise once and detects at every bandwidth.  It runs in one process
    pool of ``min(threads, tasks, usable CPUs)`` workers, or serially when
    that is 1; usable CPUs are the process's affinity set where the
    platform reports one.  Results arrive in task order, so output is
    independent of parallelism.
    """
    if threads is None:
        threads = env_threads()
    reps = range(req.rep_start, req.rep_start + req.replications)
    tasks = [(req, truth, r) for truth in map(req.truth, req.jumps) for r in reps]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, len(tasks), cpus or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, req.replications // (4 * workers))
            return _cells(req, pool.map(run_replicate, *zip(*tasks), chunksize=chunk))
    return _cells(req, map(run_replicate, *zip(*tasks)))


def _cells(req: SimulateRequest, results) -> list:
    """Aggregate the grid's replicate results, given in task order, in one
    ``aggregate`` call per (jump, gamma): one jump row's replicates at a
    time, each holding one ``EvalResult`` per bandwidth."""
    cells = []
    for jump in req.jumps:
        row = list(itertools.islice(results, req.replications))
        for gamma, scores in zip(req.gammas, zip(*row)):
            agg = aggregate(scores)
            columns = (a.tolist() for a in (agg.fdr, agg.fdr_se, agg.power, agg.power_se))
            cells += [CellResult(jump, gamma, b, *values, req.replications, req.seed)
                      for b, *values in zip(req.tolerances, *columns)]
    return cells
