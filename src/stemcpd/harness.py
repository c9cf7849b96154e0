"""Replicated simulation grids measuring realized FDR and power.

The detector smooths linearly: the smooth of ``a * unit + noise``, where
``unit`` is the staircase with unit jumps, is ``a * D(unit) + D(noise)``.
So the harness smooths the unit staircase once per bandwidth and task,
draws each replicate's noise once, smooths it once per bandwidth, and runs
every jump of the grid from those two smooths through the detector's own
selection stages (``pipeline.select_change_points``), scoring each
detection at every tolerance.  Replicate r uses the derived seed
``seed ^ r`` for every jump and bandwidth, so any cell or replicate range
can be reproduced independently.  A task is a block of consecutive
replicates, and aggregation runs in replicate order, so results are
deterministic regardless of parallelism.
"""

import itertools
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import detect
from .errors import InvalidParameterError
from .evaluation import aggregate, classify
from .inference import closed_form_moments
from .kernels import KernelSpec
from .multitest import check_alpha, check_grid
from .pipeline import select_change_points
from .signals import (NoiseModel, PiecewiseSignal, TimeSeries, check_sampled_nu, make_staircase,
                      sample_noise)

@dataclass(frozen=True)
class SimulateRequest:
    """One simulation grid: jump sizes x bandwidths x tolerances.

    ``replications`` replicates are run, indexed ``rep_start ..
    rep_start + replications - 1``; each replicate's noise is shared by
    every (jump, bandwidth) pair, whose detection is scored at every
    tolerance.  A jump size of zero requests a pure-noise (complete null)
    cell.  The grids, the FDR level and the noise model, with the noise
    scales ``sample_noise`` refuses, are checked here, before any
    replicate runs.  Tolerance windows that overlap (2b above the jump
    spacing) warn here, once per request: scores then follow the literal
    definitions and may double-credit.
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
            check_grid(name, getattr(self, name))
        if any(b <= 0 for b in self.tolerances):
            raise InvalidParameterError("tolerances must be positive")
        if any(g <= 0 for g in self.gammas):
            raise InvalidParameterError("bandwidths must be positive")
        check_alpha(self.alpha)
        self.noise_model()
        check_sampled_nu(self.nu)
        if any(self.jumps) and 2.0 * max(self.tolerances) > self.truth(1.0).min_separation():
            warnings.warn(
                "tolerance windows overlap (2b exceeds the minimum jump spacing); "
                "counts follow the literal definitions and may double-credit",
                stacklevel=3,
            )

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


def _bandwidths(req: SimulateRequest) -> list:
    """Per bandwidth of ``req``: the bandwidth, its closed-form moments and
    the smooth of the unit staircase, or None when every jump is zero (the
    staircase is built only when some jump needs it)."""
    model = req.noise_model()
    unit = TimeSeries(req.truth(1.0).mean) if any(req.jumps) else None
    return [(gamma, closed_form_moments(model, gamma),
             None if unit is None else detect.smooth(unit, KernelSpec(gamma=gamma, order=1)))
            for gamma in req.gammas]


def run_replicate(req: SimulateRequest, truths: list, bandwidths: list, rep: int) -> np.ndarray:
    """One replicate: one noise draw, smoothed once per bandwidth and
    detected at every jump of ``req`` as ``jump * D(unit) + D(noise)``.

    ``truths`` holds the ground truth per jump and ``bandwidths`` the
    per-bandwidth triples of ``_bandwidths``.  Returns the (jumps,
    bandwidths, 2, tolerances) array of each detection's ``classify`` score:
    realized FDP and power per tolerance.
    """
    noise = sample_noise(req.noise_model(), req.length, req.seed ^ rep)
    tolerances = np.asarray(req.tolerances, dtype=float)
    scores = np.empty((len(req.jumps), len(req.gammas), 2, len(tolerances)))
    for g, (gamma, moments, unit) in enumerate(bandwidths):
        dz = detect.smooth(noise, KernelSpec(gamma=gamma, order=1))
        for j, (jump, truth) in enumerate(zip(req.jumps, truths)):
            dy = dz if jump == 0.0 else TimeSeries(jump * unit.values + dz.values, dz.interior)
            result = select_change_points(dy, moments, gamma, req.alpha)
            scores[j, g] = classify(result.significant, truth, tolerances)
    return scores


def run_replicates(req: SimulateRequest, reps: range) -> np.ndarray:
    """One task: the consecutive replicates ``reps``, sharing one smooth of
    the unit staircase per bandwidth.  Returns the (replicates, jumps,
    bandwidths, 2, tolerances) stack of ``run_replicate`` results."""
    truths = [req.truth(jump) for jump in req.jumps]
    bandwidths = _bandwidths(req)
    return np.array([run_replicate(req, truths, bandwidths, rep) for rep in reps])


def run_simulation(req: SimulateRequest, threads: int = 1) -> list:
    """Run the whole grid; one CellResult per (jump, gamma, tolerance).

    Cells appear in grid order (jumps outermost, tolerances innermost).
    The replicates run in one process pool of ``min(threads, replicates,
    usable CPUs)`` workers, as about four tasks of consecutive replicates
    per worker, or serially as one task when that is at most 1; usable
    CPUs are the process's affinity set where the platform reports one.
    Results arrive in replicate order, so output is independent of
    parallelism.
    """
    reps = range(req.rep_start, req.rep_start + req.replications)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, len(reps), cpus or 1)
    if workers > 1:
        # imported here, so that `import stemcpd` loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        size = -(-len(reps) // (4 * workers))
        blocks = [reps[i : i + size] for i in range(0, len(reps), size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            scores = np.concatenate(list(pool.map(run_replicates, [req] * len(blocks), blocks)))
        return _cells(req, scores)
    return _cells(req, run_replicates(req, reps))


def _cells(req: SimulateRequest, scores: np.ndarray) -> list:
    """The grid's cells from its (replicates, jumps, bandwidths, 2,
    tolerances) scores, in replicate order, by one ``aggregate`` call."""
    columns = aggregate(scores).reshape(4, -1).tolist()
    grid = itertools.product(req.jumps, req.gammas, req.tolerances)
    return [CellResult(*key, *values, req.replications, req.seed)
            for key, *values in zip(grid, *columns)]
