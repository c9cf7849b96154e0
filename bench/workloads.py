"""The benchmark's workloads: inputs made from a seed, one operation, checks.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  Inputs are generated here with the
benchmark's own code (numpy's PCG64 and a Gaussian-density noise filter),
so the program under test only ever receives the generated inputs and a
change to the program's own generators cannot move them.

Why each workload:

- ``detect_dense``: ``detect_change_points`` on the paper's staircase at
  n = 1e6.  About 70k candidates and 10k rejections per call put most of
  the time into the per-candidate layers (extrema, the ``Extremum``
  objects, p-values, BH); smoothing is about a fifth.
- ``cli_empirical``: ``stemcpd detect`` at its defaults (empirical moments,
  trim 0.1) on a CGH-like CSV, n = 2e5, gamma = 50.  CSV parsing and four
  wide smooths dominate; per-candidate work is small.  The only workload
  that runs the CLI and empirical moments.
- ``simulate_grid``: ``run_simulation`` on the paper's design (n = 12000)
  over jumps x gammas x tolerances.  Many short sequences, so per-call
  overhead dominates: kernel weights rebuilt per call, the signal's
  sampling loop, per-tolerance ``classify``.
"""

import contextlib
import hashlib
import io
import math
import os

import numpy as np

from stemcpd import cli, harness, pipeline
from stemcpd.errors import StemcpdError
from stemcpd.inference import closed_form_moments
from stemcpd.kernels import KernelSpec, kernel_weights
from stemcpd.signals import NoiseModel, TimeSeries
from stemcpd.theory import null_max_rate

#: Noise correlation scale of every workload (the paper's nu).
NU = 2.0
#: Absolute tolerance on simulated FDR and power against the reference;
#: leaves room for last-bit rounding moves only (a changed detection moves
#: a cell by at least 1/(replicates * detections)).
CELL_TOLERANCE = 1e-9


class OpFailed(Exception):
    """An operation reported failure without raising a package error."""


#: What counts as a failed operation rather than a crash.
FAILURES = (StemcpdError, OpFailed)


def gaussian_noise(rng, n, sigma, nu):
    """White noise of scale ``sigma`` filtered by a Gaussian density of
    scale ``nu`` truncated at four scales: the program's noise model."""
    half = int(math.ceil(4.0 * nu))
    k = np.arange(-half, half + 1, dtype=float)
    g = np.exp(-0.5 * (k / nu) ** 2) / (nu * math.sqrt(2.0 * math.pi))
    return sigma * np.convolve(rng.standard_normal(n + 2 * half), g, mode="valid")


def step_mean(locations, levels, n):
    """Mean on t = 1..n that takes ``levels[j]`` after the j-th location
    (a sample at a location is on the new level)."""
    return np.asarray(levels)[np.searchsorted(locations, np.arange(1, n + 1), side="right")]


def staircase(rng, n, jump=3.0, separation=100, sigma=1.0):
    """The paper's staircase: a step of ``jump`` every ``separation``."""
    locations = np.arange(separation, n, separation)
    levels = jump * np.arange(len(locations) + 1)
    return step_mean(locations, levels, n) + gaussian_noise(rng, n, sigma, NU)


def write_sequence_csv(path, values, positions=None):
    with open(path, "w", newline="") as fh:
        if positions is None:
            fh.write("value\n")
            fh.writelines(f"{v!r}\n" for v in values.tolist())
        else:
            fh.write("position,ratio\n")
            fh.writelines(f"{p},{v!r}\n" for p, v in zip(positions.tolist(), values.tolist()))


def digest(pairs):
    """Short hash of a sequence of (index, sign) pairs."""
    text = ";".join(f"{i}:{s}" for i, s in pairs)
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def detection_summary(m, k, significant):
    return {"m": int(m), "k": int(k), "significant": digest(significant)}


def threshold_disagreement(result):
    """The step-up selection and the height-threshold selection must be the
    same set (the check ``harness._check_threshold_equivalence`` makes)."""
    u = result.outcome.u_threshold
    by_height = tuple(i for i, e in enumerate(result.extrema) if e.sign * e.height > u)
    if by_height != tuple(result.outcome.rejected):
        return [f"p-value and height selections disagree "
                f"({len(result.outcome.rejected)} vs {len(by_height)} rejections)"]
    return []


def detection_counts(nu):
    """Annotator for ``detect_change_points`` spans: candidates, rejections
    and the analytic null candidate count 2*null_max_rate*|interior| under
    the workload's true noise model (closed-form moments at that gamma)."""
    rates = {}

    def annotate(args, kwargs, result):
        gamma = float(kwargs["gamma"] if "gamma" in kwargs else args[1])
        if gamma not in rates:
            rates[gamma] = null_max_rate(closed_form_moments(NoiseModel(1.0, nu), gamma))
        lo, hi = result.interior
        return {"candidates": result.n_candidates, "rejections": result.outcome.k,
                "null_expected": 2.0 * rates[gamma] * (hi - lo)}

    return annotate


def smoothed_samples(args, kwargs, result):
    return {"samples": len(args[0])}


#: Import sites the traced run wraps: (module, attribute, span name, annotator).
#: A site that does not exist (say ``pipeline.smooth`` today, or
#: ``pipeline.smooth_derivative`` once it is deleted) is skipped.
SITES = [
    ("stemcpd.cli", "main", "cli.main", None),
    ("stemcpd.cli", "read_sequence_csv", "cli.read_sequence_csv", None),
    ("stemcpd.cli", "write_detection_csv", "cli.write_detection_csv", None),
    ("stemcpd.cli", "detect_change_points", "pipeline.detect_change_points", detection_counts(NU)),
    ("stemcpd.harness", "run_simulation", "harness.run_simulation", None),
    ("stemcpd.harness", "run_replicate", "harness.run_replicate", None),
    ("stemcpd.harness", "make_staircase", "signals.make_staircase", None),
    ("stemcpd.harness", "sample_noise", "signals.sample_noise", None),
    ("stemcpd.harness", "compose", "signals.compose", None),
    ("stemcpd.harness", "detect_change_points", "pipeline.detect_change_points", detection_counts(NU)),
    ("stemcpd.harness", "classify", "evaluation.classify", None),
    ("stemcpd.harness", "aggregate", "evaluation.aggregate", None),
    ("stemcpd.pipeline", "detect_change_points", "pipeline.detect_change_points", detection_counts(NU)),
    ("stemcpd.pipeline", "smooth_derivative", "detect.smooth_derivative", None),
    ("stemcpd.pipeline", "smooth", "detect.smooth", smoothed_samples),
    ("stemcpd.pipeline", "find_local_extrema", "detect.find_local_extrema", None),
    ("stemcpd.pipeline", "closed_form_moments", "inference.closed_form_moments", None),
    ("stemcpd.pipeline", "estimate_moments_empirical", "inference.estimate_moments_empirical", None),
    ("stemcpd.pipeline", "assign_pvalues", "inference.assign_pvalues", None),
    ("stemcpd.pipeline", "bh_select", "multitest.bh_select", None),
    ("stemcpd.pipeline", "with_height_threshold", "multitest.with_height_threshold", None),
    ("stemcpd.detect", "smooth", "detect.smooth", smoothed_samples),
    ("stemcpd.detect", "kernel_weights", "kernels.kernel_weights", None),
    ("stemcpd.inference", "smooth", "detect.smooth", smoothed_samples),
    ("stemcpd.inference", "peak_height_tail", "inference.peak_height_tail", None),
    ("stemcpd.multitest", "bh_height_threshold", "multitest.bh_height_threshold", None),
    ("stemcpd.multitest", "invert_peak_height_tail", "inference.invert_peak_height_tail", None),
]


class Workload:
    """One workload: ``prepare`` makes a seed's inputs, ``op`` is the timed
    call, ``check`` returns a comparable summary and a list of problems."""

    def matches(self, a, b):
        return a == b

    def close(self):
        pass


class DetectDense(Workload):
    name = "detect_dense"
    gamma, alpha = 6.0, 0.05

    def __init__(self, n=1_000_000):
        self.n = n
        self.samples_per_op = n
        self.model = NoiseModel(1.0, NU)

    def prepare(self, seed, workdir):
        self.series = TimeSeries(staircase(np.random.default_rng(seed), self.n))

    def op(self):
        return pipeline.detect_change_points(
            self.series, self.gamma, self.alpha, noise_model=self.model)

    def check(self, result):
        sig = [(e.index, e.sign) for e in result.significant]
        summary = detection_summary(result.n_candidates, result.outcome.k, sig)
        return summary, threshold_disagreement(result)


class CliEmpirical(Workload):
    name = "cli_empirical"
    gamma = 50.0
    levels = (-0.6, -0.3, 0.0, 0.25, 0.45)
    sigma = 0.2

    def __init__(self, n=200_000, jumps=300):
        self.n = n
        self.jumps = jumps
        self.samples_per_op = n

    def prepare(self, seed, workdir):
        """A CGH-like log-ratio track: change points at random positions
        between copy-number levels near zero, with genomic positions."""
        rng = np.random.default_rng(seed)
        n = self.n
        locations = np.sort(rng.choice(np.arange(n // 400 + 2, n - n // 400), self.jumps,
                                       replace=False))
        levels = [0.0]
        for _ in range(self.jumps):
            levels.append(rng.choice([v for v in self.levels if v != levels[-1]]))
        self.values = step_mean(locations, levels, n) + gaussian_noise(rng, n, self.sigma, NU)
        positions = 1_000_000 + np.cumsum(rng.integers(500, 5000, n))
        stem = os.path.join(workdir, f"cli-{os.getpid()}-{seed}")
        self.input, self.output = stem + "-in.csv", stem + "-out.csv"
        write_sequence_csv(self.input, self.values, positions)
        self._library = None

    def op(self):
        code = cli.main(["detect", "--input", self.input, "--output", self.output,
                         "--gamma", repr(self.gamma)])
        if code != 0:
            raise OpFailed(f"stemcpd detect exited with {code}")
        return self.output

    def check(self, path):
        """The CSV, re-read, must reproduce the library's significant set,
        and its rows must agree with its own height threshold."""
        rows, meta = cli.parse_detection_csv(path)
        sign = [1 if r["sign"] == "max" else -1 for r in rows]
        significant = [(int(r["index"]), s) for r, s in zip(rows, sign) if r["significant"] == "1"]
        if self._library is None:
            result = pipeline.detect_change_points(TimeSeries(self.values), self.gamma, 0.05)
            self._library = [(e.index, e.sign) for e in result.significant]
        found = []
        if significant != self._library:
            found.append("CSV significant set differs from the library result")
        u = float(meta["u_threshold"])
        by_height = [s * float(r["height"]) > u for r, s in zip(rows, sign)]
        if by_height != [r["significant"] == "1" for r in rows]:
            found.append("CSV significant flags disagree with its height threshold")
        return detection_summary(meta["m_tilde"], meta["k"], significant), found

    def close(self):
        for path in (getattr(self, "input", None), getattr(self, "output", None)):
            if path and os.path.exists(path):
                os.remove(path)


class SimulateGrid(Workload):
    name = "simulate_grid"
    jumps = (1.0, 2.0, 3.0)
    gammas = (2.0, 6.0, 10.0)
    tolerances = tuple(float(b) for b in range(2, 11))

    def __init__(self, length=12000, replications=2):
        self.length = length
        self.replications = replications
        self.samples_per_op = length * replications * len(self.jumps) * len(self.gammas)

    def prepare(self, seed, workdir):
        # run_simulation draws its own noise from the seed: replicate r of
        # every cell uses seed ^ r.
        self.request = harness.SimulateRequest(
            length=self.length, separation=100, jumps=self.jumps, gammas=self.gammas,
            tolerances=self.tolerances, alpha=0.05, sigma=1.0, nu=NU,
            replications=self.replications, seed=seed)

    def op(self):
        # Serial on purpose: a pool on two shared cores would measure the
        # scheduler, and wrapped functions do not cross process boundaries.
        return harness.run_simulation(self.request, threads=1)

    def check(self, cells):
        found = []
        grid = [(j, g, b) for j in self.jumps for g in self.gammas for b in self.tolerances]
        if [(c.jump, c.gamma, c.tolerance) for c in cells] != grid:
            found.append("cells are not the requested grid in grid order")
        if not all(0.0 <= c.fdr <= 1.0 and 0.0 <= c.power <= 1.0 for c in cells):
            found.append("FDR or power outside [0, 1]")
        return [[round(c.fdr, 12), round(c.power, 12)] for c in cells], found

    def matches(self, a, b):
        return len(a) == len(b) and all(
            abs(x - y) <= CELL_TOLERANCE for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b))


def make(name, tiny=False):
    """The named workload at benchmark size, or at a size for smoke tests."""
    if name == "detect_dense":
        return DetectDense(n=20_000) if tiny else DetectDense()
    if name == "cli_empirical":
        return CliEmpirical(n=5_000, jumps=10) if tiny else CliEmpirical()
    if name == "simulate_grid":
        return SimulateGrid(length=1_200, replications=1) if tiny else SimulateGrid()
    raise ValueError(f"unknown workload {name!r}")


def known_defect(workdir):
    """Whether the default CLI path (empirical moments) still raises on the
    paper staircase at n = 12000, jump 3, gamma 6.  Order-2 kernel weights
    do not sum to zero, so the empirical var_d2 grows with the mean level.
    Reported, never gated."""
    path = os.path.join(workdir, f"defect-{os.getpid()}.csv")
    out = path + ".out"
    write_sequence_csv(path, staircase(np.random.default_rng(0), 12000))
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(["detect", "--input", path, "--output", out, "--gamma", "6"])
    finally:
        for p in (path, out):
            if os.path.exists(p):
                os.remove(p)
    weight_sum = math.fsum(kernel_weights(KernelSpec(6.0, order=2)))
    return {"exit_code": code, "stderr": err.getvalue().strip(),
            "order2_weight_sum_gamma6": weight_sum, "still_raises": code != 0}
