"""End-to-end detector and simulation harness tests."""

import itertools
import math
import os
from collections import Counter

import numpy as np
import pytest

from stemcpd import (
    InvalidParameterError,
    KernelSpec,
    NoiseModel,
    SimulateRequest,
    TimeSeries,
    aggregate,
    classify,
    compose,
    detect_change_points,
    make_staircase,
    run_simulation,
    sample_noise,
    smooth,
)
from stemcpd import detect, harness
from stemcpd.harness import CellResult

from helpers import aggregate_per_tolerance, classify_per_tolerance, run_replicate, score_at

MODEL = NoiseModel(sigma=1.0, nu=2.0)


def observed(jump=3.0, sep=100, length=4000, seed=51):
    sig = make_staircase(jump, sep, length)
    return compose(sig, sample_noise(MODEL, length, seed=seed)), sig


class TestDetectChangePoints:
    def test_strong_staircase_recovered(self):
        y, sig = observed()
        res = detect_change_points(y, 6.0, 0.05, noise_model=MODEL)
        hits = classify(res.significant, sig, (8.0,))
        assert hits.power_fraction.tolist() == [1.0]
        assert hits.fdp[0] <= 0.1

    def test_deterministic(self):
        y, _ = observed()
        a = detect_change_points(y, 6.0, 0.05, noise_model=MODEL)
        b = detect_change_points(y, 6.0, 0.05, noise_model=MODEL)
        assert list(a.extrema) == list(b.extrema)
        assert (a.moments, a.interior) == (b.moments, b.interior)
        for name in ("k", "p_threshold", "u_threshold"):
            assert getattr(a.outcome, name) == getattr(b.outcome, name)
        assert np.array_equal(a.outcome.rejected, b.outcome.rejected)

    def test_threshold_equivalence(self):
        y, _ = observed(jump=1.0, seed=53)
        res = detect_change_points(y, 6.0, 0.05, noise_model=MODEL)
        u = res.outcome.u_threshold
        by_height = {
            i for i, e in enumerate(res.extrema) if e.sign * e.height > u
        }
        assert by_height == set(res.outcome.rejected)

    def test_empirical_moments_default(self):
        y, sig = observed(seed=57)
        res = detect_change_points(y, 6.0, 0.05)
        hits = classify(res.significant, sig, (8.0,))
        assert hits.power_fraction[0] >= 0.95

    def test_constant_input_yields_nothing(self):
        res = detect_change_points(
            TimeSeries(np.full(500, 2.0)), 6.0, 0.05, noise_model=MODEL
        )
        assert res.n_candidates == 0
        assert len(res.significant) == 0
        assert res.outcome.p_threshold == 1.0

    def test_constant_input_without_moment_source(self):
        # unestimable moments are tolerated when there are no candidates
        res = detect_change_points(TimeSeries(np.full(500, 2.0)), 6.0, 0.05)
        assert res.n_candidates == 0
        assert res.moments is None
        assert res.outcome.u_threshold == -np.inf

    @pytest.mark.parametrize("values,noise_model", [
        (np.full(300, 7.5), MODEL),
        (np.full(300, 7.5), None),  # moments cannot be estimated
        (np.random.default_rng(5).standard_normal(50), MODEL),  # interior of 2 samples
    ], ids=["constant-closed", "constant-empirical", "short-interior"])
    def test_no_candidates_take_the_one_selection_path(self, values, noise_model):
        res = detect_change_points(TimeSeries(values), 6.0, 0.05, noise_model=noise_model)
        assert res.n_candidates == 0
        assert res.extrema.p_value.dtype == np.float64 and res.extrema.p_value.shape == (0,)
        assert (res.outcome.k, res.outcome.p_threshold) == (0, 1.0)
        assert res.outcome.rejected.shape == (0,)
        assert res.outcome.u_threshold == -math.inf

    @pytest.mark.parametrize("alpha", [1.5, 0.0, math.nan])
    def test_bad_alpha_refused_before_smoothing(self, monkeypatch, alpha):
        from stemcpd import detect

        def no_smooth(series, spec):
            raise AssertionError("smoothed before alpha was checked")

        monkeypatch.setattr(detect, "smooth", no_smooth)
        y, _ = observed(length=500)
        for model in (MODEL, None):
            with pytest.raises(InvalidParameterError, match=r"alpha must lie in \(0, 1\)"):
                detect_change_points(y, 6.0, alpha, noise_model=model)

    def test_empirical_path_smooths_each_order_once(self, monkeypatch):
        """The estimator reuses the detector's order-1 smooth: one smooth
        per derivative order, three in all."""
        from stemcpd import detect, inference

        orders = []

        def recording_smooth(series, spec):
            orders.append(spec.order)
            return smooth(series, spec)

        monkeypatch.setattr(detect, "smooth", recording_smooth)
        monkeypatch.setattr(inference, "smooth", recording_smooth)
        y, _ = observed(seed=59)
        detect_change_points(y, 6.0, 0.05)
        assert orders == [1, 2, 3]

    def test_unestimable_moments_with_candidates_still_raise(self):
        from stemcpd import MomentEstimationError

        t = np.arange(1, 3001, dtype=float)
        with pytest.raises(MomentEstimationError):
            detect_change_points(TimeSeries(np.cos(0.2 * t)), 6.0, 0.05)


class TestRunReplicate:
    def test_scores_per_tolerance(self):
        req = SimulateRequest(
            length=3000, separation=100, jumps=(3.0,), gammas=(6.0,),
            tolerances=(2.0, 8.0), replications=1, seed=7,
        )
        (res,) = run_replicate(req, req.truth(3.0), rep=0)
        (p2, p8), (v2, v8) = res.power_fraction, res.n_false
        assert p8 >= p2
        assert v8 <= v2

    def test_null_cell(self):
        req = SimulateRequest(
            length=3000, separation=100, jumps=(0.0,), gammas=(6.0,),
            tolerances=(8.0,), replications=1, seed=7,
        )
        (res,) = run_replicate(req, req.truth(0.0), rep=0)
        assert np.isnan(res.power_fraction).all()
        assert res.n_false.tolist() == [res.n_detected]


class TestLinearity:
    @pytest.mark.parametrize("jump", [1.0, 3.0, -2.0, 0.3, 7.25])
    @pytest.mark.parametrize("gamma", [1.0, 6.0, 10.0])
    def test_within_four_ulps_of_the_composed_smooth(self, jump, gamma):
        """``jump * D(unit) + D(noise)`` is within 4 ulps of the largest
        composed sample of ``D(truth(jump) + noise)``.  The smooth cancels,
        so its rounding error scales with its input, not its output; over
        these cases and lengths 3000 and 12000 the largest difference
        measured was 1.25 such ulps."""
        req = SimulateRequest(length=12000, separation=100, jumps=(jump,), gammas=(gamma,))
        spec = KernelSpec(gamma=gamma, order=1)
        noise = sample_noise(MODEL, req.length, seed=37)
        y = compose(req.truth(jump), noise)
        direct = smooth(y, spec).values
        linear = jump * smooth(TimeSeries(req.truth(1.0).mean), spec).values \
            + smooth(noise, spec).values
        assert np.max(np.abs(direct - linear)) <= 4 * np.spacing(np.max(np.abs(y.values)))


class TestRunSimulation:
    REQ = SimulateRequest(
        length=3000, separation=100, jumps=(0.0, 3.0), gammas=(4.0, 6.0),
        tolerances=(5.0, 8.0), alpha=0.05, replications=4, seed=11,
    )

    def test_grid_order_and_shape(self):
        cells = run_simulation(self.REQ)
        assert len(cells) == 2 * 2 * 2
        key = [(c.jump, c.gamma, c.tolerance) for c in cells]
        assert key == sorted(key, key=lambda t: (self.REQ.jumps.index(t[0]),
                                                 self.REQ.gammas.index(t[1]),
                                                 self.REQ.tolerances.index(t[2])))

    # cells are compared by repr: a null cell's NaN power is unequal to itself

    def test_reproducible(self):
        a = run_simulation(self.REQ)
        b = run_simulation(self.REQ)
        assert repr(a) == repr(b)

    def test_parallel_matches_serial(self):
        serial = run_simulation(self.REQ, threads=1)
        parallel = run_simulation(self.REQ, threads=2)
        assert repr(serial) == repr(parallel)

    def test_split_runs_merge_to_whole(self):
        """Replicates 0..3 and 4..7 run separately combine to the same
        aggregates as the single 8-replicate run."""
        base = dict(length=3000, separation=100, jumps=(3.0,), gammas=(6.0,),
                    tolerances=(8.0,), alpha=0.05, seed=13)
        whole = run_simulation(SimulateRequest(replications=8, **base))[0]
        first = run_simulation(SimulateRequest(replications=4, **base))[0]
        second = run_simulation(SimulateRequest(replications=4, rep_start=4, **base))[0]
        merged_fdr = (first.fdr * 4 + second.fdr * 4) / 8
        merged_power = (first.power * 4 + second.power * 4) / 8
        assert abs(merged_fdr - whole.fdr) <= 1e-12
        assert abs(merged_power - whole.power) <= 1e-12

    def test_null_cells_report_nan_power(self):
        req = SimulateRequest(length=3000, separation=100, jumps=(0.0,),
                              gammas=(6.0,), tolerances=(8.0,), replications=2, seed=3)
        (cell,) = run_simulation(req)
        assert np.isnan(cell.power)
        assert cell.fdr >= 0.0

    def test_invalid_grids(self):
        with pytest.raises(InvalidParameterError):
            SimulateRequest(gammas=())
        with pytest.raises(InvalidParameterError):
            SimulateRequest(tolerances=(0.0,))
        with pytest.raises(InvalidParameterError):
            SimulateRequest(replications=0)
        for field, bad in (("jumps", (1.0, math.nan)), ("gammas", (math.inf,)),
                           ("tolerances", (math.nan,)), ("tolerances", (5.0, math.inf))):
            with pytest.raises(InvalidParameterError, match=f"{field} grid must be finite"):
                SimulateRequest(**{field: bad})
        # the level and the noise model are refused at construction, not in a replicate
        for bad, message in (({"alpha": 1.5, "sigma": -1.0}, r"alpha must lie in \(0, 1\)"),
                             ({"alpha": 0.0}, r"alpha must lie in \(0, 1\)"),
                             ({"sigma": -1.0}, "sigma must be positive"),
                             ({"nu": math.inf}, "nu must be non-negative and finite")):
            with pytest.raises(InvalidParameterError, match=message):
                SimulateRequest(**bad)

    def test_one_pool_per_grid(self, monkeypatch):
        pools = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        # two usable CPUs, so the pool starts on any machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert repr(run_simulation(self.REQ, threads=2)) == repr(run_simulation(self.REQ, threads=1))
        assert len(pools) == 1

    @pytest.mark.parametrize("affinity,cpu_count,reps,workers", [
        (4, 16, 3, 3), (4, 16, 8, 4), (1, 16, 8, None),  # the affinity set counts
        (None, 3, 8, 3), (None, None, 8, None),  # without one, the CPU count does
    ])
    def test_pool_bounded_by_tasks_and_cpus(self, monkeypatch, affinity, cpu_count, reps,
                                            workers):
        """A huge STEMCPD_THREADS asks for min(tasks, usable CPUs) workers,
        and one usable CPU runs serially.  The pool is a fake that records
        its size and runs in-process, so no worker process starts."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                                raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        monkeypatch.setenv("STEMCPD_THREADS", "100000")
        req = SimulateRequest(length=400, separation=100, jumps=(1.0,), gammas=(2.0,),
                              tolerances=(5.0,), replications=reps, seed=1)
        cells = run_simulation(req)
        assert sizes == ([] if workers is None else [workers])
        assert repr(cells) == repr(run_simulation(req, threads=1))

    @pytest.mark.parametrize("threads,tasks", [(1, 1), (2, 4)])
    def test_work_shared_across_jumps_and_replicates(self, monkeypatch, threads, tasks):
        """Each replicate draws its noise once and smooths it once per
        bandwidth; each task smooths the unit staircase once per bandwidth;
        each (replicate, jump, bandwidth) detection is scored by one
        classify call, and the grid is aggregated by one call.  With two
        threads the pool is an in-process fake over two CPUs, so the calls
        of its four one-replicate tasks are counted here too."""
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        class InProcessPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        serial = repr(run_simulation(self.REQ, threads=1))
        monkeypatch.setattr(harness, "run_replicates",
                            counting("run_replicates", harness.run_replicates))
        monkeypatch.setattr(harness, "sample_noise", counting("sample_noise", sample_noise))
        monkeypatch.setattr(detect, "smooth", counting("smooth", smooth))
        monkeypatch.setattr(harness, "classify", counting("classify", classify))
        monkeypatch.setattr(harness, "aggregate", counting("aggregate", aggregate))
        cells = run_simulation(self.REQ, threads=threads)
        reps, n_jumps, n_gammas = self.REQ.replications, len(self.REQ.jumps), len(self.REQ.gammas)
        assert calls == {"run_replicates": tasks, "sample_noise": reps,
                         "smooth": reps * n_gammas + tasks * n_gammas,
                         "classify": reps * n_jumps * n_gammas, "aggregate": 1}
        assert repr(cells) == serial

    def test_null_grid_smooths_no_staircase(self, monkeypatch):
        """With every jump zero only the noise is smoothed."""
        smooths = []
        monkeypatch.setattr(detect, "smooth", lambda *args: smooths.append(args) or smooth(*args))
        req = SimulateRequest(length=2000, separation=100, jumps=(0.0,), gammas=(2.0, 6.0),
                              tolerances=(5.0,), replications=3, seed=5)
        run_simulation(req, threads=1)
        assert len(smooths) == 3 * 2

    @pytest.mark.parametrize("separation", [100, 1])
    def test_null_grid_runs_at_any_separation(self, separation):
        """A grid whose jumps are all zero builds no staircase, so a
        separation no staircase could take still gives a null cell."""
        req = SimulateRequest(length=50, separation=separation, jumps=(0.0,), gammas=(2.0,),
                              tolerances=(5.0,), replications=3, seed=3)
        (cell,) = run_simulation(req)
        assert np.isnan(cell.power) and cell.fdr >= 0.0
        assert (cell.jump, cell.replications) == (0.0, 3)

    @pytest.mark.parametrize("jumps,reps,rep_start", [
        ((0.0, 1.0, 3.0), 3, 0),
        ((-2.0, 0.3), 2, 5),
        ((0.0,), 2, 0),
        ((0.7, 0.0, -0.3), 1, 9),
    ])
    def test_cells_match_replicate_oracle(self, jumps, reps, rep_start):
        """Smoothing by linearity gives, by repr, the cells of composing
        each observed sequence and running ``detect_change_points`` on it,
        at zero, negative and non-integer jumps."""
        req = SimulateRequest(length=2000, separation=100, jumps=jumps, gammas=(2.0, 6.0),
                              tolerances=(2.0, 8.0), replications=reps, seed=31,
                              rep_start=rep_start)
        expected = []
        for jump in req.jumps:
            truth = req.truth(jump)
            scores = [run_replicate(req, truth, r) for r in range(rep_start, rep_start + reps)]
            for g, gamma in enumerate(req.gammas):
                agg = aggregate([res[g].rates for res in scores])
                expected += [CellResult(jump, gamma, *values, reps, req.seed) for values in
                             zip(req.tolerances, agg.fdr.tolist(), agg.fdr_se.tolist(),
                                 agg.power.tolist(), agg.power_se.tolist())]
        assert repr(run_simulation(req, threads=1)) == repr(expected)

    def test_grid_monotonicities_in_tolerance(self):
        """Widening the tolerance window can only lower realized FDR and
        raise realized power, cell by cell."""
        req = SimulateRequest(
            length=6000, separation=100, jumps=(1.0, 3.0), gammas=(2.0, 6.0, 10.0),
            tolerances=(2.0, 5.0, 8.0), alpha=0.05, replications=100, seed=91,
        )
        cells = run_simulation(req)
        by_pair = {}
        for c in cells:
            by_pair.setdefault((c.jump, c.gamma), []).append(c)
        for series in by_pair.values():
            fdrs = [c.fdr for c in series]
            powers = [c.power for c in series]
            assert all(a >= b - 1e-12 for a, b in zip(fdrs, fdrs[1:]))
            assert all(a <= b + 1e-12 for a, b in zip(powers, powers[1:]))

    def test_strong_jumps_control_fdr_across_grid(self):
        """At strong signal the realized FDR stays near or below the
        nominal level over the whole bandwidth grid."""
        req = SimulateRequest(
            length=6000, separation=100, jumps=(3.0,), gammas=(2.0, 4.0, 6.0, 8.0, 10.0),
            tolerances=(8.0,), alpha=0.05, replications=100, seed=93,
        )
        for cell in run_simulation(req):
            assert cell.fdr <= 0.05 + 0.02, (cell.gamma, cell.fdr)
            assert cell.power >= 0.95

    def test_single_replicate_rationals(self):
        req = SimulateRequest(length=3000, separation=100, jumps=(1.0,),
                              gammas=(6.0,), tolerances=(5.0,), replications=1, seed=21)
        (cell,) = run_simulation(req)
        rep = score_at(run_replicate(req, req.truth(1.0), rep=0)[0], 0)
        truth = make_staircase(1.0, 100, 3000)
        # with one replicate the cell averages are single-outcome fractions
        assert cell.power == rep.power_fraction
        assert cell.fdr == rep.fdp
        assert cell.power * truth.n_jumps == pytest.approx(round(cell.power * truth.n_jumps))
        assert rep.fdp * max(rep.n_detected, 1) == pytest.approx(rep.n_false)

    @pytest.mark.parametrize("reps", [1, 2, 9])
    def test_cells_match_per_tolerance_oracles(self, reps):
        """Every cell, null cells and single-replicate errors included,
        equals by repr the cell composed from one-tolerance scoring and
        one-tolerance aggregation of the same replicates."""
        req = SimulateRequest(length=2000, separation=100, jumps=(0.0, 1.0, 3.0),
                              gammas=(4.0, 8.0), tolerances=(2.0, 5.0, 10.0, 49.0),
                              replications=reps, seed=17)
        model = req.noise_model()
        expected = []
        for jump, gamma in itertools.product(req.jumps, req.gammas):
            truth = req.truth(jump)
            ys = [compose(truth, sample_noise(model, req.length, req.seed ^ r)) for r in range(reps)]
            found = [detect_change_points(y, gamma, req.alpha, noise_model=model).significant
                     for y in ys]
            for b in req.tolerances:
                agg = aggregate_per_tolerance(classify_per_tolerance(f, truth, b) for f in found)
                expected.append(CellResult(jump, gamma, b, agg.fdr, agg.fdr_se, agg.power,
                                           agg.power_se, reps, req.seed))
        assert repr(run_simulation(req, threads=1)) == repr(expected)
