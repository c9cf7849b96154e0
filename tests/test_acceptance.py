"""Acceptance suite: one test per criterion, printing one PASS line each.

Monte Carlo scales are chosen so every check finishes in seconds while
leaving a clear margin to its tolerance.  Replicate seeds are fixed, so
the suite is deterministic.
"""

import math
import time

import numpy as np
from scipy.stats import kstest

from stemcpd import (
    KernelSpec,
    NoiseModel,
    SimulateRequest,
    TimeSeries,
    assign_pvalues,
    bh_select,
    closed_form_moments,
    compose,
    detect_change_points,
    find_local_extrema,
    make_staircase,
    null_max_rate,
    run_simulation,
    sample_noise,
    smooth,
    theoretical_power_curve,
)
from stemcpd.cli import main

from helpers import bh_bruteforce, run_replicate

MODEL = NoiseModel(sigma=1.0, nu=2.0)


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} ({name}): {status} - {detail}")
    assert passed, f"criterion {num} failed: {detail}"


def test_criterion_01_null_pvalue_calibration():
    start = time.monotonic()
    noise = sample_noise(MODEL, 200_000, seed=7)
    dy = smooth(noise, KernelSpec(gamma=6.0, order=1))
    extrema = find_local_extrema(dy)
    moments = closed_form_moments(MODEL, 6.0)
    pvalues = [e.p_value for e in assign_pvalues(extrema, moments)]
    ks = kstest(pvalues, "uniform").statistic
    elapsed = time.monotonic() - start
    ok = len(pvalues) >= 10_000 and ks < 0.02 and elapsed < 10.0
    report(
        1, "null p-value calibration", ok,
        f"candidates={len(pvalues)} (>=10000), KS={ks:.4f} (<0.02), "
        f"{elapsed:.1f}s (<10s)",
    )


def test_criterion_02_closed_form_moments():
    length = 1_000_000
    noise = sample_noise(MODEL, length, seed=101)
    worst = 0.0
    for gamma in (3.0, 6.0, 10.0):
        ref = closed_form_moments(MODEL, gamma)
        for order, expected in [(1, ref.var_d1), (2, ref.var_d2), (3, ref.var_d3)]:
            d = smooth(noise, KernelSpec(gamma=gamma, order=order))
            seg = d.values[d.interior_slice()]
            rel = abs(seg.var() / expected - 1.0)
            worst = max(worst, rel)
    report(
        2, "closed-form moments", worst < 0.05,
        f"worst relative error {worst:.4f} over gamma in {{3,6,10}}, orders 1-3 (<0.05)",
    )


def test_criterion_03_null_extrema_rate():
    noise = sample_noise(MODEL, 1_000_000, seed=103)
    dy = smooth(noise, KernelSpec(gamma=6.0, order=1))
    maxima = [e for e in find_local_extrema(dy) if e.sign > 0]
    lo, hi = dy.interior
    observed = len(maxima) / (hi - lo)
    expected = null_max_rate(closed_form_moments(MODEL, 6.0))
    rel = abs(observed / expected - 1.0)
    report(
        3, "null extrema rate", rel < 0.03,
        f"observed {observed:.6f}/unit vs analytic {expected:.6f}/unit, "
        f"relative error {rel:.4f} (<0.03)",
    )


def test_criterion_04_figure2_corner():
    start = time.monotonic()
    req = SimulateRequest(
        length=12000, separation=100, jumps=(1.0, 2.0, 3.0), gammas=(6.0,),
        tolerances=(8.0,), alpha=0.05, replications=500, seed=202,
    )
    cells = {c.jump: c for c in run_simulation(req)}
    elapsed = time.monotonic() - start
    strong = cells[3.0]
    ok = (
        strong.fdr <= 0.06
        and strong.power >= 0.90
        and cells[3.0].power >= cells[2.0].power >= cells[1.0].power
        and elapsed < 300.0
    )
    report(
        4, "strong-jump corner", ok,
        f"FDR={strong.fdr:.4f} (<=0.06), power={strong.power:.4f} (>=0.90), "
        f"power by jump {cells[1.0].power:.3f}<={cells[2.0].power:.3f}"
        f"<={cells[3.0].power:.3f}, {elapsed:.0f}s (<300s)",
    )


def test_criterion_05_interference():
    req = SimulateRequest(
        length=12000, separation=15, jumps=(3.0,), gammas=(4.0, 10.0),
        tolerances=(5.0,), alpha=0.05, replications=500, seed=303,
    )
    cells = {c.gamma: c for c in run_simulation(req)}
    ok = cells[10.0].power < cells[4.0].power
    report(
        5, "close-jump interference", ok,
        f"power(gamma=10)={cells[10.0].power:.3f} < power(gamma=4)={cells[4.0].power:.3f}",
    )


def test_criterion_06_power_curve_dip():
    grid = np.array([0.5] + list(range(1, 11)), dtype=float)
    curve = theoretical_power_curve(1.0, MODEL, grid, density=0.01, alpha=0.05)
    best = float(grid[int(np.argmin(curve))])
    target = float(grid[int(np.argmin(np.abs(grid - math.sqrt(2) * MODEL.nu)))])
    report(
        6, "power-curve dip location", best == target,
        f"curve minimum at gamma={best}, nearest grid point to sqrt(2)*nu is {target}",
    )


def test_criterion_07_bh_oracle_equivalence():
    rng = np.random.default_rng(404)
    mismatches = 0
    for _ in range(1000):
        m = int(rng.integers(1, 501))
        p = np.clip(rng.uniform(size=m) ** rng.uniform(0.2, 5.0), 1e-15, 1.0)
        alpha = float(rng.uniform(0.01, 0.4))
        out = bh_select(p, alpha)
        k, _, rejected = bh_bruteforce(p, alpha)
        if out.k != k or set(out.rejected) != rejected:
            mismatches += 1
    report(
        7, "step-up oracle equivalence", mismatches == 0,
        f"{mismatches} mismatches over 1000 random p-value sets (sizes 1-500)",
    )


def test_criterion_08_complete_null_fdr():
    req = SimulateRequest(
        length=12000, separation=100, jumps=(0.0,), gammas=(6.0,),
        tolerances=(8.0,), alpha=0.05, replications=2000, seed=505,
    )
    truth = req.truth(0.0)
    with_rejections = 0
    for rep in range(req.replications):
        (res,) = run_replicate(req, truth, rep)
        with_rejections += res.n_detected > 0
    fraction = with_rejections / req.replications
    report(
        8, "complete-null rejections", fraction <= 0.06,
        f"fraction of replicates with >=1 rejection {fraction:.4f} (<=0.06)",
    )


def test_criterion_09_threshold_equivalence():
    # the harness asserts set equality inside every replicate; verify it
    # here explicitly on fresh replicates at two signal strengths
    mismatches = 0
    checked = 0
    for jump, alpha in ((0.8, 0.05), (3.0, 0.2)):
        sig = make_staircase(jump, 100, 6000)
        for rep in range(25):
            y = compose(sig, sample_noise(MODEL, 6000, seed=606 ^ rep))
            res = detect_change_points(y, 6.0, alpha, noise_model=MODEL)
            u = res.outcome.u_threshold
            by_height = tuple(
                i for i, e in enumerate(res.extrema) if e.sign * e.height > u
            )
            checked += 1
            mismatches += by_height != tuple(res.outcome.rejected.tolist())
    report(
        9, "threshold equivalence", mismatches == 0,
        f"{mismatches} mismatches over {checked} replicates "
        f"(plus every harness replicate, checked internally)",
    )


def test_criterion_10_noiseless_recovery():
    failures = []
    for gamma in (2.0, 6.0, 10.0):
        sep = int(2 * 4.0 * gamma) + 10
        for jump in (1.7, -0.9):
            sig = make_staircase(jump, sep, 15 * sep)
            y = compose(sig, TimeSeries(np.zeros(sig.length)))
            dy = smooth(y, KernelSpec(gamma=gamma, order=1))
            extrema = find_local_extrema(dy)
            want = 1 if jump > 0 else -1
            ok = (
                len(extrema) == sig.n_jumps
                and all(abs(e.index - v) <= 1 for e, v in zip(extrema, sig.locations))
                and all(e.sign == want for e in extrema)
            )
            if not ok:
                failures.append((gamma, jump))
    report(
        10, "noiseless recovery", not failures,
        f"locations within +/-1 sample with correct signs for gamma in "
        f"{{2,6,10}}, both jump signs; failures: {failures or 'none'}",
    )


def test_criterion_11_simulation_determinism(tmp_path):
    argv = ["simulate", "--length", "3000", "--separation", "100",
            "--jump", "0,2", "--grid-gamma", "4,6", "--grid-b", "5,8",
            "--reps", "5", "--seed", "77"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    report(
        11, "simulation determinism", identical,
        f"two runs produced byte-identical CSV ({len(a.read_bytes())} bytes)",
    )
