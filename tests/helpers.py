"""Independent reference implementations used as oracles by the tests.

Everything here deliberately avoids the package's own code paths: plain
loops, np.convolve and brute-force scans, so agreement is meaningful.
"""

import math

import numpy as np


def bh_bruteforce(pvalues, alpha):
    """Step-up rule by scanning i from m down to 1 (strict inequality)."""
    p = list(pvalues)
    m = len(p)
    if m == 0:
        return 0, 1.0, set()
    ranked = sorted(p)
    k = 0
    for i in range(m, 0, -1):
        if ranked[i - 1] < i * alpha / m:
            k = i
            break
    if k == 0:
        return 0, 0.0, set()
    thr = k * alpha / m
    return k, thr, {j for j, pj in enumerate(p) if pj < thr}


def classify_bruteforce(detections, locations, sizes, tolerance):
    """Literal region-membership evaluation with explicit loops."""
    r = len(detections)
    v = 0
    for e in detections:
        if not any(abs(e.index - loc) < tolerance for loc in locations):
            v += 1
    hits = []
    for loc, size in zip(locations, sizes):
        want = 1 if size > 0 else -1
        hits.append(
            any(abs(e.index - loc) < tolerance and e.sign == want for e in detections)
        )
    power = sum(hits) / len(hits) if len(hits) else None
    return r, v, v / max(r, 1), hits, power


def staircase_scan(jump, separation, length):
    """Change point locations by scanning jump*floor(t/separation) for
    increments over t = 2..length."""
    mu = [jump * (t // separation) for t in range(1, length + 1)]
    return [t + 1 for t in range(1, length) if mu[t] != mu[t - 1]]


def gauss_kernel_samples(gamma, cutoff, order, spacing=1.0):
    """Analytic truncated-Gaussian derivative samples, written from scratch."""
    k = int(math.ceil(cutoff * gamma / spacing))
    x = np.arange(-k, k + 1) * spacing / gamma
    phi = np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    if order == 0:
        h = phi
    elif order == 1:
        h = -x * phi
    elif order == 2:
        h = (x * x - 1) * phi
    else:
        h = (3 * x - x ** 3) * phi
    w = h / gamma ** (order + 1)
    w[np.abs(np.arange(-k, k + 1) * spacing) > cutoff * gamma] = 0.0
    return w


def reference_tail(u, var_d1, var_d2, var_d3):
    """Extremum-height tail probability via scipy.stats.norm (scalar)."""
    from scipy.stats import norm

    delta = var_d1 * var_d3 - var_d2 ** 2
    sd = math.sqrt(var_d1)
    return float(
        norm.sf(u * math.sqrt(var_d3 / delta))
        + math.sqrt(2 * math.pi * var_d2 ** 2 / (var_d3 * var_d1))
        * norm.pdf(u / sd)
        * norm.cdf(u * var_d2 / (sd * math.sqrt(delta)))
    )


def convolve_weights_pairwise(values, weights, spacing=1.0):
    """Smoothing sum accumulated lag by lag over whole arrays, one fresh
    zero array per lag: the summation order the golden fixture depends on."""
    n = len(values)
    k = (len(weights) - 1) // 2
    center = weights[k]
    antisymmetric = np.array_equal(weights[::-1], -weights)
    out = np.zeros(n)
    if center != 0.0:
        out += center * values
    for j in range(1, min(k, n - 1) + 1):
        right = weights[k + j]
        term = np.zeros(n)
        if antisymmetric:
            # w[j]*y[t-j] + w[-j]*y[t+j] = w[j]*(y[t-j] - y[t+j])
            term[j:] = values[: n - j]
            term[: n - j] -= values[j:]
            out += right * term
        else:
            term[j:] = values[: n - j]
            term[: n - j] += values[j:]
            out += right * term
    return out * spacing


def extrema_scan(values, lo, hi, origin=1):
    """Strict local extrema of values[lo:hi] as (grid index, height, sign),
    by walking runs of equal values; a run is reported at its first sample
    and exact-zero runs never count."""
    runs = []
    for i in range(lo, hi):
        if not runs or values[i] != runs[-1][1]:
            runs.append((i, values[i]))
    found = []
    for (_, left), (start, v), (_, right) in zip(runs, runs[1:], runs[2:]):
        if v != 0.0 and v > left and v > right:
            found.append((origin + start, v, 1))
        elif v != 0.0 and v < left and v < right:
            found.append((origin + start, v, -1))
    return found


def step_signal_loop(jumps, length):
    """Piecewise-constant mean on t = 1..length, adding each jump's size to
    every sample at or after its location, one jump at a time."""
    t = np.arange(1, length + 1, dtype=float)
    mu = np.zeros(length)
    for v, a in jumps:
        mu[t >= v] += a
    return mu
