"""Independent reference implementations used as oracles by the tests,
a builder of ``Extrema`` test inputs, the shared input of the
traced-memory tests, a reader of one ``theory_table`` column, the
kernel's center tap as the detector samples it, and a patch that makes
the height threshold disagree with the step-up selection.

The oracles deliberately avoid the package's own code paths: plain
loops, np.convolve, brute-force scans, the paper's closed forms and the
whole-array code that the package's faster forms replaced (among them the
extraction, height tail, step-up rule and scorer as they were before their
per-call cost was cut), so agreement is meaningful.
Two oracles are exceptions.  The tail inversion bisects the package's own
``peak_height_tail``, since bit-for-bit agreement is only defined on the
same tail.  The simulation replicate adds each noise draw to the truth and
runs the package's ``detect_change_points`` on the sum, since the harness
must agree with the detector itself.
"""

import csv
import functools
import math
from collections import namedtuple

import numpy as np
from scipy.special import ndtr

from stemcpd import (
    Extrema,
    GAUSSIAN_CUTOFF,
    InvalidParameterError,
    NoiseModel,
    TimeSeries,
    classify,
    detect_change_points,
    kernel_weights,
    make_staircase,
    peak_height_tail,
    sample_noise,
    theory_table,
)
from stemcpd import pipeline
from stemcpd.cli import InputDataError
from stemcpd.multitest import BHOutcome, check_alpha


def extrema_of(index, height, sign, p_value=None):
    """An ``Extrema`` from plain lists, in the dtypes the detector uses;
    without ``p_value`` every p-value is NaN, as before inference."""
    p = np.full(len(index), np.nan) if p_value is None else np.array(p_value, dtype=float)
    return Extrema(np.array(index, dtype=np.int64), np.array(height, dtype=float),
                   np.array(sign, dtype=np.int64), p)


def break_height_threshold(monkeypatch):
    """Make the detector's height threshold +inf whenever the step-up rule
    rejects something, so the height rule selects nothing and the two
    selections disagree."""
    real = pipeline.bh_height_threshold
    monkeypatch.setattr(pipeline, "bh_height_threshold",
                        lambda outcome, moments: math.inf if outcome.k > 0
                        else real(outcome, moments))


@functools.cache
def dense_staircase():
    """The paper staircase at n = 1e6 (jump 3 every 100 samples, nu = 2
    noise, seed 5), built once for the traced-memory tests; its values are
    read-only."""
    n = 1_000_000
    y = TimeSeries(make_staircase(3.0, 100, n).mean
                   + sample_noise(NoiseModel(1.0, 2.0), n, seed=5).values)
    y.values.flags.writeable = False
    return y


def power_column(model, jump, gammas, density, alpha) -> np.ndarray:
    """The ``power_j<jump>`` column of ``theory_table``: approximate power
    at the asymptotic step-up threshold, one value per bandwidth."""
    header, rows = theory_table(model, gammas, (jump,), density, alpha)
    column = header.index(f"power_j{jump:g}")
    return np.array([row[column] for row in rows])


def step_up_limit(moments, gamma, density, alpha):
    """The paper's asymptotic step-up quantities at one bandwidth, as
    ``(null_fraction, q_star, fdr_bound)``.

    The kernel supports around the change points, ``2*GAUSSIAN_CUTOFF*gamma``
    wide at density ``A``, leave the null fraction of the domain.  There
    null maxima and minima each fall at the Rice rate
    ``sqrt(var_d3/var_d2)/(2*pi)``, ``m0`` per unit length together, and
    every change point is found in the limit.  The step-up threshold is the
    fixed point of ``q = alpha*G(q)``, ``G(q) = (A + m0*q)/(A + m0)`` being
    the limiting share of p-values below ``q``; the bound is the false
    share ``m0*q/(A + m0*q)`` of the rejections there.
    """
    null_fraction = 1.0 - GAUSSIAN_CUTOFF * 2.0 * gamma * density
    m0 = 2.0 * null_fraction * math.sqrt(moments.var_d3 / moments.var_d2) / (2.0 * math.pi)
    q_star = alpha * density / (density + m0 - alpha * m0)
    return null_fraction, q_star, m0 * q_star / (density + m0 * q_star)


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
    found = list(zip(detections.index.tolist(), detections.sign.tolist()))
    r = len(found)
    v = 0
    for index, _ in found:
        if not any(abs(index - loc) < tolerance for loc in locations):
            v += 1
    hits = []
    for loc, size in zip(locations, sizes):
        want = 1 if size > 0 else -1
        hits.append(
            any(abs(index - loc) < tolerance and sign == want for index, sign in found)
        )
    power = sum(hits) / len(hits) if len(hits) else None
    return r, v, v / max(r, 1), hits, power


#: The score of one realization at one tolerance, as the scoring kept it
#: before one record held every tolerance: ``per_jump_hit`` a tuple of
#: bools and ``power_fraction`` None when the truth has no jumps.
ToleranceScore = namedtuple(
    "ToleranceScore", "n_detected n_false fdp per_jump_hit power_fraction n_wrong_sign",
)

#: The score of one realization at every tolerance, as ``classify`` kept it
#: before it returned only the (2, T) rates ``fdp`` and ``power_fraction``:
#: ``n_detected`` an int, ``per_jump_hit`` a (T, J) array and the other
#: fields (T,) arrays.
MatrixScore = namedtuple(
    "MatrixScore", "n_detected n_false fdp per_jump_hit power_fraction n_wrong_sign",
)

#: Realized FDP and power of one realization at one tolerance, as plain
#: floats, power None when the truth has no jumps.
ToleranceRates = namedtuple("ToleranceRates", "fdp power_fraction")

#: The aggregate of one tolerance's replicates, as plain floats.
ToleranceAggregate = namedtuple("ToleranceAggregate", "fdr fdr_se power power_se n_replications")


def classify_per_tolerance(detections, truth, b):
    """Scoring at one tolerance ``b``, one (detections x jumps) window
    matrix per call: the scoring before all tolerances shared one pass."""
    locations = truth.locations
    sizes = truth.sizes
    r = len(detections)
    if r == 0:
        hits = tuple(False for _ in range(truth.n_jumps))
        power = float(np.mean(hits)) if truth.n_jumps else None
        return ToleranceScore(0, 0, 0.0, hits, power, 0)
    pos = detections.index.astype(float)
    sgn = detections.sign
    if truth.n_jumps:
        inside = np.abs(pos[:, None] - locations[None, :]) < b  # (r, J)
        in_any = inside.any(axis=1)
        sign_match = inside & (sgn[:, None] * sizes[None, :] > 0)
        hits = tuple(bool(h) for h in sign_match.any(axis=0))
        n_wrong = int(np.sum(in_any & ~sign_match.any(axis=1)))
        power = float(np.mean(hits))
    else:
        in_any = np.zeros(r, dtype=bool)
        hits = ()
        n_wrong = 0
        power = None
    v = int(np.sum(~in_any))
    return ToleranceScore(r, v, v / max(r, 1), hits, power, n_wrong)


def classify_matrix(detections, truth, tolerances):
    """Scoring at every tolerance from one (detections x jumps) distance
    matrix, as ``MatrixScore``: the scoring before each nearest
    distance came from a sorted search."""
    b = np.asarray(tolerances, dtype=float).reshape(-1, 1)
    if not np.all(b > 0):
        raise InvalidParameterError("tolerance must be positive")
    dist = np.abs(detections.index.astype(float)[:, None] - truth.locations[None, :])  # (r, J)
    matched = np.where(detections.sign[:, None] * truth.sizes[None, :] > 0, dist, np.inf)
    n_in_any = np.count_nonzero(dist.min(axis=1, initial=np.inf) < b, axis=1)
    # inside a window of matching sign, hence also inside some window
    n_in_matched = np.count_nonzero(matched.min(axis=1, initial=np.inf) < b, axis=1)
    hits = matched.min(axis=0, initial=np.inf) < b  # (T, J)
    power = hits.mean(axis=1) if truth.n_jumps else np.full(len(hits), np.nan)
    r = len(detections)
    n_false = r - n_in_any
    n_wrong_sign = n_in_any - n_in_matched
    return MatrixScore(r, n_false, n_false / max(r, 1), hits, power, n_wrong_sign)


def aggregate_per_tolerance(results) -> ToleranceAggregate:
    """Average realized FDP and power over replications, in input order:
    the aggregation of one tolerance's records (``ToleranceScore`` or
    ``ToleranceRates``) at a time, as it was before one call reduced every
    tolerance of a cell."""
    results = list(results)
    if not results:
        raise InvalidParameterError("aggregate requires at least one result")
    fdp = np.array([res.fdp for res in results])
    powers = np.array([res.power_fraction for res in results if res.power_fraction is not None])
    fdr = float(np.mean(fdp))
    fdr_se = float(np.std(fdp, ddof=1) / math.sqrt(len(fdp))) if len(fdp) > 1 else 0.0
    if len(powers):
        power = float(np.mean(powers))
        power_se = (
            float(np.std(powers, ddof=1) / math.sqrt(len(powers))) if len(powers) > 1 else 0.0
        )
    else:
        power = math.nan
        power_se = math.nan
    return ToleranceAggregate(fdr, fdr_se, power, power_se, len(results))


def score_at(rates, t):
    """Column ``t`` of a (2, T) ``classify`` score as ``ToleranceRates``
    of plain Python floats, NaN power read back as None."""
    fdp, power = rates[:, t].tolist()
    return ToleranceRates(fdp, None if math.isnan(power) else power)


def run_replicate(req, truth, rep):
    """One replicate as the harness ran it before it smoothed by linearity:
    the noise of replicate ``rep`` added to ``truth``, detected by
    ``detect_change_points`` at every bandwidth of ``req`` and scored at
    every tolerance.  Returns one (2, T) ``classify`` score per bandwidth,
    in ``req.gammas`` order."""
    model = req.noise_model()
    observed = TimeSeries(truth.mean + sample_noise(model, req.length, req.seed ^ rep).values)
    return [classify(detect_change_points(observed, gamma, req.alpha, noise_model=model).significant,
                     truth, req.tolerances)
            for gamma in req.gammas]


def staircase_scan(jump, separation, length):
    """Change point locations by scanning jump*floor(t/separation) for
    increments over t = 2..length."""
    mu = [jump * (t // separation) for t in range(1, length + 1)]
    return [t + 1 for t in range(1, length) if mu[t] != mu[t - 1]]


def gauss_kernel_at(t, gamma):
    """The truncated Gaussian kernel ``phi(t/gamma)/gamma`` at offsets ``t``,
    zero past ``GAUSSIAN_CUTOFF*gamma``, written from scratch."""
    t = np.asarray(t, dtype=float)
    w = np.exp(-0.5 * (t / gamma) ** 2) / (gamma * math.sqrt(2 * math.pi))
    return np.where(np.abs(t) <= GAUSSIAN_CUTOFF * gamma, w, 0.0)


def center_tap(spec) -> float:
    """The center weight of ``kernel_weights(spec)``: the kernel's value at
    offset 0, as the detector samples it."""
    w = kernel_weights(spec)
    return float(w[len(w) // 2])


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


def noise_kernel(nu: float) -> np.ndarray:
    """Unit-spacing samples of the Gaussian density of scale ``nu``,
    truncated at four scales: the noise filter as first written, kept as
    the oracle for ``sample_noise``."""
    half = int(math.ceil(4.0 * nu))
    k = np.arange(-half, half + 1, dtype=float)
    return np.exp(-0.5 * (k / nu) ** 2) / (nu * math.sqrt(2.0 * math.pi))


def reference_tail(u, var_d1, var_d2, var_d3):
    """Height tail probability of a null local maximum via scipy.stats.norm
    (scalar)."""
    from scipy.stats import norm

    delta = var_d1 * var_d3 - var_d2 ** 2
    sd = math.sqrt(var_d1)
    return float(
        norm.sf(u * math.sqrt(var_d3 / delta))
        + math.sqrt(2 * math.pi * var_d2 ** 2 / (var_d3 * var_d1))
        * norm.pdf(u / sd)
        * norm.cdf(u * var_d2 / (sd * math.sqrt(delta)))
    )


def invert_tail_bisection(p, moments):
    """Height ``u`` with ``peak_height_tail(u) == p`` by the bracketed
    bisection the package used before its Newton inversion, kept verbatim:
    the bracket starts at ten derivative standard deviations and doubles
    until it straddles ``p``, then bisection runs until the midpoint
    rounds onto an end or 200 halvings are spent."""
    if not 0.0 < p <= 1.0:
        raise InvalidParameterError("target probability must lie in (0, 1]")
    if p == 1.0:
        return -math.inf
    sd = moments.sd_d1
    lo, hi = -10.0 * sd, 10.0 * sd
    for _ in range(200):
        if peak_height_tail(lo, moments) >= p:
            break
        lo *= 2.0
    for _ in range(200):
        if peak_height_tail(hi, moments) <= p:
            break
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if peak_height_tail(mid, moments) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


def extrema_run_length(dy):
    """Strict local extrema of ``dy`` inside its interior as an ``Extrema``,
    by run-length encoding the interior into a run start and a run value
    per sample: the extraction before it compared neighbours only once."""
    sl = dy.interior_slice()
    seg = dy.values[sl]
    if len(seg) < 3:
        return Extrema(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64),
                       np.empty(0))
    # run-length encode so plateaus collapse to a single candidate
    starts = np.concatenate(([0], np.flatnonzero(seg[1:] != seg[:-1]) + 1))
    run_values = seg[starts]
    mid, left, right = run_values[1:-1], run_values[:-2], run_values[2:]
    nonzero = mid != 0.0
    is_max = nonzero & (mid > left) & (mid > right)
    is_min = nonzero & (mid < left) & (mid < right)
    hits = np.flatnonzero(is_max | is_min)
    return Extrema(
        index=starts[hits + 1] + (1 + sl.start),
        height=run_values[hits + 1],
        sign=np.where(is_max[hits], 1, -1),
        p_value=np.full(len(hits), np.nan),
    )


# The selection stages and the scorer as they were before their fixed
# per-call cost was cut, kept verbatim (with the private helpers they call)
# as bit-exact oracles for the whole-array code that replaced them.


def find_local_extrema_ties(dy):
    """Strict local extrema of ``dy`` inside its interior as an ``Extrema``:
    neighbours compared once, ties dropped, and each turn of the remaining
    moves mapped back to its sample by counting the ties before it."""
    sl = dy.interior_slice()
    seg = dy.values[sl]
    before, after = seg[:-1], seg[1:]
    up = after > before
    moves = after < before
    moves |= up
    rising = up[moves]
    del up
    # move j (counting moves only) is followed by one the other way
    turns = np.flatnonzero(rising[1:] != rising[:-1])
    # tie i has ties[i] - i moves before it: add the ties before each turn
    ties = np.flatnonzero(np.logical_not(moves, out=moves))
    del moves
    at = turns + 1 + np.searchsorted(ties - np.arange(len(ties)), turns, side="right")
    height = seg[at]
    keep = height != 0.0
    return Extrema(
        index=at[keep] + (1 + sl.start),
        height=height[keep],
        sign=np.where(rising[turns[keep]], 1, -1),
        p_value=np.full(np.count_nonzero(keep), np.nan),
    )


_TINY = np.finfo(float).tiny
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(x):
    """Standard Gaussian density at x."""
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def _bump_coefficient(moments):
    return _SQRT_2PI * moments.var_d2 / math.sqrt(moments.var_d3 * moments.var_d1)


def peak_height_tail_ufuncs(u, moments):
    """Right-tail probability of the height of a null local maximum, each
    term one numpy call on scalars and arrays alike, clipped into (0, 1]."""
    sd = moments.sd_d1
    u = float(u) if isinstance(u, (float, int)) else np.asarray(u, dtype=float)
    sqrt_delta = math.sqrt(moments.delta)
    # past 40 sd the tail saturates: phi is exp(-800) == 0.0 and, as
    # var_d3/delta >= 1/var_d1, the normal integral is exactly 0 or 1; an
    # overflow beyond that (phi's square, up to +/-inf) changes nothing
    coef = _bump_coefficient(moments)
    with np.errstate(over="ignore"):
        tail = ndtr(-u * math.sqrt(moments.var_d3) / sqrt_delta)
        bump = coef * _phi(u / sd) * ndtr(u * moments.var_d2 / (sd * sqrt_delta))
    out = np.minimum(np.maximum(tail + bump, _TINY), 1.0)
    return out if out.ndim else float(out)


def bh_select_full_sort(pvalues, alpha):
    """Step-up selection by sorting every p-value and comparing the i-th
    smallest with i*alpha/m; p-values outside (0, 1] are refused."""
    check_alpha(alpha)
    p = np.asarray(pvalues, dtype=float)
    m = len(p)
    if not np.all((p > 0.0) & (p <= 1.0)):
        raise InvalidParameterError("p-values must lie in (0, 1]")
    below = np.flatnonzero(np.sort(p) < np.arange(1, m + 1) * (alpha / max(m, 1)))
    k = int(below[-1]) + 1 if len(below) else 0
    p_threshold = k * alpha / m if m else 1.0
    rejected = np.flatnonzero(p < p_threshold)
    rejected.flags.writeable = False
    return BHOutcome(k=k, p_threshold=p_threshold, rejected=rejected)


def _nearest_distance(points, targets):
    fenced = np.concatenate(([-np.inf], targets, [np.inf]))
    right = np.searchsorted(fenced, points)
    return np.minimum(points - fenced[right - 1], fenced[right] - points)


def classify_window_matrix(detections, truth, tolerances):
    """The (2, T) rows of realized FDP and power, NaN without jumps, from
    (tolerances x jumps) and (tolerances x detections) window tests on the
    nearest distances."""
    b = np.asarray(tolerances, dtype=float).reshape(-1, 1)
    if not np.all(b > 0):
        raise InvalidParameterError("tolerance must be positive")
    pos = detections.index.astype(float)
    raised = detections.sign > 0
    locations = truth.locations
    found = np.where(truth.sizes > 0, _nearest_distance(locations, np.sort(pos[raised])),
                     _nearest_distance(locations, np.sort(pos[~raised])))  # (J,)
    hits = found < b  # (T, J)
    power = hits.mean(axis=1) if truth.n_jumps else np.full(len(b), np.nan)
    n_false = len(pos) - np.count_nonzero(_nearest_distance(pos, locations) < b, axis=1)
    return np.array((n_false / max(len(pos), 1), power))


def step_signal_loop(jumps, length):
    """Piecewise-constant mean on t = 1..length, adding each jump's size to
    every sample at or after its location, one jump at a time."""
    t = np.arange(1, length + 1, dtype=float)
    mu = np.zeros(length)
    for v, a in jumps:
        mu[t >= v] += a
    return mu


# The CSV reader and writer of the command line before it read and wrote
# whole arrays: one csv row and one float() per input line, one row of plain
# Python numbers per candidate.


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def read_sequence_csv_rows(path: str):
    """Read a one- or two-column numeric CSV (optional header).

    With two columns the first is an opaque position label carried through
    to the output untouched; the second is the value.  Values must be
    finite numbers.
    """
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    except OSError as exc:
        raise InputDataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise InputDataError(f"{path} contains no data rows")
    width = len(rows[0])
    if width not in (1, 2) or any(len(r) != width for r in rows):
        raise InputDataError(f"{path} must have one or two columns throughout")
    start = 0
    try:
        float(rows[0][-1])
    except ValueError:
        start = 1  # header row
    if start == len(rows):
        raise InputDataError(f"{path} contains a header but no data")
    try:
        values = np.array([float(r[-1]) for r in rows[start:]])
    except ValueError as exc:
        raise InputDataError(f"{path} contains non-numeric values: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise InputDataError(f"{path} contains non-finite values")
    positions = [r[0] for r in rows[start:]] if width == 2 else None
    return values, positions


def write_detection_csv_records(path, result, positions=None, moment_source="") -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["index", "height", "sign", "p_value", "significant"]
        if positions is not None:
            header.insert(1, "position")
        writer.writerow(header)
        significant = set(result.outcome.rejected)
        ex = result.extrema
        rows = zip(ex.index.tolist(), ex.height.tolist(), ex.sign.tolist(), ex.p_value.tolist())
        for i, (index, height, sign, p_value) in enumerate(rows):
            row = [
                str(index),
                _fmt(height),
                "max" if sign > 0 else "min",
                _fmt(p_value),
                "1" if i in significant else "0",
            ]
            if positions is not None:
                row.insert(1, positions[index - 1])
            writer.writerow(row)
        m = result.moments
        moment_of = lambda attr: _fmt(getattr(m, attr)) if m is not None else "nan"
        for key, value in [
            ("m_tilde", str(result.n_candidates)),
            ("k", str(result.outcome.k)),
            ("p_threshold", _fmt(result.outcome.p_threshold)),
            ("u_threshold", _fmt(result.outcome.u_threshold)),
            ("var_d1", moment_of("var_d1")),
            ("var_d2", moment_of("var_d2")),
            ("var_d3", moment_of("var_d3")),
            ("delta", moment_of("delta")),
            ("gamma", _fmt(result.gamma)),
            ("alpha", _fmt(result.alpha)),
            ("moment_source", moment_source),
        ]:
            fh.write(f"# {key},{value}\n")
