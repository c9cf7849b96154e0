"""Command line interface: detection on CSV sequences, simulation grids,
and theory curves.  CSV in, CSV out; plots are left to downstream tools.

Outputs carry a header row, then data rows, then footer metadata lines
prefixed with '#'.  Exit codes: 0 ok, 2 input error, 3 configuration
error.  The STEMCPD_THREADS environment variable caps simulation
parallelism.
"""

import argparse
import csv
import sys

import numpy as np

from .errors import StemcpdError
from .harness import SimulateRequest, run_simulation
from .inference import closed_form_moments
from .pipeline import detect_change_points
from .signals import NoiseModel, TimeSeries
from .theory import (
    TheoryConfig,
    asymptotic_bh_pvalue,
    asymptotic_bh_threshold,
    fdr_upper_bound,
    null_max_rate,
    snr,
    approx_power,
)


class InputDataError(StemcpdError):
    """The input file is missing, malformed, or not numeric."""


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(",") if part != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc


def read_sequence_csv(path: str):
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


def write_detection_csv(path, result, positions=None, moment_source="") -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["index", "height", "sign", "p_value", "significant"]
        if positions is not None:
            header.insert(1, "position")
        writer.writerow(header)
        significant = set(result.outcome.rejected)
        for i, e in enumerate(result.extrema):
            row = [
                str(e.index),
                _fmt(e.height),
                "max" if e.sign > 0 else "min",
                _fmt(e.p_value),
                "1" if i in significant else "0",
            ]
            if positions is not None:
                row.insert(1, positions[e.index - 1])
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


def parse_detection_csv(path: str):
    """Re-ingest a detection CSV: list of row dicts plus footer metadata."""
    rows, meta = [], {}
    with open(path, newline="") as fh:
        for parts in csv.reader(fh):
            if not parts:
                continue
            if parts[0].startswith("#"):
                key = parts[0].lstrip("# ").strip()
                meta[key] = parts[1] if len(parts) > 1 else ""
                continue
            rows.append(parts)
    header, data = rows[0], rows[1:]
    return [dict(zip(header, row)) for row in data], meta


def cmd_detect(args) -> int:
    values, positions = read_sequence_csv(args.input)
    series = TimeSeries(values)
    if args.moments == "closed":
        model = NoiseModel(sigma=args.sigma, nu=args.nu)
        source = f"closed(sigma={args.sigma:g},nu={args.nu:g})"
    else:
        model = None
        source = f"empirical(trim={args.trim:g})"
    result = detect_change_points(
        series,
        args.gamma,
        args.alpha,
        noise_model=model,
        trim=args.trim,
        cutoff=args.cutoff,
    )
    write_detection_csv(args.output, result, positions, source)
    return 0


def cmd_simulate(args) -> int:
    if args.tolerance is not None:
        tolerances = (args.tolerance,)
    else:
        tolerances = args.grid_b
    req = SimulateRequest(
        length=args.length,
        separation=args.separation,
        jumps=args.jump,
        gammas=args.grid_gamma,
        tolerances=tolerances,
        alpha=args.alpha,
        sigma=args.sigma,
        nu=args.nu,
        replications=args.reps,
        seed=args.seed,
        rep_start=args.rep_start,
        cutoff=args.cutoff,
    )
    cells = run_simulation(req)
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["jump", "gamma", "tolerance", "fdr", "fdr_se", "power", "power_se",
             "replications", "seed"]
        )
        for c in cells:
            writer.writerow(
                [_fmt(c.jump), _fmt(c.gamma), _fmt(c.tolerance), _fmt(c.fdr),
                 _fmt(c.fdr_se), _fmt(c.power), _fmt(c.power_se),
                 str(c.replications), str(c.seed)]
            )
        for key, value in [
            ("length", str(req.length)),
            ("separation", str(req.separation)),
            ("alpha", _fmt(req.alpha)),
            ("sigma", _fmt(req.sigma)),
            ("nu", _fmt(req.nu)),
            ("rep_start", str(req.rep_start)),
            ("cutoff", _fmt(req.cutoff)),
        ]:
            fh.write(f"# {key},{value}\n")
    return 0


def cmd_theory(args) -> int:
    model = NoiseModel(sigma=args.sigma, nu=args.nu)
    jumps = args.jump
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["gamma", "var_d1", "var_d2", "var_d3", "delta", "null_rate",
                  "q_star", "u_star", "fdr_bound_bh"]
        header += [f"snr_j{a:g}" for a in jumps]
        header += [f"power_j{a:g}" for a in jumps]
        writer.writerow(header)
        for gamma in args.grid_gamma:
            moments = closed_form_moments(model, gamma)
            cfg = TheoryConfig(
                density=args.density, alpha=args.alpha, moments=moments,
                gamma=gamma, cutoff=args.cutoff,
            )
            u_star = asymptotic_bh_threshold(cfg)
            row = [
                _fmt(gamma), _fmt(moments.var_d1), _fmt(moments.var_d2),
                _fmt(moments.var_d3), _fmt(moments.delta),
                _fmt(null_max_rate(moments)), _fmt(asymptotic_bh_pvalue(cfg)),
                _fmt(u_star), _fmt(fdr_upper_bound(cfg)),
            ]
            row += [_fmt(snr(a, model, gamma)) for a in jumps]
            row += [_fmt(approx_power(a, u_star, moments, gamma)) for a in jumps]
            writer.writerow(row)
        for key, value in [
            ("density", _fmt(args.density)),
            ("alpha", _fmt(args.alpha)),
            ("sigma", _fmt(args.sigma)),
            ("nu", _fmt(args.nu)),
            ("cutoff", _fmt(args.cutoff)),
        ]:
            fh.write(f"# {key},{value}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stemcpd",
        description="Change point detection via multiple testing of "
                    "smoothed-derivative extrema",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect change points in a CSV sequence")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--gamma", type=float, required=True, help="smoothing bandwidth")
    p.add_argument("--alpha", type=float, default=0.05, help="FDR level")
    p.add_argument("--moments", choices=("closed", "empirical"), default="empirical")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=2.0)
    p.add_argument("--trim", type=float, default=0.1,
                   help="trimmed fraction for empirical moments")
    p.add_argument("--cutoff", type=float, default=4.0)
    p.set_defaults(func=cmd_detect, input_errors=(InputDataError, OSError))

    p = sub.add_parser("simulate", help="run a replicated simulation grid")
    p.add_argument("--output", required=True)
    p.add_argument("--length", type=int, default=12000)
    p.add_argument("--separation", type=int, default=100)
    p.add_argument("--jump", type=_float_list, default=(1.0, 2.0, 3.0),
                   help="comma-separated jump sizes (0 for a null cell)")
    p.add_argument("--grid-gamma", type=_float_list,
                   default=tuple(float(g) for g in range(1, 11)))
    p.add_argument("--grid-b", type=_float_list,
                   default=tuple(float(b) for b in range(2, 11)))
    p.add_argument("--tolerance", type=float, default=None,
                   help="single location tolerance (overrides --grid-b)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=2.0)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rep-start", type=int, default=0,
                   help="first replicate index (for split runs)")
    p.add_argument("--cutoff", type=float, default=4.0)
    p.set_defaults(func=cmd_simulate, input_errors=(StemcpdError, OSError))

    p = sub.add_parser("theory", help="emit analytic curves and bounds")
    p.add_argument("--output", required=True)
    p.add_argument("--grid-gamma", type=_float_list,
                   default=tuple(float(g) for g in range(1, 11)))
    p.add_argument("--jump", type=_float_list, default=(1.0, 2.0, 3.0))
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=2.0)
    p.add_argument("--density", type=float, default=0.01,
                   help="expected change points per unit length")
    p.add_argument("--cutoff", type=float, default=4.0)
    p.set_defaults(func=cmd_theory, input_errors=(StemcpdError, OSError))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except args.input_errors as exc:
        print(f"stemcpd {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except (StemcpdError, OSError) as exc:
        print(f"stemcpd {args.command}: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
