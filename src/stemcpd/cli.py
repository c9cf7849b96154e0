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
from collections.abc import Sequence
from dataclasses import fields

import numpy as np

from .errors import StemcpdError
from .harness import CellResult, SimulateRequest, check_finite_grid, run_simulation
from .inference import closed_form_moments
from .kernels import GAUSSIAN_CUTOFF
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


#: The ASCII separator controls: numpy's number parser strips them as
#: whitespace where Python's float() refuses them, so no input may hold one.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


class PositionLabels(Sequence):
    """The position column of a two-column input, read from a data line
    only when its label is asked for: the detection output needs labels
    at its candidate rows alone."""

    def __init__(self, lines):
        self._lines = lines

    def __len__(self) -> int:
        return len(self._lines)

    def __getitem__(self, i) -> str:
        line = self._lines[i]
        # without a quote the first field ends at the first comma
        return _fields(line)[0] if '"' in line else line.partition(",")[0]


def _fields(line: str) -> list:
    """The csv fields of one line.  The reader moves on to a second line
    only when a quoted field is still open at the end of the first."""
    reader = csv.reader((line, ""))
    fields = next(reader)
    if reader.line_num > 1:
        raise ValueError(f"a quoted field runs past the end of the line {line!r}")
    return fields


def _is_comment(line: str) -> bool:
    """Whether the first field starts with '#' after leading whitespace."""
    return "#" in line and _fields(line)[0].lstrip().startswith("#")


def _load(lines: list, dtype):
    return np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)


def _first_refused(lines: list, dtype) -> int:
    """Index of the first of ``lines`` that loadtxt refuses, by bisection;
    loadtxt must refuse ``lines`` as a whole."""
    good, bad = 0, len(lines)  # lines[:good] are read, lines[good:bad] hold a refused one
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _load(lines[good:mid], dtype)
            good = mid
        except ValueError:
            bad = mid
    return good


def _line_number(text: str, row: int) -> int:
    """1-based line of ``text`` holding its row ``row`` (from 0), where
    blank and comment lines count as lines but hold no row."""
    numbers = [n for n, line in enumerate(text.split("\n"), 1) if line and not _is_comment(line)]
    return numbers[row]


def read_sequence_csv(path: str):
    """Read a one- or two-column numeric CSV (optional header).

    With two columns the first is an opaque position label carried through
    to the output untouched; the second is the value.  Values must be
    finite numbers.  Blank lines and lines whose first field starts with
    '#' are skipped; the first row is a header when its last field is not
    a number.  Fields may be quoted, but a quoted field cannot span lines.
    The file is UTF-8, with or without a byte order mark.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputDataError(f"cannot read {path}: {exc}") from exc
    if any(c in text for c in _SEPARATORS):
        raise InputDataError(f"{path} contains an ASCII separator control character")
    rows = list(filter(None, text.split("\n")))  # blank lines hold no row
    try:
        if "#" in text:
            rows = [r for r in rows if not _is_comment(r)]
        if not rows:
            raise InputDataError(f"{path} contains no data rows")
        first = _fields(rows[0])
        _fields(rows[-1])  # loadtxt would close a quote left open at the end
    except (ValueError, csv.Error) as exc:
        raise InputDataError(f"{path}: {exc}") from exc
    width = len(first)
    if width not in (1, 2):
        raise InputDataError(f"{path} must have one or two columns throughout")
    start = 0
    try:
        float(first[-1])
    except ValueError:
        start = 1  # header row
    data = rows[start:]
    if not data:
        raise InputDataError(f"{path} contains a header but no data")
    # a structured dtype makes loadtxt check that every row has `width`
    # fields; the position field is zero-width, PositionLabels reads labels
    dtype = [("position", "U0"), ("value", float)][2 - width:]
    try:
        values = _load(data, dtype)["value"]
    except ValueError:
        bad = _first_refused(data, dtype)
        raise InputDataError(
            f"{path} line {_line_number(text, start + bad)} is not {width} column(s) "
            f"of numbers: {data[bad]!r}"
        ) from None
    if len(values) != len(data):
        # loadtxt carries a quoted field left open at a line end on to the next line
        raise InputDataError(f"{path} has a quoted field that runs past the end of a line")
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise InputDataError(
            f"{path} line {_line_number(text, start + bad)} is not a finite number: {data[bad]!r}"
        )
    return values, None if width == 1 else PositionLabels(data)


def _write_table(path, header, rows, footer) -> None:
    """Write the output table: ``header``, the ``rows``, then one
    ``# key,value`` line per ``(key, value)`` pair of ``footer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        fh.writelines(f"# {key},{value}\n" for key, value in footer)


def write_detection_csv(path, result, positions=None, moment_source="") -> None:
    extrema = result.extrema
    index = extrema.index.tolist()
    columns = [
        index,
        map(repr, extrema.height.tolist()),
        np.where(extrema.sign > 0, "max", "min").tolist(),
        map(repr, extrema.p_value.tolist()),
        # rejected indices are distinct: each counts once, the rest zero
        np.bincount(result.outcome.rejected, minlength=len(index)).tolist(),
    ]
    if positions is not None:
        columns.insert(1, [positions[i - 1] for i in index])
    header = ["index", "height", "sign", "p_value", "significant"]
    if positions is not None:
        header.insert(1, "position")
    m = result.moments
    moment_of = lambda attr: _fmt(getattr(m, attr)) if m is not None else "nan"
    _write_table(path, header, zip(*columns), [
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
    ])


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
        source = "empirical(trim=0.1)"
    result = detect_change_points(series, args.gamma, args.alpha, noise_model=model)
    write_detection_csv(args.output, result, positions, source)
    return 0


def cmd_simulate(args) -> int:
    req = SimulateRequest(**{f.name: getattr(args, f.name) for f in fields(SimulateRequest)})
    header = [f.name for f in fields(CellResult)]
    rows = ([_fmt(getattr(c, name)) for name in header] for c in run_simulation(req))
    footer = [(name, _fmt(getattr(req, name)))
              for name in ("length", "separation", "alpha", "sigma", "nu", "rep_start")]
    _write_table(args.output, header, rows, footer + [("cutoff", _fmt(GAUSSIAN_CUTOFF))])
    return 0


def cmd_theory(args) -> int:
    model = NoiseModel(sigma=args.sigma, nu=args.nu)
    check_finite_grid("jumps", args.jumps)
    check_finite_grid("gammas", args.gammas)
    header = ["gamma", "var_d1", "var_d2", "var_d3", "delta", "null_rate",
              "q_star", "u_star", "fdr_bound_bh"]
    header += [f"snr_j{a:g}" for a in args.jumps]
    header += [f"power_j{a:g}" for a in args.jumps]
    rows = []
    for gamma in args.gammas:
        moments = closed_form_moments(model, gamma)
        cfg = TheoryConfig(density=args.density, alpha=args.alpha,
                           moments=moments, gamma=gamma)
        u_star = asymptotic_bh_threshold(cfg)
        row = [
            _fmt(gamma), _fmt(moments.var_d1), _fmt(moments.var_d2),
            _fmt(moments.var_d3), _fmt(moments.delta),
            _fmt(null_max_rate(moments)), _fmt(asymptotic_bh_pvalue(cfg)),
            _fmt(u_star), _fmt(fdr_upper_bound(cfg)),
        ]
        row += [_fmt(snr(a, model, gamma)) for a in args.jumps]
        row += [_fmt(approx_power(a, u_star, moments, gamma)) for a in args.jumps]
        rows.append(row)
    footer = [(name, _fmt(getattr(args, name))) for name in ("density", "alpha", "sigma", "nu")]
    _write_table(args.output, header, rows, footer + [("cutoff", _fmt(GAUSSIAN_CUTOFF))])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stemcpd",
        description="Change point detection via multiple testing of "
                    "smoothed-derivative extrema",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the defaults are the paper's design, held once in SimulateRequest
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", required=True)
    common.add_argument("--alpha", type=float, default=SimulateRequest.alpha, help="FDR level")
    common.add_argument("--sigma", type=float, default=SimulateRequest.sigma)
    common.add_argument("--nu", type=float, default=SimulateRequest.nu)
    grids = argparse.ArgumentParser(add_help=False)
    grids.add_argument("--jump", dest="jumps", type=_float_list,
                       default=SimulateRequest.jumps,
                       help="comma-separated jump sizes (0 for a null cell)")
    grids.add_argument("--grid-gamma", dest="gammas", type=_float_list,
                       default=SimulateRequest.gammas)

    p = sub.add_parser("detect", parents=[common], help="detect change points in a CSV sequence")
    p.add_argument("--input", required=True)
    p.add_argument("--gamma", type=float, required=True, help="smoothing bandwidth")
    p.add_argument("--moments", choices=("closed", "empirical"), default="empirical")
    p.set_defaults(func=cmd_detect, input_errors=(InputDataError, OSError))

    p = sub.add_parser("simulate", parents=[common, grids],
                       help="run a replicated simulation grid")
    p.add_argument("--length", type=int, default=SimulateRequest.length)
    p.add_argument("--separation", type=int, default=SimulateRequest.separation)
    p.add_argument("--grid-b", dest="tolerances", type=_float_list,
                   default=SimulateRequest.tolerances)
    p.add_argument("--reps", dest="replications", type=int,
                   default=SimulateRequest.replications)
    p.add_argument("--seed", type=int, default=SimulateRequest.seed)
    p.add_argument("--rep-start", type=int, default=SimulateRequest.rep_start,
                   help="first replicate index (for split runs)")
    p.set_defaults(func=cmd_simulate, input_errors=(StemcpdError, OSError))

    p = sub.add_parser("theory", parents=[common, grids], help="emit analytic curves and bounds")
    p.add_argument("--density", type=float, default=0.01,
                   help="expected change points per unit length")
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
