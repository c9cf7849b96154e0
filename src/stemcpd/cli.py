"""Command line interface: detection on CSV sequences, simulation grids,
and theory curves.  CSV in, CSV out; plots are left to downstream tools.

Outputs carry a header row, then data rows, then footer metadata lines
prefixed with '#'.  A refusal prints one ``stemcpd <command>: error:``
line and exits 2 when it is one of the subcommand's ``input_errors``, else
3.  The STEMCPD_THREADS environment variable caps simulation parallelism;
unset or not an integer, it reads as 1.
"""

import argparse
import csv
import os
import sys
from collections.abc import Sequence
from dataclasses import fields
from itertools import compress

import numpy as np

from . import inference
from .errors import StemcpdError
from .harness import CellResult, SimulateRequest, run_simulation
from .kernels import GAUSSIAN_CUTOFF
from .pipeline import detect_change_points
from .signals import NoiseModel, TimeSeries
from .theory import theory_table


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

#: Characters per piece of the input text that the reader parses at once;
#: a piece runs on to the end of the line it reaches this length in.
_CHUNK = 1 << 18


def _line_at(text: str, start: int) -> str:
    """The line of ``text`` that starts at offset ``start``."""
    end = text.find("\n", start)
    return text[start:] if end < 0 else text[start:end]


class PositionLabels(Sequence):
    """The position column of a two-column input: the decoded text and each
    data row's line offset in it.  A label is cut out of its line only when
    asked for: the detection output needs labels at its candidate rows alone.
    A quoted label longer than the ``csv`` module's field limit is refused
    then, by its line in ``path``."""

    def __init__(self, path: str, text: str, starts: np.ndarray):
        self._path = path
        self._text = text
        self._starts = starts

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, i) -> str:
        start = int(self._starts[i])
        line = _line_at(self._text, start)
        if '"' not in line:  # without a quote the first field ends at the first comma
            return line.partition(",")[0]
        return _row_fields(self._path, self._text, start)[0]


def _fields(line: str) -> list:
    """The csv fields of one line.  The reader moves on to a second line
    only when a quoted field is still open at the end of the first."""
    reader = csv.reader((line, ""))
    fields = next(reader)
    if reader.line_num > 1:
        raise ValueError(f"a quoted field runs past the end of the line {line!r}")
    return fields


def _row_fields(path: str, text: str, start: int) -> list:
    """The csv fields of the line of ``text`` at offset ``start``; a line
    that does not split into fields is refused by its number in ``path``."""
    try:
        return _fields(_line_at(text, start))
    except (ValueError, csv.Error) as exc:
        raise InputDataError(f"{path} line {_line_number(text, start)}: {exc}") from None


def _is_comment(line: str) -> bool:
    """Whether the first field starts with '#' after leading whitespace.  A
    line that does not split into fields is no comment: it is read as a
    data row, which refuses a quoted field left open."""
    if "#" not in line:
        return False
    try:
        return _fields(line)[0].lstrip().startswith("#")
    except (ValueError, csv.Error):
        return False


def _data_rows(text: str, start: int, end: int):
    """The data rows among the whole lines ``text[start:end]`` and their
    offsets in ``text``: blank and comment lines hold none."""
    piece = text[start:end]
    lines = piece.split("\n")
    steps = np.fromiter(map(len, lines), np.int64, len(lines)) + 1  # a line and its newline
    starts = start + np.cumsum(steps) - steps
    keep = steps > 1
    if "#" in piece:
        keep &= [not _is_comment(line) for line in lines]
    return list(compress(lines, keep.tolist())), starts[keep]


def _load(rows: list, width: int):
    """The values of ``rows``, or None when one of them is not ``width``
    columns of numbers."""
    # a structured dtype makes loadtxt check that every row has `width`
    # fields; the position field is zero-width, PositionLabels reads labels
    dtype = [("position", "U0"), ("value", float)][2 - width:]
    # loadtxt runs a quoted field left open at a line end on over the next
    # line, but closes one still open at the end of its input: after a row
    # of zeros every open quote shows as one row too few, wherever it is
    zeros = ",0"[2 - width:]
    try:
        values = np.loadtxt([*rows, zeros], dtype=dtype, delimiter=",", quotechar='"',
                            comments=None, ndmin=1)["value"]
    except ValueError:
        return None
    return values[:-1] if len(values) == len(rows) + 1 else None


def _line_number(text: str, start: int) -> int:
    """1-based number of the line of ``text`` that starts at offset ``start``."""
    return text.count("\n", 0, start) + 1


def read_sequence_csv(path: str):
    """Read a one- or two-column numeric CSV (optional header).

    With two columns the first is an opaque position label carried through
    to the output untouched; the second is the value.  Values must be
    finite numbers.  Blank lines and lines whose first field starts with
    '#' are skipped; the first row is a header when its last field is not
    a number.  Fields may be quoted, but a quoted field cannot span lines.
    The file is UTF-8, with or without a byte order mark.

    The decoded text is parsed in pieces of about ``_CHUNK`` characters
    that end at line ends, so no per-row Python object outlives its piece.
    One float64 value array and one int64 offset array, sized by the
    text's line count, are allocated up front; each piece fills its rows'
    values and line offsets in place, and the filled prefixes are
    returned.  The result holds a float64 value per row and, with two
    columns, the text and the offsets, which ``PositionLabels`` cuts a
    label from.  Values, labels and error messages do not depend on the
    piece size.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputDataError(f"cannot read {path}: {exc}") from exc
    if any(c in text for c in _SEPARATORS):
        raise InputDataError(f"{path} contains an ASCII separator control character")
    # a data row is at most one line, so the line count bounds the row count
    capacity = text.count("\n") + 1
    values, starts = np.empty(capacity), np.empty(capacity, np.int64)
    width, filled, start = None, 0, 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK - 1)
        end = len(text) if end < 0 else end
        rows, offsets = _data_rows(text, start, end)
        start = end + 1
        if width is None and rows:
            first = _row_fields(path, text, offsets[0])
            if len(first) not in (1, 2):
                raise InputDataError(f"{path} must have one or two columns throughout")
            width = len(first)
            try:
                float(first[-1])
            except ValueError:
                rows, offsets = rows[1:], offsets[1:]
        if not rows:
            continue
        read = _load(rows, width)
        if read is None:
            bad = next(i for i, row in enumerate(rows) if _load([row], width) is None)
            _row_fields(path, text, offsets[bad])  # refuses a row that does not split
            raise InputDataError(f"{path} line {_line_number(text, offsets[bad])} is not "
                                 f"{width} column(s) of numbers: {rows[bad]!r}")
        values[filled : filled + len(rows)] = read
        starts[filled : filled + len(rows)] = offsets
        filled += len(rows)
        # let this piece's lines go before the next piece is split
        del rows, offsets, read
    if width is None:
        raise InputDataError(f"{path} contains no data rows")
    if not filled:
        raise InputDataError(f"{path} contains a header but no data")
    values, starts = values[:filled], starts[:filled]
    finite = np.isfinite(values)
    if not finite.all():
        bad = starts[np.argmin(finite)]
        raise InputDataError(f"{path} line {_line_number(text, bad)} is not a finite "
                             f"number: {_line_at(text, bad)!r}")
    return values, None if width == 1 else PositionLabels(path, text, starts)


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
    labels = [] if positions is None else [("position", [positions[i - 1] for i in index])]
    header, columns = zip(
        ("index", index),
        *labels,
        ("height", map(repr, extrema.height.tolist())),
        ("sign", np.where(extrema.sign > 0, "max", "min").tolist()),
        ("p_value", map(repr, extrema.p_value.tolist())),
        # rejected indices are distinct: each counts once, the rest zero
        ("significant", np.bincount(result.outcome.rejected, minlength=len(index)).tolist()),
    )
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
        source = f"empirical(trim={inference._TRIM:g})"
    result = detect_change_points(series, args.gamma, args.alpha, noise_model=model)
    write_detection_csv(args.output, result, positions, source)
    return 0


def _threads() -> int:
    try:
        return int(os.environ.get("STEMCPD_THREADS", ""))
    except ValueError:
        return 1


def cmd_simulate(args) -> int:
    req = SimulateRequest(**{f.name: getattr(args, f.name) for f in fields(SimulateRequest)})
    header = [f.name for f in fields(CellResult)]
    cells = run_simulation(req, _threads())
    rows = ([_fmt(getattr(c, name)) for name in header] for c in cells)
    footer = [(name, _fmt(getattr(req, name)))
              for name in ("length", "separation", "alpha", "sigma", "nu", "rep_start")]
    _write_table(args.output, header, rows, footer + [("cutoff", _fmt(GAUSSIAN_CUTOFF))])
    return 0


def cmd_theory(args) -> int:
    header, rows = theory_table(NoiseModel(sigma=args.sigma, nu=args.nu), args.gammas,
                                args.jumps, args.density, args.alpha)
    footer = [(name, _fmt(getattr(args, name))) for name in ("density", "alpha", "sigma", "nu")]
    _write_table(args.output, header, ([_fmt(x) for x in row] for row in rows),
                 footer + [("cutoff", _fmt(GAUSSIAN_CUTOFF))])
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
    p.add_argument("--density", type=float, default=1.0 / SimulateRequest.separation,
                   help="expected change points per unit length")
    p.set_defaults(func=cmd_theory, input_errors=(StemcpdError, OSError))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StemcpdError, OSError) as exc:
        print(f"stemcpd {args.command}: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, args.input_errors) else 3


if __name__ == "__main__":
    sys.exit(main())
