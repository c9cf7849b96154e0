"""CLI tests: detection on fixtures, simulation CSVs, theory CSVs, exit codes."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from stemcpd import cli
from stemcpd.cli import (InputDataError, build_parser, main, parse_detection_csv,
                         read_sequence_csv, write_detection_csv)
from stemcpd.harness import SimulateRequest
from stemcpd.pipeline import detect_change_points
from stemcpd.signals import NoiseModel, TimeSeries

from helpers import bh_bruteforce, break_height_threshold, gauss_kernel_samples, reference_tail

DATA = Path(__file__).parent / "data"
CGH = DATA / "cgh_like.csv"
GOLDEN = DATA / "cgh_like_golden.csv"
SIMULATE_GOLDEN = DATA / "simulate_golden.csv"
SIMULATE_NULL_GOLDEN = DATA / "simulate_null_golden.csv"
SIMULATE_GRID_GOLDEN = DATA / "simulate_grid_golden.csv"
THEORY_GOLDEN = DATA / "theory_golden.csv"
NULL_SEQ = DATA / "null_sequence.csv"
#: ``detect``'s closed-form moments at the design noise model.
DESIGN_NOISE = ("--sigma", 1, "--nu", 2)


def run(*argv):
    return main([str(a) for a in argv])


class TestDetectCommand:
    def test_golden_fixture_byte_exact(self, tmp_path):
        out = tmp_path / "out.csv"
        code = run("detect", "--input", CGH, "--output", out,
                   "--gamma", 10, "--alpha", 0.2)
        assert code == 0
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_golden_fixture_independent_recomputation(self):
        """Recompute the significant set from the raw fixture with scratch
        code (plain convolution, loop-based extrema, textbook trimmed
        variances and step-up rule) and compare with the committed output."""
        values, _ = read_sequence_csv(str(CGH))
        gamma, alpha, trim = 10.0, 0.2, 0.1
        k = int(math.ceil(4.0 * gamma))
        n = len(values)

        derivs = {}
        for order in (1, 2, 3):
            w = gauss_kernel_samples(gamma, 4.0, order)
            if order % 2:
                w = (w - w[::-1]) / 2
            else:
                w = (w + w[::-1]) / 2
            derivs[order] = np.convolve(values, w, mode="same")

        variances = []
        for order in (1, 2, 3):
            seg = derivs[order][k:n - k]
            drop = int(math.ceil(trim * len(seg)))
            kept = np.sort(np.abs(seg))[: len(seg) - drop]
            c = norm.ppf(1 - trim / 2)
            correction = 1 - 2 * c * norm.pdf(c) / (1 - trim)
            variances.append(float(np.mean(kept ** 2)) / correction)
        v1, v2, v3 = variances

        d1 = derivs[1]
        candidates = []
        for i in range(k + 1, n - k - 1):
            if d1[i] > d1[i - 1] and d1[i] > d1[i + 1]:
                candidates.append((i + 1, 1, d1[i]))
            elif d1[i] < d1[i - 1] and d1[i] < d1[i + 1]:
                candidates.append((i + 1, -1, d1[i]))
        pvals = [reference_tail(s * h, v1, v2, v3) for _, s, h in candidates]
        _, _, rejected = bh_bruteforce(pvals, alpha)
        expected = {(candidates[j][0], candidates[j][1]) for j in rejected}

        rows, meta = parse_detection_csv(str(GOLDEN))
        got = {
            (int(r["index"]), 1 if r["sign"] == "max" else -1)
            for r in rows
            if r["significant"] == "1"
        }
        assert got == expected
        assert int(meta["m_tilde"]) == len(candidates)

    def test_round_trip_reproduces_significant_set(self, tmp_path):
        out = tmp_path / "out.csv"
        run("detect", "--input", CGH, "--output", out, "--gamma", 10,
            "--alpha", 0.2)
        rows, meta = parse_detection_csv(str(out))
        significant = [r for r in rows if r["significant"] == "1"]
        assert len(significant) == int(meta["k"])
        u = float(meta["u_threshold"])
        for r in rows:
            signed = float(r["height"]) * (1 if r["sign"] == "max" else -1)
            assert (signed > u) == (r["significant"] == "1")

    def test_position_column_carried_through(self, tmp_path):
        out = tmp_path / "out.csv"
        run("detect", "--input", CGH, "--output", out, "--gamma", 10,
            "--alpha", 0.2)
        values, positions = read_sequence_csv(str(CGH))
        rows, _ = parse_detection_csv(str(out))
        for r in rows:
            assert r["position"] == positions[int(r["index"]) - 1]

    def test_null_fixture_yields_no_detections(self, tmp_path):
        out = tmp_path / "out.csv"
        code = run("detect", "--input", NULL_SEQ, "--output", out,
                   "--gamma", 6, "--alpha", 0.05, "--sigma", 1.0, "--nu", 2.0)
        assert code == 0
        rows, meta = parse_detection_csv(str(out))
        assert meta["k"] == "0"
        assert all(r["significant"] == "0" for r in rows)

    @pytest.mark.parametrize("path", [NULL_SEQ, CGH], ids=["null_sequence", "cgh_like"])
    @pytest.mark.parametrize("sigma, nu", [(1.0, 2.0), (0.2, 0.0)])
    def test_noise_flags_are_the_library_noise_model(self, tmp_path, path, sigma, nu):
        """``--sigma s --nu n`` writes what the library writes with
        ``NoiseModel(s, n)``, the moment source named in the footer."""
        out, expected = tmp_path / "out.csv", tmp_path / "expected.csv"
        assert run("detect", "--input", path, "--output", out, "--gamma", 6,
                   "--sigma", sigma, "--nu", nu) == 0
        values, positions = read_sequence_csv(str(path))
        result = detect_change_points(TimeSeries(values), 6.0, 0.05,
                                      noise_model=NoiseModel(sigma, nu))
        write_detection_csv(expected, result, positions, f"closed(sigma={sigma:g},nu={nu:g})")
        assert out.read_bytes() == expected.read_bytes()

    def test_no_moments_switch(self, tmp_path, capsys):
        """The noise flags alone choose the moments: ``--moments`` is gone."""
        with pytest.raises(SystemExit) as info:
            run("detect", "--help")
        usage = capsys.readouterr().out
        assert info.value.code == 0 and "--sigma" in usage and "--moments" not in usage
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as info:
            run("detect", "--input", NULL_SEQ, "--output", out, "--gamma", 6,
                "--moments", "closed")
        assert info.value.code == 2 and not out.exists()
        assert "unrecognized arguments: --moments closed" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", [DESIGN_NOISE, ()],
                             ids=["closed", "empirical"])
    def test_constant_input_clean_exit(self, tmp_path, noise):
        src = tmp_path / "flat.csv"
        src.write_text("value\n" + "7.5\n" * 400)
        out = tmp_path / "out.csv"
        code = run("detect", "--input", src, "--output", out, "--gamma", 6,
                   "--alpha", 0.05, *noise)
        assert code == 0
        rows, meta = parse_detection_csv(str(out))
        assert rows == []
        assert meta["m_tilde"] == "0"
        assert meta["p_threshold"] == "1.0"

    def test_short_interior_at_empirical_moments(self, tmp_path):
        """60 rows leave 12 interior samples at gamma 6, too few to estimate
        the moments: a constant input has no candidates and exits 0 (one
        with candidates is refused, ``short_interior`` in the refusal table)."""
        src, out = tmp_path / "short.csv", tmp_path / "out.csv"
        src.write_text("value\n" + "7.5\n" * 60)
        assert run("detect", "--input", src, "--output", out, "--gamma", 6) == 0
        rows, meta = parse_detection_csv(str(out))
        assert rows == [] and meta["m_tilde"] == "0"

    def test_constant_input_exact_bytes(self, tmp_path):
        """No candidates at the default empirical moments: a header, no rows,
        and a footer whose moments read nan."""
        src, out = tmp_path / "flat.csv", tmp_path / "out.csv"
        src.write_text("value\n" + "7.5\n" * 300)
        assert run("detect", "--input", src, "--output", out, "--gamma", 6) == 0
        assert out.read_text() == (
            "index,height,sign,p_value,significant\n"
            "# m_tilde,0\n# k,0\n# p_threshold,1.0\n# u_threshold,-inf\n"
            "# var_d1,nan\n# var_d2,nan\n# var_d3,nan\n# delta,nan\n"
            "# gamma,6.0\n# alpha,0.05\n# moment_source,empirical(trim=0.1)\n"
        )

    def test_selection_disagreement_exit_3(self, tmp_path, capsys, monkeypatch):
        """A step-up set that differs from the height rule is refused in one
        line, before the output is written."""
        out = tmp_path / "out.csv"
        break_height_threshold(monkeypatch)
        capsys.readouterr()
        code = run("detect", "--input", CGH, "--output", out, "--gamma", 10, "--alpha", 0.2)
        err = capsys.readouterr().err
        assert code == 3 and not out.exists()
        assert "selections disagree" in err and "Traceback" not in err, err
        assert err.count("\n") == 1, err


class TestSimulateCommand:
    ARGS = ("simulate", "--length", 3000, "--separation", 100, "--jump", "3",
            "--grid-gamma", "6", "--grid-b", "5,8", "--reps", 3, "--seed", 5)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_golden_byte_exact(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("STEMCPD_THREADS", threads)
        out = tmp_path / "sim.csv"
        assert run(*self.ARGS, "--output", out) == 0
        assert out.read_bytes() == SIMULATE_GOLDEN.read_bytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_null_golden_byte_exact(self, tmp_path, monkeypatch, threads):
        """A null jump (nan power) and a single replicate (zero standard
        errors) give the committed output, serially and in a pool."""
        monkeypatch.setenv("STEMCPD_THREADS", threads)
        out = tmp_path / "sim.csv"
        assert run("simulate", "--length", 3000, "--separation", 100, "--jump", "0,1",
                   "--grid-gamma", "6", "--grid-b", "5,8", "--reps", 1, "--seed", 5,
                   "--output", out) == 0
        assert out.read_bytes() == SIMULATE_NULL_GOLDEN.read_bytes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_multi_gamma_golden_byte_exact(self, tmp_path, monkeypatch, threads):
        """Two jumps by two bandwidths by two tolerances: each replicate's
        one noise draw serves both bandwidths, serially and in a pool."""
        monkeypatch.setenv("STEMCPD_THREADS", threads)
        out = tmp_path / "sim.csv"
        assert run("simulate", "--length", 3000, "--separation", 100, "--jump", "1,3",
                   "--grid-gamma", "2,6", "--grid-b", "2,5", "--reps", 3, "--seed", 5,
                   "--output", out) == 0
        assert out.read_bytes() == SIMULATE_GRID_GOLDEN.read_bytes()

    @pytest.mark.parametrize("threads", ["abc", "0", "-2", ""])
    def test_threads_not_a_positive_integer_refused(self, tmp_path, monkeypatch, capsys,
                                                    threads):
        """STEMCPD_THREADS is a worker count or refused, before any replicate runs."""
        monkeypatch.setenv("STEMCPD_THREADS", threads)
        monkeypatch.setattr(cli, "run_simulation", lambda *args: pytest.fail("replicates ran"))
        out = tmp_path / "sim.csv"
        assert run(*self.ARGS, "--output", out) == 2 and not out.exists()
        assert capsys.readouterr().err == ("stemcpd simulate: error: STEMCPD_THREADS must be "
                                           f"a positive integer, got {threads!r}\n")

    def test_csv_structure(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(*self.ARGS, "--output", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "jump,gamma,tolerance,fdr,fdr_se,power,power_se,replications,seed"
        data = [l for l in lines if not l.startswith("#") and l != lines[0]]
        assert len(data) == 2  # one row per tolerance
        first = data[0].split(",")
        assert float(first[0]) == 3.0
        assert first[7] == "3"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(*self.ARGS, "--output", a)
        run(*self.ARGS, "--output", b)
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_byte_identical(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(*self.ARGS, "--output", a)
        monkeypatch.setenv("STEMCPD_THREADS", "2")
        run(*self.ARGS, "--output", b)
        assert a.read_bytes() == b.read_bytes()

    def test_split_runs_merge_through_csv(self, tmp_path):
        """Two half-size invocations merge to the single run's aggregates."""
        base = ("simulate", "--length", 3000, "--separation", 100,
                "--jump", "3", "--grid-gamma", "6", "--grid-b", 8,
                "--seed", 9)
        whole, first, second = (tmp_path / n for n in ("w.csv", "a.csv", "b.csv"))
        run(*base, "--reps", 8, "--output", whole)
        run(*base, "--reps", 4, "--output", first)
        run(*base, "--reps", 4, "--rep-start", 4, "--output", second)

        def row(path):
            line = [l for l in path.read_text().splitlines()[1:] if not l.startswith("#")][0]
            return [float(x) for x in line.split(",")]

        w, a, b = row(whole), row(first), row(second)
        assert abs((a[3] * 4 + b[3] * 4) / 8 - w[3]) <= 1e-12  # fdr
        assert abs((a[5] * 4 + b[5] * 4) / 8 - w[5]) <= 1e-12  # power

    def test_single_tolerance_flag(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run("simulate", "--length", 3000, "--separation", 100,
                   "--jump", "3", "--grid-gamma", "6", "--grid-b", 8,
                   "--reps", 2, "--seed", 5, "--output", out) == 0
        data = [l for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
        assert len(data) == 1

    def test_overlap_warned_once(self, tmp_path, capfd):
        """2b = 120 exceeds the jump spacing of 100: the rows are written and
        the request warns once on stderr, serially and with a pool.  A child
        process prints warnings as a user's would, as do its pool workers."""
        root = str(Path(cli.__file__).parents[1])  # the stemcpd under test
        for threads in ("1", "2"):
            out = tmp_path / f"sim{threads}.csv"
            subprocess.run([sys.executable, "-m", "stemcpd.cli", "simulate", "--length", "3000",
                            "--jump", "1", "--grid-gamma", "6", "--grid-b", "5,60", "--reps", "4",
                            "--seed", "1", "--output", str(out)],
                           env={**os.environ, "STEMCPD_THREADS": threads, "PYTHONPATH": root},
                           check=True)
            err = capfd.readouterr().err
            assert err.count("tolerance windows overlap") == 1 and "Traceback" not in err, err
            assert len(parse_detection_csv(str(out))[0]) == 2

    def test_null_jump_cell(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run("simulate", "--length", 3000, "--separation", 100,
                   "--jump", "0", "--grid-gamma", "6", "--grid-b", 8,
                   "--reps", 2, "--seed", 5, "--output", out) == 0
        data = [l for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
        row = data[0].split(",")
        assert math.isnan(float(row[5]))  # power column


class TestTheoryCommand:
    def test_golden_byte_exact(self, tmp_path):
        out = tmp_path / "theory.csv"
        assert run("theory", "--output", out) == 0
        assert out.read_bytes() == THEORY_GOLDEN.read_bytes()

    def test_csv_content(self, tmp_path):
        out = tmp_path / "theory.csv"
        code = run("theory", "--grid-gamma", "3,6", "--jump", "1,3",
                   "--alpha", 0.05, "--sigma", 1, "--nu", 2,
                   "--density", 0.01, "--output", out)
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["gamma", "var_d1", "var_d2", "var_d3", "delta",
                          "null_rate", "q_star", "u_star", "fdr_bound_bh",
                          "snr_j1", "snr_j3", "power_j1", "power_j3"]
        row6 = dict(zip(header, lines[2].split(",")))
        assert float(row6["gamma"]) == 6.0
        assert float(row6["null_rate"]) == pytest.approx(0.03978873577297383, rel=1e-12)
        assert float(row6["q_star"]) == pytest.approx(0.01013966970291401, rel=1e-10)
        assert float(row6["fdr_bound_bh"]) == pytest.approx(0.04026864101637727, rel=1e-10)
        assert float(row6["snr_j1"]) == pytest.approx(2.8159262270582555, rel=1e-12)
        for col in ("q_star", "fdr_bound_bh", "power_j1", "power_j3"):
            for line in lines[1:3]:
                val = float(dict(zip(header, line.split(",")))[col])
                assert 0.0 <= val <= 1.0

    def test_snr_dip_column(self, tmp_path):
        out = tmp_path / "theory.csv"
        grid = "0.5," + ",".join(str(g) for g in range(1, 11))
        run("theory", "--grid-gamma", grid, "--jump", "1", "--nu", 2,
            "--density", 0.01, "--output", out)
        lines = [l for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
        gammas = [float(l.split(",")[0]) for l in lines]
        snrs = [float(l.split(",")[9]) for l in lines]
        assert gammas[int(np.argmin(snrs))] == 3.0


@pytest.mark.parametrize("argv, shared", [
    (["detect", "--input", "x.csv", "--gamma", "6"], {"alpha"}),
    (["theory"], {"alpha", "sigma", "nu", "jumps", "gammas"}),
    (["simulate"], {f.name for f in fields(SimulateRequest)}),
])
def test_parser_defaults_are_the_design_defaults(argv, shared):
    """``detect`` shares only alpha: without --sigma and --nu it uses
    empirical moments, so they have no default."""
    args = build_parser().parse_args([*argv, "--output", "o.csv"])
    design = SimulateRequest()
    unset = {"sigma", "nu"} if argv[0] == "detect" else set()
    assert {f.name for f in fields(SimulateRequest)} & set(vars(args)) == shared | unset
    assert {name: getattr(args, name) for name in shared} == \
        {name: getattr(design, name) for name in shared}
    assert all(getattr(args, name) is None for name in unset)


class TestReadSequenceCsv:
    def test_single_column_no_header(self, tmp_path):
        src = tmp_path / "x.csv"
        src.write_text("1.5\n2.5\n")
        values, positions = read_sequence_csv(str(src))
        assert list(values) == [1.5, 2.5]
        assert positions is None

    def test_empty_file(self, tmp_path):
        src = tmp_path / "x.csv"
        src.write_text("")
        with pytest.raises(InputDataError):
            read_sequence_csv(str(src))

    def test_byte_order_mark_is_not_data(self, tmp_path):
        src = tmp_path / "x.csv"
        src.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n3.5\n")
        values, positions = read_sequence_csv(str(src))
        assert list(values) == [1.5, 2.5, 3.5]
        assert positions is None

    @pytest.mark.parametrize("content", [
        "1_0\n2.5\n",                # float() reads 10.0; numpy's parser refuses underscores
        "\u0661.5\n2.5\n",            # an Arabic-Indic digit, which float() also reads
        "1.5\x1c\n2.5\n",             # a separator control that numpy would strip as space
        'x,0.5\n"a\nb",1.5\nc,2.5\n',  # a quoted field running over a line end
        '1.5\n"2.5\n',               # a quoted field still open at the end of the file
    ], ids=["underscore", "arabic_indic_digit", "separator_control", "quote_over_line_end",
            "quote_open_at_end"])
    def test_spellings_outside_the_format_rejected(self, tmp_path, content):
        src = tmp_path / "x.csv"
        src.write_text(content, encoding="utf-8")
        with pytest.raises(InputDataError):
            read_sequence_csv(str(src))

    @pytest.mark.parametrize("content, line", [
        ("v\n1\n2,3\n", 3),
        ("v\n1\nabc\n", 3),
        ("v\n1\n# note\n\nabc\n", 5),  # comment and blank lines count as lines
        ("1\n2\n3\n4\n5\n6\n7\nnan\n", 8),
        ("p,v\na,1\n\nb,inf\nc,2\n", 4),
        ("v\n1\nabc\n2\nxyz\n", 3),  # the first of two refused rows in one piece
    ], ids=["extra_column", "non_numeric", "after_comment", "nan", "inf_after_blank",
            "first_of_two"])
    def test_refused_row_named_by_its_line(self, tmp_path, content, line):
        src = tmp_path / "x.csv"
        src.write_text(content)
        with pytest.raises(InputDataError) as info:
            read_sequence_csv(str(src))
        message = str(info.value)
        assert f" line {line} " in message
        assert "at row" not in message and "usecols" not in message

    def test_three_columns_rejected(self, tmp_path):
        src = tmp_path / "x.csv"
        src.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InputDataError):
            read_sequence_csv(str(src))


def read_outcome(path):
    """Values as bits and labels, or the error message."""
    try:
        values, positions = read_sequence_csv(str(path))
    except InputDataError as exc:
        return str(exc)
    return values.view(np.int64).tolist(), positions and list(positions)


class TestReadInPieces:
    """Rows of every kind straddle the piece boundaries: values, labels and
    error messages, line numbers included, are those of one piece."""

    LABELLED = 'position,"ratio"\r\n' + (
        '"chr1:1,000",0.5\r\n'
        '"a ""quoted"" label", 1.5 \r\n'
        '# a comment, "quoted"\r\n'
        '\r\n'
        '  # an indented comment\r\n'
        '"# a quoted comment",9\r\n'
        'plain,"2.5"\r\n'
    ) * 4 + 'last,-3e2'

    @pytest.mark.parametrize("content, expected", [
        (LABELLED, ([0.5, 1.5, 2.5] * 4 + [-300.0],
                    ['chr1:1,000', 'a "quoted" label', 'plain'] * 4 + ['last'])),
        ("value\n" + "1.0\n" * 30 + "abc\n" + "2.0\n" * 5, " line 32 is not 1 column(s)"),
        ("# values\n\n" + "1.0\n" * 40 + "-inf\n2.0\n", " line 43 is not a finite number"),
        ("p,v\n" + "a,1\n" * 20 + "n,nan\n", " line 22 is not a finite number"),
        ("p,v\n" + "a,1\n" * 20 + 'b,"2.5\n' + "c,3\n" * 5, " line 22: a quoted field runs past"),
        ("p,v\n" + "a,1\n" * 20 + '"b,2\n' + "c,3\n" * 5, " line 22: a quoted field runs past"),
        ("p,v\n" + "a,1\n" * 20 + 'b,"2.5', " line 22: a quoted field runs past"),
        ("p,v\n" + "a,1\n" * 20 + "b,2,3\nc,3\n", " line 22 is not 2 column(s)"),
    ], ids=["labels_crlf_comments", "bad_row", "inf_after_comments", "nan_last",
            "quote_open_in_value", "quote_open_in_label", "quote_open_at_end", "extra_column"])
    def test_piece_size_changes_nothing(self, tmp_path, monkeypatch, content, expected):
        src = tmp_path / "x.csv"
        src.write_bytes(content.encode())
        whole = read_outcome(src)
        if isinstance(expected, str):
            assert expected in whole
        else:
            values, labels = expected
            assert whole == (np.array(values).view(np.int64).tolist(), labels)
        for chunk in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144):
            monkeypatch.setattr(cli, "_CHUNK", chunk)
            assert read_outcome(src) == whole, chunk

    def test_detect_labels_across_default_pieces(self, tmp_path):
        """60k rows, about 8 default pieces, with a comment at row 30000: each
        output position is the label of the input row its index names."""
        labels = [f"chr1:{1000 + 7 * i},{i % 3}" for i in range(60_000)]
        lines = [f'"{p}",{math.sin(i / 50) + i // 2000 % 2!r}' for i, p in enumerate(labels)]
        lines.insert(30_000, '# a comment line, "quoted"')
        src, out = tmp_path / "x.csv", tmp_path / "out.csv"
        src.write_text("position,ratio\n" + "\n".join(lines) + "\n")
        assert run("detect", "--input", src, "--output", out, *DESIGN_NOISE,
                   "--gamma", 10) == 0
        rows, _ = parse_detection_csv(str(out))
        assert rows and [r["position"] for r in rows] == [labels[int(r["index"]) - 1] for r in rows]


LONG_LABEL = '"' + "x" * 140_000 + '"'


@pytest.mark.parametrize("chunk", [1, cli._CHUNK], ids=["one_line_pieces", "default_pieces"])
@pytest.mark.parametrize("content, message", [
    ('"a,1\n2\n', "<path> line 1: a quoted field runs past the end of the line '\"a,1'"),
    (LONG_LABEL + ",1\n2,2\n", "<path> line 1: field larger than field limit (131072)"),
    ('v\n1\n"2\n3\n', "<path> line 3: a quoted field runs past the end of the line '\"2'"),
    ("p,v\na,1\n" + LONG_LABEL + ",2\nb,3\n",
     "<path> line 3: field larger than field limit (131072)"),
    ("a,b,c\n1,2,3\n", "<path> must have one or two columns throughout"),
    ("v\n1\nabc\n", "<path> line 3 is not 1 column(s) of numbers: 'abc'"),
    ("p,v\na,1\nb,2\nc,3\nx,abc\n", "<path> line 5 is not 2 column(s) of numbers: 'x,abc'"),
    ("v\n1\nnan\n2\n", "<path> line 3 is not a finite number: 'nan'"),
    ("v\nnan\nabc\n", "<path> line 3 is not 1 column(s) of numbers: 'abc'"),
    ("# only a comment\n\n", "<path> contains no data rows"),
    ("v\n", "<path> contains a header but no data"),
    ("1.5\x1c\n2.5\n", "<path> contains an ASCII separator control character"),
    (b"v\n\xff\n", "cannot read <path>: 'utf-8' codec can't decode byte 0xff in position 2: "
                   "invalid start byte"),
], ids=["split_first_row", "field_limit_first_row", "split_later_row", "split_label_at_write",
        "three_columns", "non_numeric", "two_columns_non_numeric", "non_finite",
        "refused_row_before_non_finite", "no_data_rows", "header_no_data", "separator_control",
        "undecodable"])
def test_refusal_message_exact(tmp_path, monkeypatch, chunk, content, message):
    """Each refusal's whole message, at any piece size.  A quoted label is
    split only when the output asks for it, so the labels are all cut here."""
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    src = tmp_path / "x.csv"
    src.write_bytes(content if isinstance(content, bytes) else content.encode())
    with pytest.raises(InputDataError) as info:
        _, positions = read_sequence_csv(str(src))
        list(positions)
    assert str(info.value) == message.replace("<path>", str(src))


def normal_text(scale, n, seed):
    """``n`` rows of ``scale`` times standard normal draws."""
    values = scale * np.random.default_rng(seed).standard_normal(n)
    return "".join(f"{v!r}\n" for v in values.tolist())


SHORT = "value\n" + "".join(f"{float(i % 3)!r}\n" for i in range(30))
NULL_TEXT = NULL_SEQ.read_text()
LONG_LABELS = "position,value\n" + "".join(
    f"{LONG_LABEL if 110 <= i < 130 else i},{float(i >= 120)!r}\n" for i in range(300))
WIDE = "error: series of length 30 is shorter than the kernel at gamma="
INFINITE = "error: gamma must be positive, and the support half-width 4*gamma finite\n"

#: One row per refusal: name, argv, the input text (None: no file), exit code
#: and a fragment of the message, in which ``<path>`` stands for the input's path.
REFUSALS = [
    # detect exits 2 for input it cannot read as a sequence
    ("missing_input", ("detect", "--gamma", 6), None, 2, "cannot read <path>: [Errno 2]"),
    ("non_numeric", ("detect", "--gamma", 6), "value\n1.0\noops\n", 2,
     "<path> line 3 is not 1 column(s) of numbers: 'oops'"),
    ("not_utf8", ("detect", "--gamma", 6), b"value\n\xff\xfe1.0\n", 2,
     "cannot read <path>: 'utf-8' codec can't decode byte 0xff"),
    ("nan", ("detect", "--gamma", 6), "value\n1.0\nnan\n2.0\n", 2,
     "<path> line 3 is not a finite number: 'nan'"),
    ("bad_row", ("detect", "--gamma", 2), "position,value\na,1\nb,2\nc,3\nx,abc\nd,4\n", 2,
     "<path> line 5 is not 2 column(s) of numbers: 'x,abc'"),
    # a label over the csv field limit is cut, and refused, before the output opens
    ("over_long_label", ("detect", "--gamma", 2, *DESIGN_NOISE), LONG_LABELS, 2,
     "<path> line 121: field larger than field limit (131072)"),
    # and 3 for every other refusal: a kernel too wide, however wide, in one short line
    *((f"gamma_{gamma}", ("detect", "--gamma", gamma, *DESIGN_NOISE), SHORT, 3, message)
      for gamma, message in (("6", WIDE + "6 (2*24+1 samples)\n"),
                             ("1e12", WIDE + "1e+12 (2*4e+12+1 samples)\n"),
                             ("1e300", WIDE + "1e+300 (2*4e+300+1 samples)\n"),
                             ("4e307", WIDE + "4e+307 (2*1.6e+308+1 samples)\n"),
                             ("1e308", INFINITE), ("inf", INFINITE))),
    *((f"alpha_{moments}", ("detect", "--gamma", 6, "--alpha", 1.5, *noise),
       NULL_TEXT, 3, "alpha must lie in (0, 1)")
      for moments, noise in (("closed", DESIGN_NOISE), ("empirical", ()))),
    *((f"closed_{case}", ("detect", "--gamma", 6, "--sigma", sigma, "--nu", nu),
       NULL_TEXT, 3, fragment) for case, sigma, nu, fragment in (
        ("nu_1e200", 1, "1e200", "sigma=1"),
        ("sigma_1e200", "1e200", 2, "sigma=1e+200"),
        ("sigma_1e-200", "1e-200", 2, "sigma=1e-200"),
        ("sigma_-1_nu_nan", -1, "nan", "sigma must be positive and finite, got -1.0"))),
    # a noise model needs both flags: one alone is refused before the input is read
    ("sigma_alone", ("detect", "--gamma", 6, "--sigma", 1), None, 3,
     "closed-form moments need both --sigma and --nu; --nu is missing"),
    ("nu_alone", ("detect", "--gamma", 6, "--nu", 2), NULL_TEXT, 3,
     "closed-form moments need both --sigma and --nu; --sigma is missing"),
    ("short_interior", ("detect", "--gamma", 6), "value\n" + normal_text(1.0, 60, 2), 3,
     "interior too short for moment estimation (12 samples)"),
    # inputs whose variances or smooths overflow, refused by name without a numpy warning
    ("empirical_variance_products", ("detect", "--gamma", 3), normal_text(1e100, 500, 3), 3,
     "empirical moments are out of floating-point range for an input of magnitude 3.323e+100"),
    ("empirical_square", ("detect", "--gamma", 6), normal_text(1e160, 3000, 3), 3,
     "out of floating-point range for an input of magnitude 3.88646e+160 at gamma=6"),
    ("empirical_mean", ("detect", "--gamma", 3), normal_text(1.2e154, 3000, 3), 3,
     "out of floating-point range for an input of magnitude 4.66375e+154 at gamma=3"),
    ("smooth", ("detect", "--gamma", 3, *DESIGN_NOISE), "1e+308\n1e+308\n-1e+308\n"
     "-1e+308\n" * 100, 3, "smoothing at gamma=3 leaves the floating-point range for an input "
     "of magnitude 1e+308"),
    # simulate and theory exit 2 for every refusal, before any replicate runs
    *((f"simulate_{name}_{value}", ("simulate", "--reps", 2, f"--{name}", value), None, 2, fragment)
      for name, value, fragment in (
        ("grid-gamma", "0", "bandwidths must be positive"),
        ("nu", "inf", "nu must be non-negative and finite, got inf"),
        ("nu", "nan", "nu must be non-negative and finite, got nan"),
        ("nu", "1e200", "sigma=1, nu=1e+200"),
        ("sigma", "1e200", "sigma=1e+200"),
        ("sigma", "-1", "sigma must be positive and finite, got -1.0"),
        ("alpha", "1.5", "alpha must lie in (0, 1)"),
        ("nu", "0.1", "nu=0.1"),
        ("jump", "nan", "jumps grid must be finite, got (nan,)"),
        ("grid-b", "5,nan", "tolerances grid must be finite, got (5.0, nan)"),
        ("grid-gamma", "inf", "gammas grid must be finite, got (inf,)"))),
    ("simulate_kernel_wider_than_series", ("simulate", "--reps", 2, "--length", 50,
     "--separation", 10, "--jump", "1", "--grid-gamma", "10", "--grid-b", 5), None, 2,
     "series of length 50 is shorter than the kernel at gamma=10"),
    ("theory_kernel_occupancy", ("theory", "--grid-gamma", "6", "--density", 0.05), None, 2,
     "kernel occupancy"),
    *((f"theory_{name}_{value or 'empty'}", ("theory", f"--{name}", value), None, 2, fragment)
      for name, value, fragment in (
        ("sigma", "1e200", "sigma=1e+200"),
        ("sigma", "1e-200", "sigma=1e-200"),
        ("grid-gamma", "1e200", "sigma=1"),
        ("jump", "nan,inf", "jumps grid must be finite, got (nan, inf)"),
        ("grid-gamma", "inf", "gammas grid must be finite, got (inf,)"),
        ("jump", "", "jumps grid must be non-empty"),
        ("grid-gamma", "", "gammas grid must be non-empty"))),
]


@pytest.mark.parametrize("argv, text, code, fragment, chunk", [
    pytest.param(argv, text, code, fragment, chunk,
                 id=f"{name}-{pieces}" if argv[0] == "detect" else name)
    for name, argv, text, code, fragment in REFUSALS
    for chunk, pieces in ((1, "one_line_pieces"), (cli._CHUNK, "default_pieces"))
    if argv[0] == "detect" or chunk == cli._CHUNK
])
def test_refusal_contract(tmp_path, monkeypatch, capsys, argv, text, code, fragment, chunk):
    """The CLI's refusal contract, whole in every row: the exit code,
    exactly one stderr line ``stemcpd <command>: error: ...`` holding the
    fragment, no traceback and no output file; pytest.ini turns a warning
    into a failure.  ``detect`` rows run at one-line and default pieces."""
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    src, out = tmp_path / "x.csv", tmp_path / "out.csv"
    if text is not None:
        src.write_bytes(text if isinstance(text, bytes) else text.encode())
    command, *options = argv
    if command == "detect":
        options += ["--input", src]
    assert run(command, *options, "--output", out) == code
    err = capsys.readouterr().err
    assert err.startswith(f"stemcpd {command}: error: ") and err.count("\n") == 1, err
    assert fragment.replace("<path>", str(src)) in err and "Traceback" not in err, err
    assert not out.exists()


def test_reader_memory_is_the_text_and_16_bytes_a_row(tmp_path):
    """No per-row Python object outlives its piece: on ASCII input, where
    the decoded text takes one byte a character, memory while reading stays
    within the file size and 60 bytes a row, and the values and labels hold
    the text and 16 bytes a row, a value and a line offset (bounded at 24).
    A list of the lines alone takes about 60 a row."""
    n = 200_000
    rng = np.random.default_rng(11)
    positions = 1_000_000 + np.cumsum(rng.integers(500, 5000, n))
    values = 0.2 * rng.standard_normal(n)
    src = tmp_path / "long.csv"
    with open(src, "w") as fh:
        fh.write("position,ratio\n")
        fh.writelines(f"{p},{v!r}\n" for p, v in zip(positions.tolist(), values.tolist()))
    size = src.stat().st_size
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        read, labels = read_sequence_csv(str(src))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(read, values) and labels[n - 1] == str(positions[-1])
    assert peak - base <= size + 60 * n
    assert held - base <= size + 24 * n


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reader_peaks_at_its_decode(tmp_path):
    """The values and line offsets are filled in place into arrays sized by
    the line count, so reading a 2e5-row file of genomic positions and
    float reprs (about 30 bytes a row) peaks where the file's bytes and
    its text are alive at once, in the decode; joining per-piece arrays at
    the end went about 1 MB past that.

    The test covers realistic rows only.  On 2e5 rows of ``0.5`` the
    two arrays' 16 bytes a row outweigh the row's 4 bytes, and the traced
    peak is 48 bytes a row above the file size (62 when per-piece arrays
    were joined): the arrays are allocated in full before the first piece
    parses.  No capacity sizing avoids that, since there the line count is
    the row count plus one; only growing the arrays, with the copies this
    reader drops, would."""
    n = 200_000
    rng = np.random.default_rng(12)
    positions = 1_000_000 + np.cumsum(rng.integers(500, 5000, n))
    src = tmp_path / "long.csv"
    with open(src, "w") as fh:
        fh.writelines(f"{p},{v!r}\n"
                      for p, v in zip(positions.tolist(), (0.2 * rng.standard_normal(n)).tolist()))

    def decode():
        with open(src, encoding="utf-8-sig") as fh:
            fh.read()

    decode()  # loads the codec before anything is traced
    assert _traced_peak(lambda: read_sequence_csv(str(src))) <= _traced_peak(decode) + 4096


def test_reader_holds_one_piece_of_lines_at_a_time(tmp_path):
    """A piece's lines, offsets and values are let go before the next piece
    is split.  On 2e5 rows of ``0.5`` (4 bytes a row) reading peaks at
    about 52 bytes a row; when the previous piece stayed bound while the
    next one split, it peaked at about 77."""
    n = 200_000
    src = tmp_path / "short.csv"
    src.write_text("0.5\n" * n)
    read_sequence_csv(str(src))  # loads the codec and loadtxt before anything is traced
    assert _traced_peak(lambda: read_sequence_csv(str(src))) <= 64 * n


@pytest.fixture
def one_line_pieces(monkeypatch):
    """The reader parses its input one line per piece."""
    monkeypatch.setattr(cli, "_CHUNK", 1)


@pytest.mark.usefixtures("one_line_pieces")
class TestDetectCommandInOneLinePieces(TestDetectCommand):
    """Every detect test again, with the input parsed one line per piece."""


@pytest.mark.usefixtures("one_line_pieces")
class TestReadSequenceCsvInOneLinePieces(TestReadSequenceCsv):
    """Every reader test again, with the input parsed one line per piece."""
