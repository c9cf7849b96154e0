"""CLI tests: detection on fixtures, simulation CSVs, theory CSVs, exit codes."""

import math
import os
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from stemcpd.cli import build_parser, main, parse_detection_csv, read_sequence_csv
from stemcpd.harness import SimulateRequest

from helpers import bh_bruteforce, gauss_kernel_samples, reference_tail

DATA = Path(__file__).parent / "data"
CGH = DATA / "cgh_like.csv"
GOLDEN = DATA / "cgh_like_golden.csv"
SIMULATE_GOLDEN = DATA / "simulate_golden.csv"
SIMULATE_NULL_GOLDEN = DATA / "simulate_null_golden.csv"
THEORY_GOLDEN = DATA / "theory_golden.csv"
NULL_SEQ = DATA / "null_sequence.csv"


def run(*argv):
    return main([str(a) for a in argv])


class TestDetectCommand:
    def test_golden_fixture_byte_exact(self, tmp_path):
        out = tmp_path / "out.csv"
        code = run("detect", "--input", CGH, "--output", out,
                   "--gamma", 10, "--alpha", 0.2, "--moments", "empirical")
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
                   "--gamma", 6, "--alpha", 0.05, "--moments", "closed",
                   "--sigma", 1.0, "--nu", 2.0)
        assert code == 0
        rows, meta = parse_detection_csv(str(out))
        assert meta["k"] == "0"
        assert all(r["significant"] == "0" for r in rows)

    @pytest.mark.parametrize("source", ["closed", "empirical"])
    def test_constant_input_clean_exit(self, tmp_path, source):
        src = tmp_path / "flat.csv"
        src.write_text("value\n" + "7.5\n" * 400)
        out = tmp_path / "out.csv"
        code = run("detect", "--input", src, "--output", out, "--gamma", 6,
                   "--alpha", 0.05, "--moments", source)
        assert code == 0
        rows, meta = parse_detection_csv(str(out))
        assert rows == []
        assert meta["m_tilde"] == "0"
        assert meta["p_threshold"] == "1.0"

    def test_missing_input_exit_2(self, tmp_path):
        code = run("detect", "--input", tmp_path / "nope.csv",
                   "--output", tmp_path / "out.csv", "--gamma", 6)
        assert code == 2

    def test_non_numeric_input_exit_2(self, tmp_path):
        src = tmp_path / "bad.csv"
        for content in (b"value\n1.0\noops\n", b"value\n\xff\xfe1.0\n"):  # not UTF-8
            src.write_bytes(content)
            code = run("detect", "--input", src, "--output", tmp_path / "o.csv",
                       "--gamma", 6)
            assert code == 2, content

    def test_nan_input_exit_2(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("value\n1.0\nnan\n2.0\n")
        code = run("detect", "--input", src, "--output", tmp_path / "o.csv",
                   "--gamma", 6)
        assert code == 2

    def test_bandwidth_too_large_exit_3(self, tmp_path, capsys):
        src = tmp_path / "short.csv"
        src.write_text("value\n" + "\n".join(repr(float(i % 3)) for i in range(30)) + "\n")
        # an infinite or huge kernel is refused before any weight is sampled,
        # in one short line that names gamma
        for extra in ([], ["--gamma", "inf"], ["--gamma", "1e308"], ["--gamma", "1e12"],
                      ["--gamma", "1e300"], ["--gamma", "4e307"]):
            capsys.readouterr()
            code = run("detect", "--input", src, "--output", tmp_path / "o.csv",
                       "--gamma", 6, "--moments", "closed", *extra)
            err = capsys.readouterr().err
            assert code == 3, extra
            assert "gamma" in err and len(err) < 160 and err.count("\n") == 1, (extra, err)

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

    def test_bad_alpha_exit_3(self, tmp_path, capsys):
        for moments in ("closed", "empirical"):
            capsys.readouterr()
            code = run("detect", "--input", NULL_SEQ, "--output", tmp_path / "o.csv",
                       "--gamma", 6, "--alpha", 1.5, "--moments", moments)
            assert code == 3, moments
            assert "alpha must lie in (0, 1)" in capsys.readouterr().err, moments

    def test_closed_moments_out_of_range_exit_3(self, tmp_path, capsys):
        for extra in (["--nu", "1e200"], ["--sigma", "1e200"], ["--sigma", "1e-200"]):
            capsys.readouterr()
            code = run("detect", "--input", NULL_SEQ, "--output", tmp_path / "o.csv",
                       "--gamma", 6, "--moments", "closed", *extra)
            assert code == 3, extra
            assert "sigma=" in capsys.readouterr().err, extra

    def test_empirical_moments_out_of_range_exit_3(self, tmp_path, capsys):
        """An input near 1e100 overflows the empirical variance products:
        refused by name, with the input's magnitude and no numpy warning."""
        src = tmp_path / "huge.csv"
        values = 1e100 * np.random.default_rng(3).standard_normal(500)
        src.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("detect", "--input", src, "--output", tmp_path / "o.csv", "--gamma", 3)
        err = capsys.readouterr().err
        assert code == 3
        assert "out of floating-point range" in err and "e+100" in err


class TestSimulateCommand:
    ARGS = ("simulate", "--length", 3000, "--separation", 100, "--jump", "3",
            "--grid-gamma", "6", "--grid-b", "5,8", "--reps", 3, "--seed", 5)

    def test_golden_byte_exact(self, tmp_path):
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

    def test_invalid_grid_exit_2(self, tmp_path, capsys):
        # a non-finite noise scale is refused by name, not by a traceback
        for bad in (["--grid-gamma", "0"], ["--grid-gamma", "inf"],
                    ["--nu", "inf"], ["--nu", "nan"], ["--nu", "1e200"], ["--sigma", "1e200"],
                    ["--alpha", "1.5"], ["--sigma", "-1"]):
            code = run("simulate", *bad, "--reps", 2, "--output", tmp_path / "o.csv")
            assert code == 2, bad
        # a non-finite grid value is refused before any replicate runs
        for bad, field in ((["--jump", "nan"], "jumps"), (["--grid-b", "5,nan"], "tolerances"),
                           (["--grid-gamma", "inf"], "gammas")):
            capsys.readouterr()
            code = run("simulate", *bad, "--reps", 2, "--output", tmp_path / "o.csv")
            assert code == 2, bad
            assert f"{field} grid must be finite" in capsys.readouterr().err, bad

    def test_bandwidth_exceeding_length_exit_2(self, tmp_path):
        code = run("simulate", "--length", 50, "--separation", 10,
                   "--jump", "1", "--grid-gamma", "10", "--grid-b", 5,
                   "--reps", 2, "--output", tmp_path / "o.csv")
        assert code == 2

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

    def test_degenerate_config_exit_2(self, tmp_path):
        code = run("theory", "--grid-gamma", "6", "--density", 0.05,
                   "--output", tmp_path / "o.csv")
        assert code == 2

    def test_out_of_range_parameters_exit_2(self, tmp_path, capsys):
        # moments out of floating-point range are refused naming the inputs
        for bad in (["--sigma", "1e200"], ["--sigma", "1e-200"], ["--grid-gamma", "1e200"]):
            capsys.readouterr()
            assert run("theory", *bad, "--output", tmp_path / "o.csv") == 2, bad
            assert "sigma=" in capsys.readouterr().err, bad
        # non-finite grid values are refused as simulate refuses them
        for bad, message in ((["--jump", "nan,inf"], "jumps grid must be finite, got (nan, inf)"),
                             (["--grid-gamma", "inf"], "gammas grid must be finite, got (inf,)")):
            capsys.readouterr()
            assert run("theory", *bad, "--output", tmp_path / "o.csv") == 2, bad
            assert message in capsys.readouterr().err, bad


@pytest.mark.parametrize("argv, shared", [
    (["detect", "--input", "x.csv", "--gamma", "6"], {"alpha", "sigma", "nu"}),
    (["theory"], {"alpha", "sigma", "nu", "jumps", "gammas"}),
    (["simulate"], {f.name for f in fields(SimulateRequest)}),
])
def test_parser_defaults_are_the_design_defaults(argv, shared):
    args = build_parser().parse_args([*argv, "--output", "o.csv"])
    design = SimulateRequest()
    assert {f.name for f in fields(SimulateRequest)} & set(vars(args)) == shared
    assert {name: getattr(args, name) for name in shared} == \
        {name: getattr(design, name) for name in shared}


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
        from stemcpd.cli import InputDataError

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
        from stemcpd.cli import InputDataError

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
    ], ids=["extra_column", "non_numeric", "after_comment", "nan", "inf_after_blank"])
    def test_refused_row_named_by_its_line(self, tmp_path, content, line):
        from stemcpd.cli import InputDataError

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
        from stemcpd.cli import InputDataError

        with pytest.raises(InputDataError):
            read_sequence_csv(str(src))
