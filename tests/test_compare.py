"""The paired-run summary of ``tools/compare.py``, on synthetic numbers."""

import argparse
import importlib.util
import math
import os
import signal
import tempfile
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare", Path(__file__).resolve().parents[1] / "tools" / "compare.py")
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)
summarize = compare.summarize

#: Ten base runs with quartiles 79.125 and 80.875 (interquartile range 1.75).
BASE = [80.0, 81.0, 79.0, 82.0, 78.0, 80.5, 79.5, 81.5, 78.5, 80.0]


def test_quartiles_wins_and_change():
    head = [x - 2.0 for x in BASE]
    s = summarize(BASE, head, "lower", 0.1)
    assert s["base"] == pytest.approx([79.125, 80.0, 80.875])
    assert s["head"] == pytest.approx([77.125, 78.0, 78.875])
    assert (s["wins"], s["pairs"]) == (10, 10)
    assert s["change"] == pytest.approx(-0.025)
    assert s["within_bound"] and s["claim"]


def test_higher_is_better_flips_the_direction():
    head = [x + 2.0 for x in BASE]
    assert summarize(BASE, head, "higher", 0.1)["claim"]
    lower = summarize(BASE, head, "lower", 0.1)
    assert lower["wins"] == 0 and not lower["claim"]


def test_claim_needs_nine_tenths_of_the_pairs():
    head = [x - 3.0 for x in BASE]
    head[0] = BASE[0] + 5.0  # 9 of 10
    assert summarize(BASE, head, "lower", 0.1)["claim"]
    head[1] = BASE[1]  # a tie counts for neither side: 8 of 10
    s = summarize(BASE, head, "lower", 0.1)
    assert s["wins"] == 8 and not s["claim"]


def test_claim_needs_a_gap_wider_than_the_base_spread():
    """Every pair won, but by less than the base's interquartile range."""
    head = [x - 1.0 for x in BASE]
    s = summarize(BASE, head, "lower", 0.1)
    assert s["wins"] == 10 and not s["claim"]


def test_claim_needs_ten_pairs():
    s = summarize(BASE[:9], [x - 5.0 for x in BASE[:9]], "lower", 0.1)
    assert s["wins"] == 9 and not s["claim"]


def test_an_identical_run_wins_nothing_and_stays_in_bound():
    s = summarize(BASE, BASE, "lower", 0.0)
    assert (s["wins"], s["change"], s["within_bound"], s["claim"]) == (0, 0.0, True, False)


@pytest.mark.parametrize("better,head,within", [
    ("lower", 88.0, True), ("lower", 88.5, False),  # up to 10% worse than 80
    ("higher", 72.0, True), ("higher", 71.5, False),
])
def test_within_bound_is_the_relative_worsening_of_the_median(better, head, within):
    assert summarize(BASE, [head] * 10, better, 0.1)["within_bound"] is within


def test_a_zero_base_median_has_no_relative_change():
    assert math.isnan(summarize([0.0] * 10, [0.0] * 10, "lower", 0.1)["change"])


def _noisy_pairs(shift, seed, spread=0.04, pairs=10):
    """Base runs around 80 and head runs ``shift`` times base, each run
    scattered by ``spread`` of its value."""
    rng = np.random.default_rng(seed)
    base = 80.0 * (1.0 + spread * rng.standard_normal(pairs))
    head = shift * 80.0 * (1.0 + spread * rng.standard_normal(pairs))
    return base.tolist(), head.tolist()


def test_ten_percent_shift_claims_with_its_interval_below_one():
    base, head = _noisy_pairs(0.9, seed=3)
    s = summarize(base, head, "lower", 0.1)
    low, ratio, high = s["ratio"]
    assert low <= ratio <= high < 1.0 and ratio == pytest.approx(0.9, abs=0.05)
    assert s["claim"]
    assert not summarize(base, head, "higher", 0.1)["claim"]


@pytest.mark.parametrize("seed", range(5))
def test_scattered_a_a_ratios_claim_nothing(seed):
    base, head = _noisy_pairs(1.0, seed)
    for better in ("lower", "higher"):
        s = summarize(base, head, better, 0.1)
        low, _, high = s["ratio"]
        assert low < 1.0 < high and not s["claim"]


def test_the_interval_is_reproducible_and_brackets_the_median():
    base, head = _noisy_pairs(1.0, seed=7)
    first = compare.ratio_interval(base, head)
    assert compare.ratio_interval(base, head) == first
    low, ratio, high = first[1], first[0], first[2]
    ratios = np.array(head) / np.array(base)
    assert ratio == np.median(ratios)
    assert ratios.min() <= low <= ratio <= high <= ratios.max()


def test_identical_pairs_have_a_point_interval_at_one():
    assert compare.ratio_interval(BASE, BASE) == (1.0, 1.0, 1.0)


def _line(correct, failed, attempted):
    return {"correct": correct, "failed": failed, "attempted": attempted, "metrics": {}}


def test_side_summary_gives_the_median_attempted_ops():
    """Each tree's line carries the median op count of its runs, so a
    metric that grows with it (``simulate_grid``'s peak RSS) can be read
    against it."""
    lines = [_line(True, 0, 1454), _line(True, 0, 1620), _line(False, 2, 1301)]
    assert compare.side_summary("base", lines) == (
        "  base: 2 of 3 runs correct, 2 failed ops, median 1454 ops attempted")
    even = [_line(True, 0, 1000), _line(True, 0, 1001)]
    assert compare.side_summary("head", even).endswith("median 1000.5 ops attempted")


def _args(base="HEAD~1"):
    return argparse.Namespace(workload="simulate_grid", base=base, pairs=10, seed=0)


def test_header_names_both_commits():
    """The summary names the commit BASE resolves to and the head commit,
    so a paired-run number can be traced to exactly what it compared."""
    assert compare.header(_args(), 30, "a" * 40, "b" * 40, dirty=False) == (
        f"simulate_grid: base HEAD~1 ({'a' * 40}) against the working tree at {'b' * 40} "
        "(head), 10 pairs, seed 0, 30 s runs")


def test_header_marks_uncommitted_changes():
    line = compare.header(_args("main"), 2.5, "a" * 40, "b" * 40, dirty=True)
    assert f"at {'b' * 40} + uncommitted changes (head)" in line
    assert line.startswith(f"simulate_grid: base main ({'a' * 40})")
    assert line.endswith("2.5 s runs")


def test_sigterm_removes_the_temporary_tree():
    """``main``'s SIGTERM handler exits by ``SystemExit(143)``, so the
    exported base tree's ``TemporaryDirectory`` is removed."""
    old = signal.signal(signal.SIGTERM, compare.exit_on_signal)
    try:
        with pytest.raises(SystemExit) as info:
            with tempfile.TemporaryDirectory(prefix="compare-base-") as tmp:
                os.kill(os.getpid(), signal.SIGTERM)
        assert info.value.code == 143
        assert not os.path.exists(tmp)
    finally:
        signal.signal(signal.SIGTERM, old)
