"""Paired runs of the benchmark: a base commit against the working tree.

    python3 tools/compare.py BASE --workload cli_empirical --pairs 10

BASE's committed files are exported with ``git archive`` into a temporary
directory, which is removed at the end, also when the script is stopped
with SIGTERM.  Each of the K pairs runs
``bench/run.py --trace 0`` once in each tree, each run in a fresh process,
and the tree that runs first alternates from pair to pair.  Both trees run
the same workload and seed for ``run_seconds`` of ``BENCHMARK.json``, and
each run imports the package from its own tree.

The summary's first line names the workload, the commit BASE resolves to
and the commit the working tree is at when the script starts, with "+
uncommitted changes" when ``git status --porcelain`` then lists any change.
Each tree's line gives its correct runs, its failed operations and the
median number of operations a run attempted, which a per-run metric such
as ``simulate_grid``'s ``peak_rss_mb`` grows with.  For each end-to-end
metric in ``BENCHMARK.json`` the script then prints both trees' medians
and quartiles, the pairs the working tree wins (ties count for neither),
the change of the median and whether it stays within the metric's bound,
the median of the per-pair ratios head/base with a 95% bootstrap interval
of that median (the pairs resampled with replacement, from a fixed seed),
and whether a gain may be claimed: the working tree wins at least nine
tenths of at least ten pairs, its median is better than the base median
by more than the base runs' interquartile range, and the ratio's interval
lies wholly on the metric's better side of 1.
"""

import argparse
import json
import math
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

#: Bootstrap resamples of the pairs, and the seed that draws them.
RESAMPLES = 10_000
BOOTSTRAP_SEED = 0


def ratio_interval(base, head):
    """The median of the per-pair ratios ``head[i]/base[i]`` and a 95%
    bootstrap interval of that median, as ``(median, low, high)``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.asarray(head, dtype=float) / np.asarray(base, dtype=float)
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    picks = rng.integers(len(ratios), size=(RESAMPLES, len(ratios)))
    low, high = np.percentile(np.median(ratios[picks], axis=1), [2.5, 97.5]).tolist()
    return float(np.median(ratios)), low, high


def summarize(base, head, better: str, bound: float) -> dict:
    """Compare one metric over paired runs: ``base[i]`` and ``head[i]`` are
    pair i's values, ``better`` is "lower" or "higher", and ``bound`` is the
    fraction of the base median by which the head's median may be worse."""
    sign = 1.0 if better == "lower" else -1.0
    ratio, low, high = ratio_interval(base, head)
    b = np.percentile(base, [25, 50, 75]).tolist()
    h = np.percentile(head, [25, 50, 75]).tolist()
    pairs = len(base)
    wins = sum(sign * (x - y) > 0 for x, y in zip(base, head))
    gain = sign * (b[1] - h[1])  # positive when the head's median is better
    return {
        "base": b,
        "head": h,
        "wins": wins,
        "pairs": pairs,
        "change": (h[1] - b[1]) / b[1] if b[1] else math.nan,
        "within_bound": -gain <= bound * abs(b[1]),
        "ratio": [low, ratio, high],
        "claim": (pairs >= 10 and 10 * wins >= 9 * pairs and gain > b[2] - b[0]
                  and (high < 1.0 if better == "lower" else low > 1.0)),
    }


def side_summary(side: str, lines) -> str:
    """One tree's line: its correct runs, failed operations and median
    attempted operations, from the result lines of its runs."""
    correct = sum(line["correct"] for line in lines)
    failed = sum(line["failed"] for line in lines)
    attempted = np.median([line["attempted"] for line in lines])
    return (f"  {side}: {correct} of {len(lines)} runs correct, {failed} failed ops, "
            f"median {attempted:g} ops attempted")


def git(*argv: str) -> str:
    """The stripped output of ``git argv`` in this repository."""
    return subprocess.run(["git", "-C", str(ROOT), *argv], check=True, capture_output=True,
                          text=True).stdout.strip()


def header(args, seconds: float, base_commit: str, head_commit: str, dirty: bool) -> str:
    """The summary's first line: the workload, BASE and the commit it
    resolves to, the head commit (with "+ uncommitted changes" when
    ``dirty``), and the pairs, seed and run length."""
    head = head_commit + (" + uncommitted changes" if dirty else "")
    return (f"{args.workload}: base {args.base} ({base_commit}) against the working tree at "
            f"{head} (head), {args.pairs} pairs, seed {args.seed}, {seconds:g} s runs")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run of ``tree``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"compare.py: bench/run.py in {tree} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def export(rev: str, dest: Path) -> None:
    """Write the files of commit ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def exit_on_signal(signum, frame):
    """A signal handler that exits as the shell reports a stopped process,
    by an exception, so that ``with`` blocks clean up."""
    raise SystemExit(128 + signum)


def _fmt(q, spec=".6g") -> str:
    return f"{q[1]:{spec}} [{q[0]:{spec}}, {q[2]:{spec}}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the commit to compare the working tree against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    # TemporaryDirectory cleans up on an exception, not on a signal's default action
    signal.signal(signal.SIGTERM, exit_on_signal)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = manifest["run_seconds"]
    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    title = header(args, seconds, base_commit, git("rev-parse", "HEAD"),
                   bool(git("status", "--porcelain")))
    runs = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="compare-base-") as tmp:
        export(base_commit, Path(tmp))
        trees = {"base": Path(tmp), "head": ROOT}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_bench(trees[side], args.workload, args.seed, seconds))
            values = "  ".join(f"{m}: {runs['base'][-1]['metrics'][m]['value']:.6g} -> "
                               f"{runs['head'][-1]['metrics'][m]['value']:.6g}"
                               for m in runs["head"][-1]["metrics"])
            print(f"pair {i + 1} ({order[0]} first)  {values}", flush=True)
    print(f"\n{title}")
    for side, lines in runs.items():
        print(side_summary(side, lines))
    print(f"  {'metric':26s} {'base median [q1, q3]':38s} {'head median [q1, q3]':38s} "
          f"{'wins':>6s} {'change':>8s}  within bound  {'head/base [95% interval]':30s} claim")
    for metric in manifest["end_to_end"]:
        name = metric["name"]
        s = summarize([line["metrics"][name]["value"] for line in runs["base"]],
                      [line["metrics"][name]["value"] for line in runs["head"]],
                      metric["better"], metric["bound"])
        print(f"  {name:26s} {_fmt(s['base']):38s} {_fmt(s['head']):38s} "
              f"{s['wins']:>3d}/{s['pairs']:<2d} {s['change']:+8.2%}  "
              f"{'yes' if s['within_bound'] else 'NO':12s}  {_fmt(s['ratio'], '.4f'):30s} "
              f"{'yes' if s['claim'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
