"""The stemcpd benchmark.

    python3 bench/run.py --workload detect_dense --seed 0 --seconds 30 --trace 0

Runs one workload (listed with its reasons in ``BENCHMARK.json`` and
``bench/workloads.py``) as a closed loop for ``--seconds`` seconds from a
single-threaded process, checks every operation's output, prints every
metric by name and unit, writes a results file under ``bench/out/`` and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced operations and reports the per-layer
metrics from the traced ones, plus the tracing overhead.

The package is imported from ``src/`` of the checkout this file sits in;
without it the run exits with code 1 and prints no result.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: Seeds recorded in reference.json; other seeds are checked for
#: determinism, and the recorded seed 0 input is checked once per run.
REFERENCE = BENCH / "reference.json"
REFERENCE_SEEDS = range(32)
#: Fresh-interpreter set-ups per end-to-end run, besides the run's own.
SETUP_PROBES = 2


def load_manifest():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_package():
    """Import stemcpd from this checkout's ``src/``; return the import time."""
    src = ROOT / "src"
    if not (src / "stemcpd" / "__init__.py").is_file():
        raise SystemExit(f"bench/run.py: no package source at {src / 'stemcpd'}")
    sys.path.insert(0, str(src))
    start = perf_counter()
    import stemcpd
    elapsed = perf_counter() - start
    if Path(stemcpd.__file__).resolve().parent != (src / "stemcpd").resolve():
        raise SystemExit(f"bench/run.py: stemcpd was imported from {stemcpd.__file__}")
    return elapsed


def setup_probe(workload, seed):
    """Time one fresh set-up: ``import stemcpd`` plus the warm-up operation
    (input generation excluded).  Runs in a child interpreter."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run_once(workload, seed):
    """Make ``seed``'s inputs, run one op and check it: (summary, problems)."""
    workload.prepare(seed, str(OUT))
    try:
        return workload.check(workload.op())
    finally:
        workload.close()


def measure(workload, seconds, tracer=None, sites=()):
    """Run operations back to back until ``seconds`` have passed.

    With a tracer, every second operation is traced (and at least one is).
    Returns the timing and check records of the loop.
    """
    from workloads import FAILURES

    rec = {"untraced": [], "traced": [], "attempted": 0, "failed": 0,
           "problems": [], "summaries": []}
    deadline = perf_counter() + seconds
    while True:
        traced = tracer is not None and rec["attempted"] % 2 == 1
        rec["attempted"] += 1
        # Start every op from a collected heap, so its garbage-collection
        # work does not depend on what earlier ops or checks left behind.
        gc.collect()
        if traced:
            tracer.install(sites)
        try:
            start = perf_counter()
            out = tracer.op(workload.op) if traced else workload.op()
            elapsed = perf_counter() - start
        except FAILURES as exc:
            rec["failed"] += 1
            rec["problems"].append(f"op {rec['attempted']} failed: {exc}")
            out = None
        finally:
            if traced:
                tracer.uninstall()
        if out is not None:
            rec["traced" if traced else "untraced"].append(elapsed)
            summary, found = workload.check(out)
            rec["summaries"].append(summary)
            rec["problems"].extend(found)
            del out
        if perf_counter() >= deadline and rec["attempted"] >= (2 if tracer else 1):
            return rec


def layer_metrics(names, tracer, rec):
    """Per-layer metrics from the traced operations' spans.

    ``<span>.self_s`` and ``<span>.calls`` are medians over traced
    operations of the per-operation totals; the rates and ratios divide
    sums over all traced operations.
    """
    from tracing import per_op_totals

    totals = per_op_totals(tracer.spans)
    ops = [totals[i] for i, s in enumerate(tracer.spans) if s.name == "op" and s.op == i]

    def per_op(span, key):
        return statistics.median(op.get(span, {}).get(key, 0) for op in ops) if ops else 0.0

    def total(span, key):
        return sum(op.get(span, {}).get(key, 0) for op in ops)

    def ratio(num, den):
        return num / den if den else 0.0

    detect = "pipeline.detect_change_points"
    tail, invert = "inference.peak_height_tail", "inference.invert_peak_height_tail"
    inversions = {i for i, s in enumerate(tracer.spans) if s.name == invert}
    inside = sum(1 for s in tracer.spans if s.name == tail and s.parent in inversions)
    untraced, traced = rec["untraced"], rec["traced"]
    derived = {
        "detect.smooth.samples_per_s":
            ratio(total("detect.smooth", "samples"), total("detect.smooth", "self_s")),
        "detect.candidates": per_op(detect, "candidates"),
        "detect.candidate_null_ratio":
            ratio(total(detect, "candidates"), total(detect, "null_expected")),
        "multitest.rejections": per_op(detect, "rejections"),
        "multitest.rejection_ratio":
            ratio(total(detect, "rejections"), total(detect, "candidates")),
        "inference.tail_calls_per_inversion": ratio(inside, len(inversions)),
        "trace.overhead_s":
            statistics.median(traced) - statistics.median(untraced) if traced and untraced else 0.0,
    }
    out = {}
    for name in names:
        span, _, key = name.rpartition(".")
        out[name] = derived[name] if name in derived else per_op(span, key)
    return out


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy
    import scipy
    return {"platform": platform.platform(), "cpu": model, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def check_reference(name, seed, summary):
    """Compare with the outputs recorded from the seed commit.  A seed
    without a record checks the recorded seed 0 input once instead."""
    import workloads

    with open(REFERENCE) as fh:
        recorded = json.load(fh)[name]
    if str(seed) in recorded:
        return {"seed": seed, "ok": workloads.make(name).matches(summary, recorded[str(seed)])}
    workload = workloads.make(name)
    try:
        got, found = run_once(workload, 0)
    except workloads.FAILURES:
        return {"seed": 0, "ok": False}
    return {"seed": 0, "ok": not found and workload.matches(got, recorded["0"])}


def run(name, seed, seconds, trace, tiny=False, probes=SETUP_PROBES):
    """One benchmark run; returns the result line and the results record."""
    import_s = import_package()
    import workloads
    from tracing import Tracer

    manifest = load_manifest()
    if name not in [w["name"] for w in manifest["workloads"]]:
        raise SystemExit(f"bench/run.py: unknown workload {name!r}")
    OUT.mkdir(exist_ok=True)
    workload = workloads.make(name, tiny)
    workload.prepare(seed, str(OUT))
    try:
        start = perf_counter()
        try:
            first = workload.op()
        except workloads.FAILURES as exc:
            first, problems = None, [f"warm-up op failed: {exc}"]
        warmup_s = perf_counter() - start
        first_summary = None
        if first is not None:
            first_summary, problems = workload.check(first)
            del first
        defect = workloads.known_defect(str(OUT))
        tracer = Tracer() if trace else None
        rec = measure(workload, seconds, tracer, workloads.SITES)
        # Read before the reference check below, which may run a second input.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        workload.close()
    if first_summary is None:
        reference = {"seed": seed, "ok": False}
    elif tiny:
        reference = {"seed": None, "ok": True}
    else:
        reference = check_reference(name, seed, first_summary)

    problems = problems + rec["problems"]
    if not reference["ok"]:
        problems.append(f"outputs differ from the reference for seed {reference['seed']}")
    if first_summary is not None and any(
            not workload.matches(s, first_summary) for s in rec["summaries"]):
        problems.append("outputs differ between operations on the same input")
    ok_ops = len(rec["untraced"]) + len(rec["traced"])
    correct = not problems and ok_ops > 0

    untraced, traced = rec["untraced"], rec["traced"]
    extra = {"failed_frac": rec["failed"] / rec["attempted"], "ops_untraced": len(untraced),
             "ops_traced": len(traced)}
    if untraced:
        extra["latency_min_s"] = min(untraced)
    if len(untraced) >= 100:
        extra["latency_p90_s"] = statistics.quantiles(untraced, n=10)[-1]
    if trace:
        names = [m["name"] for m in manifest["per_layer"]]
        units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        values = layer_metrics(names, tracer, rec)
        if traced and untraced:
            extra["traced_p50_s"] = statistics.median(traced)
            extra["untraced_p50_s"] = statistics.median(untraced)
        extra["missing_sites"] = tracer.missing
    else:
        names = [m["name"] for m in manifest["end_to_end"]]
        units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
        setups = [import_s + warmup_s] + [setup_probe(name, seed) for _ in range(probes)]
        values = {
            "latency_p50_s": statistics.median(untraced) if untraced else 0.0,
            "throughput_samples_per_s":
                workload.samples_per_op * len(untraced) / sum(untraced) if untraced else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        extra["setup_samples_s"] = setups
    metrics = {n: {"value": float(values[n]), "unit": units[n]} for n in names}
    line = {"correct": correct, "attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine(), "threads_env": os.environ.get("STEMCPD_THREADS"),
              "samples_per_op": workload.samples_per_op, "warmup_s": warmup_s,
              "reference": reference, "problems": problems[:20], "known_defect": defect,
              "extra": extra, "op_seconds": {"untraced": untraced, "traced": traced},
              **line}
    if trace:
        spans = OUT / f"spans_{name}_seed{seed}.jsonl"
        tracer.write(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
    return line, record


def print_table(record):
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"ops {record['attempted']} ({record['failed']} failed)  "
          f"{record['samples_per_op']} samples/op")
    for name, m in record["metrics"].items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    for name, value in record["extra"].items():
        print(f"  {name:42s} {value}")
    d = record["known_defect"]
    print(f"known defect: default `stemcpd detect` (empirical moments) on the paper staircase "
          f"n=12000, jump 3, gamma 6 exits {d['exit_code']}"
          f"{' (' + d['stderr'] + ')' if d['stderr'] else ''}; "
          f"fsum of order-2 weights at gamma 6 = {d['order2_weight_sum_gamma6']:.3g}")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")


def record_reference():
    """Write reference.json from the current program (seed commit only)."""
    import_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    blocks = []
    for name in [w["name"] for w in load_manifest()["workloads"]]:
        lines = []
        for seed in REFERENCE_SEEDS:
            summary, found = run_once(workloads.make(name), seed)
            if found:
                raise SystemExit(f"{name} seed {seed}: {found}")
            lines.append(f'    "{seed}": {json.dumps(summary)}')
        blocks.append(f'  "{name}": {{\n' + ",\n".join(lines) + "\n  }")
    with open(REFERENCE, "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite bench/reference.json from the current program")
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("STEMCPD_THREADS", None)
    if args.record_reference:
        record_reference()
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if args.setup_probe:
        import_s = import_package()
        import workloads

        OUT.mkdir(exist_ok=True)
        w = workloads.make(args.workload)
        w.prepare(args.seed, str(OUT))
        start = perf_counter()
        try:
            w.op()
        except workloads.FAILURES:
            pass  # the run itself reports failed ops
        finally:
            w.close()
        print(json.dumps({"setup_s": import_s + perf_counter() - start}))
        return 0
    line, record = run(args.workload, args.seed, args.seconds, args.trace)
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print_table(record)
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
