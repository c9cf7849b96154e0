"""The benchmark's import-site spans still find the package's functions.

``bench/tracing.py`` wraps the functions named in ``bench/workloads.py``'s
``SITES`` where their callers look them up, and skips a site that no
longer exists, so a rename in ``src/`` drops a per-layer metric without
failing a run.  These tests run each workload once at its tiny size under
the tracer and pin the stale sites and the recorded span names.

The pins move with the benchmark: ROADMAP item 2 rewrites the stale sites,
and item 16 replaces the import-site tracer with spans recorded by the
library itself.
"""

import importlib.util
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")

#: Sites in ``SITES`` whose function is no longer looked up there.
STALE_SITES = [
    "stemcpd.harness.compose",
    "stemcpd.harness.detect_change_points",
    "stemcpd.pipeline.smooth_derivative",
    "stemcpd.pipeline.smooth",
    "stemcpd.pipeline.with_height_threshold",
]

#: The span names one tiny operation of each workload records: 10, 13 and 14.
SPANS = {
    "detect_dense": {
        "op", "pipeline.detect_change_points", "detect.smooth", "kernels.kernel_weights",
        "detect.find_local_extrema", "inference.closed_form_moments",
        "inference.assign_pvalues", "inference.invert_peak_height_tail",
        "inference.peak_height_tail", "multitest.bh_select",
    },
    "cli_empirical": {
        "op", "cli.main", "cli.read_sequence_csv", "pipeline.detect_change_points",
        "detect.smooth", "kernels.kernel_weights", "detect.find_local_extrema",
        "inference.estimate_moments_empirical", "inference.assign_pvalues",
        "inference.invert_peak_height_tail", "inference.peak_height_tail",
        "multitest.bh_select", "cli.write_detection_csv",
    },
    "simulate_grid": {
        "op", "harness.run_simulation", "harness.run_replicate", "signals.make_staircase",
        "signals.sample_noise", "detect.smooth", "kernels.kernel_weights",
        "detect.find_local_extrema", "inference.assign_pvalues",
        "inference.invert_peak_height_tail", "inference.peak_height_tail",
        "multitest.bh_select", "evaluation.classify", "evaluation.aggregate",
    },
}


@pytest.mark.parametrize("name", sorted(SPANS))
def test_tiny_op_records_the_pinned_spans(name, tmp_path):
    workload = workloads.make(name, tiny=True)
    tracer = tracing.Tracer()
    try:
        workload.prepare(1, str(tmp_path))
        tracer.install(workloads.SITES)
        tracer.op(workload.op)
    finally:
        tracer.uninstall()
        workload.close()
    assert tracer.missing == STALE_SITES
    assert {span.name for span in tracer.spans} >= SPANS[name]
