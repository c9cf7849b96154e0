"""Tests of the benchmark itself: ``python -m pytest bench``."""

import json

import pytest

import run
from tracing import Span, Tracer, per_op_totals, self_times


def test_self_times_on_a_hand_built_tree():
    # op [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and
    # c [8, 12] (sticking out of the parent); a has child d [2, 3].
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),
        Span("c", 8.0, 12.0, 0, 0),
        Span("d", 2.0, 3.0, 1, 0, {"samples": 5}),
        Span("op", 20.0, 21.0, None, 5),
        Span("d", 20.5, 20.75, 5, 5, {"samples": 7}),
    ]
    # op: 10 - |[1, 6] U [8, 10]| = 10 - 7
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0, 0.75, 0.25])
    totals = per_op_totals(spans)
    assert totals[0]["d"] == {"self_s": pytest.approx(1.0), "calls": 1, "samples": 5}
    assert totals[5]["op"]["self_s"] == pytest.approx(0.75)
    assert totals[5]["d"]["samples"] == 7


def test_missing_site_drops_its_span_without_error():
    import types
    import sys

    module = types.ModuleType("bench_fake_site")
    module.present = lambda x: x + 1
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        tracer.install([
            ("bench_fake_site", "present", "fake.present", None),
            ("bench_fake_site", "deleted", "fake.deleted", None),
            ("bench_no_such_module", "gone", "fake.gone", None),
        ])
        assert tracer.op(lambda: module.present(1)) == 2
        tracer.uninstall()
        assert module.present(1) == 2 and not hasattr(module.present, "__wrapped__")
    finally:
        del sys.modules[module.__name__]
    assert [s.name for s in tracer.spans] == ["op", "fake.present"]
    assert tracer.spans[1].parent == 0 and tracer.spans[1].op == 0
    assert tracer.missing == ["bench_fake_site.deleted", "bench_no_such_module.gone"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["detect_dense", "cli_empirical", "simulate_grid"])
def test_smoke_run_at_tiny_size(workload, trace):
    line, record = run.run(workload, seed=1, seconds=0.05, trace=trace, tiny=True, probes=0)
    manifest = run.load_manifest()
    expected = [m["name"] for m in manifest["per_layer" if trace else "end_to_end"]]
    assert line["correct"], record["problems"]
    assert line["failed"] == 0 and line["attempted"] >= (2 if trace else 1)
    assert list(line["metrics"]) == expected
    assert all(isinstance(m["value"], float) for m in line["metrics"].values())
    assert record["known_defect"]["exit_code"] in (0, 3)
    json.dumps(record)
    if trace:
        layers = {k: v["value"] for k, v in line["metrics"].items()}
        assert layers["detect.smooth.calls"] >= 1
        assert layers["detect.candidates"] > 0
        assert "stemcpd.pipeline.smooth" in record["extra"]["missing_sites"]
