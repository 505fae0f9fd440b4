"""Self-tests of the pipeline benchmark.

Run explicitly: ``python -m pytest benchmarks/pipeline`` (the tier-1 suite
collects ``tests/`` only).
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench  # noqa: E402
import calibrate  # noqa: E402
import workloads  # noqa: E402
from repro import obs  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402


def _span(span_id, parent_id, start, end):
    return {"name": span_id, "span_id": span_id, "parent_id": parent_id,
            "trace_id": "t", "start": start, "end": end}


def test_self_time_subtracts_the_union_of_children():
    spans = [_span("root", None, 0.0, 10.0),
             _span("a", "root", 1.0, 3.0),
             _span("b", "root", 2.0, 5.0),     # overlaps a
             _span("c", "root", 6.0, 7.0),
             _span("c1", "c", 6.2, 6.5),       # grandchild
             _span("d", "root", 9.5, 11.0)]    # sticks out of root
    got = self_times(spans)
    # root's children cover [1,5] + [6,7] + [9.5,10] = 5.5 s
    assert got["root"] == pytest.approx(4.5)
    assert got["a"] == pytest.approx(2.0)
    assert got["c"] == pytest.approx(0.7)
    assert got["c1"] == pytest.approx(0.3)
    assert got["d"] == pytest.approx(1.5)


def test_recorder_nests_spans_and_records_counter_deltas():
    rec = SpanRecorder(prefix="w:")
    counters = {"k": 1}
    with rec.span("root", trace_id="t1"):
        with rec.span("child", counters=counters):
            counters["k"] += 4
            counters["new"] = 2
    root, child = rec.spans
    assert (root["span_id"], child["parent_id"]) == ("w:1", "w:1")
    assert child["trace_id"] == "t1"
    assert child["counters"] == {"k": 4, "new": 2}
    assert root["start"] <= child["start"] <= child["end"] <= root["end"]
    with pytest.raises(ValueError):
        with rec.span("orphan"):
            pass


A_TIGHT = [10.0, 10.1, 10.2, 10.1, 10.0]


@pytest.mark.parametrize("a, b, better, want", [
    (A_TIGHT, [10.1, 10.0, 10.2, 10.1, 10.2], "lower", "same"),
    (A_TIGHT, [8.0, 8.1, 8.0, 8.2, 8.1], "lower", "better"),
    (A_TIGHT, [12.0, 12.1, 12.0, 12.2, 12.1], "lower", "worse"),
    (A_TIGHT, [12.0, 12.1, 12.0, 12.2, 12.1], "higher", "better"),
    # B's quartiles are wider than the bound: no verdict...
    (A_TIGHT, [9.0, 13.0, 7.0, 12.0, 10.0], "lower", "unresolved"),
    # ...unless every rep of B beats every rep of A
    ([10.0, 14.0, 12.0, 13.0, 11.0], [6.0, 9.0, 7.0, 8.5, 5.0], "lower",
     "better"),
])
def test_compare_verdicts(a, b, better, want):
    ma, mb = bench.stat(a, "s"), bench.stat(b, "s")
    assert bench.verdict(ma, mb, bound=0.1, better=better) == want


def test_compare_gives_one_row_per_metric_and_workload():
    spec = bench.load_json(bench.SPEC_PATH)
    metrics = {e["name"]: bench.stat([1.0, 1.0], e["unit"])
               for e in spec["end_to_end"]}
    result = {"workloads": {w: {"metrics": metrics}
                            for w in bench.WORKLOADS}}
    rows = bench.compare_rows(result, result, spec)
    assert len(rows) == len(bench.WORKLOADS) * len(spec["end_to_end"])
    assert {row[-1] for row in rows} == {"same"}


def test_benchmark_json_units_follow_metric_names():
    spec = bench.load_json(bench.SPEC_PATH)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert bench.unit_of(entry["name"]) == entry["unit"], entry


def test_corrupted_pin_fails_the_cell_and_the_run_goes_on(tmp_path):
    wl = workloads.Generate(str(tmp_path), cells=[("ring", 4)])
    pinning = workloads.Checker("generate", {}, strict=False)
    workloads.measure(wl, seed=0, seconds=0, trace=False, checker=pinning)
    assert pinning.failed == 0
    pins = pinning.pins
    pins["ring-np4"]["source_sha256"] = "0" * 64

    checker = workloads.Checker("generate", pins)
    out = workloads.measure(wl, seed=0, seconds=0, trace=False,
                            checker=checker)
    assert 0 < checker.failed < checker.attempted
    assert checker.failures[0].startswith(
        "FAIL generate ring-np4: source_sha256 ")
    assert len(out["reps_raw"]) == 1


def test_traced_stages_match_full_pipeline(tmp_path):
    wl = workloads.PipelineCold(str(tmp_path), apps=("lu",), nranks=4)
    timed = wl.run_cell("lu", calibrate.Clock())
    rec, inst = SpanRecorder(), obs.Instrumentation()
    with obs.instrumented(inst):
        traced = wl.trace_cell("lu", rec, inst)
    assert traced == {"lu": timed}
    assert [s["name"] for s in rec.spans] == [
        "cell", "scalatrace.trace", "generator.align", "generator.resolve",
        "generator.emit", "conceptual.compile", "conceptual.run", "sim.app"]
    layers, _ = workloads.layer_metrics(rec.spans)
    assert layers["trace.coverage_ratio"] > 0.95
    assert layers["generator.wildcards_resolved"] > 0
    assert layers["pipeline.cache_hit_ratio"] == 0
    assert layers["conceptual.run_steps"] > 0
