"""Tests for the benchmark's own measurement helpers (no server needed)."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibration  # noqa: E402
import measures  # noqa: E402
import spans  # noqa: E402


def test_percentile_nearest_rank_and_sample_count():
    values = list(range(1, 201))  # 1..200
    assert measures.percentile(values, 50) == 100
    assert measures.percentile(values, 99) == 198
    assert measures.percentile(values, 100) == 200
    assert measures.percentile([7.0], 99) == 7.0
    summary = measures.latency_summary([float(v) for v in values])
    assert summary["count"] == 200
    assert summary["p50_ms"] == 100
    assert summary["p99_ms"] == 198
    assert summary["beyond_tail"] == 2
    assert summary["mean_ms"] == pytest.approx(100.5)
    p90 = measures.latency_summary([float(v) for v in values], tail=90)
    assert p90["p90_ms"] == 180 and p90["beyond_tail"] == 20
    assert "p99_ms" not in p90
    with pytest.raises(ValueError):
        measures.percentile([], 50)


def test_normalization_arithmetic_is_invertible():
    ref = calibration.REF_CAL_S
    # A host twice as slow as the reference: durations halve, rates double.
    assert calibration.normalize_time(4.0, 2 * ref) == pytest.approx(2.0)
    assert calibration.normalize_rate(100.0, 2 * ref) == pytest.approx(200.0)
    # A duration and its rate normalize consistently.
    raw_s, cal = 0.37, 0.031
    assert calibration.normalize_rate(1 / raw_s, cal) == pytest.approx(
        1 / calibration.normalize_time(raw_s, cal)
    )
    b = calibration.Bracket()
    b.raw_s, b.cal_before_s, b.cal_after_s = 3.0, 0.02, 0.04
    rec = b.record()
    assert rec["cal_s"] == pytest.approx(0.03)
    assert rec["normalized_s"] == pytest.approx(3.0 * ref / 0.03)
    # The record keeps what undoes the scaling.
    assert rec["normalized_s"] * rec["cal_s"] / rec["ref_cal_s"] == pytest.approx(rec["raw_s"])


class _FakeCalibrator:
    def __init__(self, times):
        self.times = list(times)

    def measure(self):
        return self.times.pop(0)


def test_bracket_shares_windows_and_keeps_a_reported_raw_time():
    cal = _FakeCalibrator([0.02, 0.04, 0.06])
    with calibration.bracket(cal) as first:
        pass
    assert first.raw_s >= 0.0
    assert (first.cal_before_s, first.cal_after_s) == (0.02, 0.04)
    with calibration.bracket(cal, first) as second:
        second.raw_s = 1.5  # a child process timed its own work
    assert second.raw_s == 1.5
    assert (second.cal_before_s, second.cal_after_s) == (0.04, 0.06)


def test_calibrator_measures_on_every_cpu_and_stops():
    with calibration.Calibrator() as cal:
        assert 0.0 < cal.measure(window_s=0.01) < 5.0
        procs = list(cal._procs)
    assert procs and all(p.poll() is not None for p in procs)


SMAPS_ROLLUP = """\
55d0c0a4e000-7ffd5b9f5000 ---p 00000000 00:00 0                          [rollup]
Rss:               81236 kB
Pss:               40510 kB
Pss_Anon:          30001 kB
Pss_File:          10509 kB
Shared_Clean:      46000 kB
"""


def test_pss_parser_reads_the_pss_line_only():
    assert measures.read_pss_kb(SMAPS_ROLLUP) == 40510
    with pytest.raises(ValueError):
        measures.read_pss_kb("Rss: 10 kB\n")


def test_pss_of_this_process_is_positive():
    assert measures.pss_mb([os.getpid()]) > 0.0


def _span(sid, start, end, parent=None):
    return spans.Span(sid, f"s{sid}", start, end, parent, None)


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 4.0, parent=0),  # overlaps span 1: union is 1..4
        _span(3, 8.0, 12.0, parent=0),  # runs past the parent: clipped to 8..10
        _span(4, 1.5, 2.5, parent=1),  # a grandchild is not the root's child
    ]
    selfs = spans.self_times(recorded)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    totals = spans.totals_by_name(recorded)
    assert totals["s0"] == {"calls": 1, "total_s": 10.0, "self_s": pytest.approx(5.0)}


def test_recorder_nests_spans_and_instrument_wraps_generators():
    import types

    mod = types.ModuleType("repro_fake_layer")

    def leaf(x):
        return x + 1

    def blocks(n):
        for i in range(n):
            yield mod.leaf(i)

    mod.leaf, mod.blocks = leaf, blocks
    sys.modules[mod.__name__] = mod
    try:
        rec = spans.SpanRecorder()
        undo = spans.instrument(
            rec, {"leaf": (mod, "leaf"), "blocks": (mod, "blocks")},
            prefix="repro_fake",
        )
        with rec.span("outer", rid="r1"):
            assert list(mod.blocks(3)) == [1, 2, 3]
        undo()
        assert mod.leaf is leaf and mod.blocks is blocks
    finally:
        del sys.modules[mod.__name__]
    totals = spans.totals_by_name(rec.spans)
    # One span per generator step, plus the final exhausted step.
    assert totals["blocks"]["calls"] == 4
    assert totals["leaf"]["calls"] == 3
    by_id = {s.sid: s for s in rec.spans}
    outer = next(s for s in rec.spans if s.name == "outer")
    assert outer.rid == "r1"
    for s in rec.spans:
        if s.name == "blocks":
            assert s.parent == outer.sid
        if s.name == "leaf":
            assert by_id[s.parent].name == "blocks"


EXPOSITION_BEFORE = """\
# HELP repro_stage_duration_seconds Per-stage latency.
# TYPE repro_stage_duration_seconds histogram
repro_stage_duration_seconds_bucket{stage="parse",le="0.001"} 4
repro_stage_duration_seconds_bucket{stage="parse",le="+Inf"} 5
repro_stage_duration_seconds_sum{stage="parse"} 0.002
repro_stage_duration_seconds_count{stage="parse"} 5
repro_stage_duration_seconds_sum{stage="gather"} 0.010
repro_stage_duration_seconds_count{stage="gather"} 5
repro_request_duration_seconds_sum{mount="tz"} 0.5
repro_request_duration_seconds_count{mount="tz"} 5
"""

EXPOSITION_AFTER = """\
repro_stage_duration_seconds_sum{stage="parse"} 0.012
repro_stage_duration_seconds_count{stage="parse"} 15
repro_stage_duration_seconds_sum{stage="gather"} 0.030
repro_stage_duration_seconds_count{stage="gather"} 15
repro_stage_duration_seconds_sum{stage="park"} 0.004
repro_stage_duration_seconds_count{stage="park"} 2
repro_request_duration_seconds_sum{mount="tz"} 1.5
repro_request_duration_seconds_count{mount="tz"} 15
repro_request_duration_seconds_sum{mount="na"} 0.25
repro_request_duration_seconds_count{mount="na"} 1
"""


def test_histogram_delta_between_two_scrapes():
    d = measures.histogram_delta
    before, after = EXPOSITION_BEFORE, EXPOSITION_AFTER
    s, c = d(before, after, "repro_stage_duration_seconds", stage="parse")
    assert (s, c) == (pytest.approx(0.010), 10)
    # A child absent from the first scrape counts from zero.
    assert d(before, after, "repro_stage_duration_seconds", stage="park") == (
        pytest.approx(0.004), 2)
    # No label filter sums every child.
    s, c = d(before, after, "repro_request_duration_seconds")
    assert (s, c) == (pytest.approx(1.25), 11)
    assert d(before, after, "repro_request_duration_seconds", mount="na") == (
        pytest.approx(0.25), 1)
    assert d(before, after, "repro_missing_seconds") == (0.0, 0.0)


def test_end_to_end_reports_every_manifest_metric():
    import json

    import run

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["end_to_end"]}
    rec = {
        "setup": [{"normalized_s": 0.9}, {"normalized_s": 0.8}, {"normalized_s": 1.0}],
        "build": {"timing": {"normalized_s": 7.0}, "peak_rss_mb": 500.0},
        "artifact_bytes": 2**20,
        "serve_pss_mb": 90.0,
        "stretch_mean": 1.3,
    }
    values = run.end_to_end(rec)
    assert set(values) == declared
    assert values["setup_s"] == 0.9 and values["artifact_mb"] == 1.0
