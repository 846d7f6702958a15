"""The observability suite (ISSUE 9 acceptance).

Covers the telemetry layer end to end: the metrics registry's
instrument semantics and Prometheus text round-trip, the zero-overhead
disabled path (no allocations attributed to the metrics module),
request traces and their HTTP surface (``X-Request-Id`` echo, debug
span bodies), build-phase profiling through the round ledger, the
structured request log, and — against the real HTTP front end — the
accounting identity that ``/metrics`` deltas reconcile exactly with
what a client observed.
"""

import dataclasses
import json
import logging
import time
import tracemalloc
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro
from repro import oracle, telemetry
from repro.cliquesim.ledger import RoundLedger
from repro.graph import generators as gen
from repro.oracle import (
    DistanceOracle,
    FAULTS,
    OracleClient,
    OracleClientError,
    OracleRouter,
    OracleService,
    build_oracle,
    start_async_server,
)
from repro.telemetry import (
    REGISTRY,
    MetricsRegistry,
    RequestTrace,
    clean_trace_id,
    new_trace_id,
    parse_exposition,
    profile_build,
)
from repro.telemetry import metrics as metrics_mod
from repro.telemetry import profiling as profiling_mod
from repro.telemetry.logs import (
    SERVING_LOGGER,
    JsonFormatter,
    configure_logging,
    level_for_status,
)


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts disarmed and with zeroed counters; the global
    enable flag is restored afterwards (servers started by other suites
    may have turned it on for the process)."""
    was_enabled = metrics_mod.enabled()
    FAULTS.disarm()
    REGISTRY.reset()
    yield
    FAULTS.disarm()
    REGISTRY.reset()
    if was_enabled:
        metrics_mod.enable()
    else:
        metrics_mod.disable()


@pytest.fixture(scope="module")
def served_graph():
    return gen.make_family("er_sparse", 64, seed=7)


@pytest.fixture(scope="module")
def exact_artifact(served_graph):
    return build_oracle(
        served_graph, variant="exact", rng=np.random.default_rng(1)
    )


# ----------------------------------------------------------------------
# Registry: instruments, render, parse
# ----------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        metrics_mod.enable()
        reg = MetricsRegistry()
        c = reg.counter("t_total", "help", labelnames=("k",))
        c.labels("a").inc()
        c.labels("a").inc(2.0)
        g = reg.gauge("t_gauge", "help")
        g.labels().set(4.5)
        h = reg.histogram("t_seconds", "help", buckets=(0.1, 1.0))
        h.labels().observe(0.05)
        h.labels().observe(0.5)
        h.labels().observe(5.0)
        snap = parse_exposition(reg.render())
        assert snap.value("t_total", k="a") == 3.0
        assert snap.value("t_gauge") == 4.5
        hist = snap.histogram("t_seconds")
        assert hist["count"] == 3
        assert hist["buckets"]["0.1"] == 1
        assert hist["buckets"]["1"] == 2
        assert hist["buckets"]["+Inf"] == 3
        assert hist["sum"] == pytest.approx(5.55)

    def test_counter_rejects_negative_and_histogram_needs_buckets(self):
        metrics_mod.enable()
        reg = MetricsRegistry()
        c = reg.counter("neg_total", "help")
        with pytest.raises(ValueError):
            c.labels().inc(-1.0)
        with pytest.raises(ValueError):
            metrics_mod.Histogram("empty_seconds", "help", buckets=())
        with pytest.raises(ValueError):
            metrics_mod.Histogram(
                "unsorted_seconds", "help", buckets=(2.0, 1.0)
            )
        # A mismatched re-registration of an existing histogram's
        # buckets fails loudly instead of silently splitting series.
        reg.histogram("hb_seconds", "help", buckets=(0.5, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("hb_seconds", "help", buckets=(0.25, 1.0))

    def test_get_or_create_and_mismatch_fails_loudly(self):
        reg = MetricsRegistry()
        a = reg.counter("same_total", "help", labelnames=("x",))
        b = reg.counter("same_total", "help", labelnames=("x",))
        assert a is b
        with pytest.raises(ValueError):
            reg.counter("same_total", "help", labelnames=("y",))
        with pytest.raises(ValueError):
            reg.gauge("same_total", "help", labelnames=("x",))

    def test_disabled_registry_collects_nothing(self):
        metrics_mod.disable()
        reg = MetricsRegistry()
        c = reg.counter("dis_total", "help")
        c.labels().inc()
        h = reg.histogram("dis_seconds", "help", buckets=(1.0,))
        h.labels().observe(0.5)
        snap = parse_exposition(reg.render())
        assert snap.value("dis_total") == 0.0
        assert snap.histogram("dis_seconds")["count"] == 0

    def test_reset_zeroes_in_place(self):
        metrics_mod.enable()
        reg = MetricsRegistry()
        c = reg.counter("rst_total", "help")
        child = c.labels()
        child.inc(5)
        reg.reset()
        assert parse_exposition(reg.render()).value("rst_total") == 0.0
        child.inc()  # the same child object keeps working
        assert parse_exposition(reg.render()).value("rst_total") == 1.0

    def test_label_escaping_round_trips(self):
        metrics_mod.enable()
        reg = MetricsRegistry()
        c = reg.counter("esc_total", "help", labelnames=("v",))
        nasty = 'a"b\\c\nd'
        c.labels(nasty).inc()
        snap = parse_exposition(reg.render())
        assert snap.value("esc_total", v=nasty) == 1.0

    def test_function_gauge_evaluated_at_render(self):
        reg = MetricsRegistry()
        g = reg.gauge("fn_gauge", "help")
        box = {"v": 7.0}
        g.labels().set_function(lambda: box["v"])
        assert parse_exposition(reg.render()).value("fn_gauge") == 7.0
        box["v"] = 9.0
        assert parse_exposition(reg.render()).value("fn_gauge") == 9.0

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_exposition("this is not a metric\n")
        with pytest.raises(ValueError, match="malformed comment"):
            parse_exposition("# neither is this\n")

    def test_snapshot_total_and_delta(self):
        metrics_mod.enable()
        reg = MetricsRegistry()
        c = reg.counter("d_total", "help", labelnames=("m", "s"))
        c.labels("a", "200").inc(2)
        c.labels("a", "503").inc(1)
        before = parse_exposition(reg.render())
        c.labels("a", "200").inc(3)
        c.labels("b", "200").inc(4)
        after = parse_exposition(reg.render())
        delta = after.delta(before)
        assert delta.value("d_total", m="a", s="200") == 3.0
        assert delta.value("d_total", m="a", s="503") == 0.0
        assert delta.value("d_total", m="b", s="200") == 4.0
        assert delta.total("d_total") == 7.0
        assert delta.total("d_total", m="a") == 3.0


class TestDisabledOverhead:
    def test_disabled_service_path_allocates_nothing_in_metrics(
        self, exact_artifact
    ):
        """With telemetry off, a served request must not allocate inside
        the metrics module — the whole layer is one module-global branch
        (the DESIGN §9 overhead contract)."""
        metrics_mod.disable()
        service = OracleService(DistanceOracle(exact_artifact))
        service.handle({"u": 0, "v": 1})  # warm every lazy path
        filters = [
            tracemalloc.Filter(True, "*telemetry*metrics.py"),
            tracemalloc.Filter(True, "*telemetry*instruments.py"),
        ]
        tracemalloc.start()
        try:
            for i in range(50):
                status, _ = service.handle({"u": i % 8, "v": (i + 3) % 8})
                assert status == 200
            snapshot = tracemalloc.take_snapshot().filter_traces(filters)
        finally:
            tracemalloc.stop()
        leaked = sum(stat.size for stat in snapshot.statistics("filename"))
        assert leaked == 0


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------

class TestTrace:
    def test_new_trace_id_shape(self):
        a, b = new_trace_id(), new_trace_id()
        assert a != b
        assert len(a) == 16
        assert clean_trace_id(a) == a

    @pytest.mark.parametrize("raw", ["abc-123", "A.b:c_9", "x" * 64])
    def test_clean_accepts_valid(self, raw):
        assert clean_trace_id(raw) == raw

    @pytest.mark.parametrize(
        "raw", [None, "", "x" * 65, "has space", "bad\nnewline", "ünïcode"]
    )
    def test_clean_rejects_invalid(self, raw):
        assert clean_trace_id(raw) is None

    def test_record_accumulates_and_as_dict_rounds(self):
        t = RequestTrace(trace_id="t1", debug=True)
        t.record("gather", 0.001)
        t.record("gather", 0.002)
        with t.span("parse"):
            pass
        d = t.as_dict()
        assert d["id"] == "t1"
        assert d["spans_ms"]["gather"] == pytest.approx(3.0, abs=0.01)
        assert "parse" in d["spans_ms"]


# ----------------------------------------------------------------------
# Build profiling
# ----------------------------------------------------------------------

class TestBuildProfiling:
    def test_ledger_charges_mark_the_active_profiler(self):
        ledger = RoundLedger()
        with profile_build() as prof:
            time.sleep(0.01)
            ledger.charge(5.0, "phase-a")
            time.sleep(0.02)
            ledger.charge(3.0, "phase-b")
        assert profiling_mod.ACTIVE is None
        phases = prof.phases
        assert phases["phase-a"]["charges"] == 1
        assert phases["phase-b"]["charges"] == 1
        assert phases["phase-a"]["wall_s"] >= 0.009
        assert phases["phase-b"]["wall_s"] >= 0.019

    def test_charges_outside_a_block_cost_nothing(self):
        ledger = RoundLedger()
        ledger.charge(1.0, "free")  # no active profiler: plain append
        assert ledger.total == 1.0

    def test_phase_times_sum_to_total(self):
        ledger = RoundLedger()
        with profile_build() as prof:
            ledger.charge(1.0, "a")
            time.sleep(0.005)
        d = prof.as_dict()
        summed = sum(p["wall_s"] for p in d["phases"].values())
        assert summed == pytest.approx(d["total_wall_s"], abs=1e-3)
        assert profiling_mod.POST_PHASE in d["phases"]

    def test_nested_blocks_restore_the_outer(self):
        with profile_build() as outer:
            with profile_build() as inner:
                assert profiling_mod.ACTIVE is inner
            assert profiling_mod.ACTIVE is outer
        assert profiling_mod.ACTIVE is None

    def test_build_oracle_profile_lands_in_manifest(self, served_graph):
        artifact = build_oracle(
            served_graph, variant="near-additive",
            rng=np.random.default_rng(3), profile=True,
        )
        profile = artifact.manifest["build_profile"]
        assert profile["total_wall_s"] > 0
        assert profile["phases"]
        for slot in profile["phases"].values():
            assert slot["wall_s"] >= 0
        summed = sum(p["wall_s"] for p in profile["phases"].values())
        assert summed == pytest.approx(profile["total_wall_s"], abs=1e-2)
        # Without the flag the manifest stays clean.
        plain = build_oracle(
            served_graph, variant="exact", rng=np.random.default_rng(3)
        )
        assert "build_profile" not in plain.manifest

    def test_profile_survives_save_load(self, served_graph, tmp_path):
        artifact = build_oracle(
            served_graph, variant="exact",
            rng=np.random.default_rng(3), profile=True,
        )
        oracle.save_artifact(artifact, str(tmp_path / "prof"))
        loaded = oracle.load_artifact(str(tmp_path / "prof"))
        assert loaded.manifest["build_profile"]["total_wall_s"] > 0


# ----------------------------------------------------------------------
# Structured logs
# ----------------------------------------------------------------------

class TestLogs:
    def test_level_policy(self):
        assert level_for_status(200) == logging.DEBUG
        assert level_for_status(404) == logging.INFO
        assert level_for_status(503) == logging.WARNING

    def test_json_formatter_emits_parseable_records_with_extras(self):
        formatter = JsonFormatter()
        record = logging.LogRecord(
            SERVING_LOGGER, logging.INFO, __file__, 1,
            "query status=%d", (200,), None,
        )
        record.event = "request"
        record.trace_id = "abc"
        parsed = json.loads(formatter.format(record))
        assert parsed["msg"] == "query status=200"
        assert parsed["level"] == "info"
        assert parsed["event"] == "request"
        assert parsed["trace_id"] == "abc"
        assert parsed["ts"].endswith("Z")

    def test_configure_logging_is_idempotent(self, capsys):
        import io

        stream = io.StringIO()
        configure_logging("json", "info", stream=stream)
        configure_logging("json", "info", stream=stream)
        log = logging.getLogger(SERVING_LOGGER)
        log.info("one line", extra={"k": "v"})
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) == 1  # no duplicated handlers
        assert json.loads(lines[0])["k"] == "v"
        # Restore the silent default for the rest of the session.
        root = logging.getLogger("repro")
        for handler in list(root.handlers):
            root.removeHandler(handler)


# ----------------------------------------------------------------------
# HTTP surface: both front ends
# ----------------------------------------------------------------------

def _post(base, body, path="/query", timeout=5, headers=None):
    req = urllib.request.Request(
        base + path, data=json.dumps(body).encode(), headers=headers or {}
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def _get(base, path, timeout=5):
    with urllib.request.urlopen(base + path, timeout=timeout) as resp:
        return resp.status, resp.read().decode(), dict(resp.headers)


def _scrape(base):
    return parse_exposition(_get(base, "/metrics")[1])


class TestHTTPTelemetry:
    # The single param keeps the historical ``[async]`` test ids.
    @pytest.fixture(params=["async"])
    def server(self, request, exact_artifact):
        limits = dataclasses.replace(
            oracle.DEFAULT_LIMITS,
            max_inflight=8, retry_after_s=0.1, drain_timeout_s=5.0,
            coalesce_window_ms=1.0,
        )
        router = OracleRouter()
        router.mount("exact", DistanceOracle(exact_artifact), limits=limits)
        handle = start_async_server(router, port=0, limits=limits)
        base = "http://%s:%s" % handle.server_address[:2]
        try:
            yield request.param, base
        finally:
            handle.drain_and_shutdown()

    def test_metrics_endpoint_parses_and_counts(self, server):
        frontend, base = server
        before = _scrape(base)
        for i in range(5):
            status, _, _ = _post(base, {"u": i, "v": i + 1}, path="/query/exact")
            assert status == 200
        status, text, headers = _get(base, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        delta = parse_exposition(text).delta(before)
        assert delta.value(
            "repro_requests_total", mount="exact", status="200"
        ) == 5.0
        hist = delta.histogram(
            "repro_request_duration_seconds", mount="exact"
        )
        assert hist["count"] == 5
        assert delta.histogram(
            "repro_stage_duration_seconds", stage="parse"
        )["count"] == 5

    def test_server_info_and_uptime_gauges(self, server):
        _, base = server
        snap = _scrape(base)
        assert snap.value("repro_server_info", version=repro.__version__) == 1.0
        assert snap.total("repro_uptime_seconds") >= 0.0

    def test_request_id_is_echoed_and_honored(self, server):
        _, base = server
        status, _, headers = _post(base, {"u": 0, "v": 1}, path="/query/exact")
        assert status == 200
        generated = headers["X-Request-Id"]
        assert clean_trace_id(generated) == generated
        status, _, headers = _post(
            base, {"u": 0, "v": 1}, path="/query/exact",
            headers={"X-Request-Id": "my-trace-01"},
        )
        assert headers["X-Request-Id"] == "my-trace-01"
        # An invalid client id is replaced, not echoed.
        status, _, headers = _post(
            base, {"u": 0, "v": 1}, path="/query/exact",
            headers={"X-Request-Id": "bad id with spaces"},
        )
        assert headers["X-Request-Id"] != "bad id with spaces"

    def test_pre_service_rejections_carry_the_id(self, server):
        _, base = server
        status, body, headers = _post(
            base, {"u": 0}, path="/query/nosuch",
            headers={"X-Request-Id": "reject-404"},
        )
        assert status == 404
        assert headers["X-Request-Id"] == "reject-404"

    def test_debug_body_returns_spans(self, server):
        _, base = server
        status, body, _ = _post(
            base, {"u": 0, "v": 3, "debug": True}, path="/query/exact",
            headers={"X-Request-Id": "dbg-1"},
        )
        assert status == 200
        trace = body["trace"]
        assert trace["id"] == "dbg-1"
        spans = trace["spans_ms"]
        assert "parse" in spans and "admission" in spans
        assert "gather" in spans and "park" in spans
        # Non-debug requests stay clean.
        status, body, _ = _post(base, {"u": 0, "v": 3}, path="/query/exact")
        assert "trace" not in body

    def test_healthz_reports_version_uptime_artifacts(self, server):
        _, base = server
        status, text, _ = _get(base, "/healthz")
        body = json.loads(text)
        assert status == 200
        assert body["ok"] is True
        assert body["version"] == repro.__version__
        assert body["uptime_s"] >= 0
        assert body["artifacts"] == 1

    def test_deadline_504_increments_the_mount_counter(self, server):
        frontend, base = server
        before = _scrape(base)
        status, body, _ = _post(
            base, {"u": 0, "v": 1, "timeout_ms": 0}, path="/query/exact"
        )
        assert status == 504
        delta = _scrape(base).delta(before)
        assert delta.value(
            "repro_deadline_exceeded_total", mount="exact"
        ) == 1.0
        assert delta.value(
            "repro_requests_total", mount="exact", status="504"
        ) == 1.0

    def test_http_errors_counted_separately_from_requests(self, server):
        frontend, base = server
        before = _scrape(base)
        status, _, _ = _post(base, {"u": 0}, path="/query/nosuch")
        assert status == 404
        delta = _scrape(base).delta(before)
        assert delta.total("repro_http_errors_total", frontend=frontend) == 1.0
        assert delta.total("repro_requests_total") == 0.0


class TestClientRequestId:
    def test_last_id_lands_in_transport_error_messages(self, exact_artifact):
        handle = start_async_server(DistanceOracle(exact_artifact), port=0)
        base = "http://%s:%s" % handle.server_address[:2]
        client = OracleClient(base, max_attempts=2, backoff_s=0.01)
        status, _ = client.query({"u": 0, "v": 1})
        assert status == 200
        rid = client.last_request_id
        assert rid is not None
        handle.drain_and_shutdown()
        with pytest.raises(OracleClientError) as err:
            client.query({"u": 0, "v": 2})
        assert f"(last X-Request-Id: {rid})" in str(err.value)

    def test_metrics_text_scrapes(self, exact_artifact):
        handle = start_async_server(DistanceOracle(exact_artifact), port=0)
        base = "http://%s:%s" % handle.server_address[:2]
        try:
            with OracleClient(base) as client:
                client.query({"u": 0, "v": 1})
                snap = parse_exposition(client.metrics_text())
            assert snap.total("repro_requests_total") >= 1.0
        finally:
            handle.drain_and_shutdown()


# ----------------------------------------------------------------------
# Loadgen embedding
# ----------------------------------------------------------------------

class TestLoadgenMetrics:
    def test_report_embeds_server_metrics_delta(self, exact_artifact):
        from repro import loadgen

        report, outcomes = loadgen.run_profile(
            "uniform_random",
            [("exact", DistanceOracle(exact_artifact))],
            requests=24, concurrency=4,
        )
        metrics = report["server"]["metrics"]
        counted = sum(
            count
            for by_status in metrics["requests_total"].values()
            for count in by_status.values()
        )
        assert counted == len(outcomes) == 24
        assert metrics["request_duration_seconds"]["exact"]["count"] == 24
        assert metrics["stage_duration_seconds"]["parse"]["count"] == 24
        # The embedded block must be JSON-serializable as-is.
        json.dumps(metrics)
