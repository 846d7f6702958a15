"""The load harness is itself a tested instrument (ISSUE 8).

Four verification layers, matching the satellite checklist:

* **Metrics math** — the hand-rolled linear-interpolation percentile is
  cross-checked against ``numpy.percentile`` on random samples, plus
  the edge cases a report must survive (empty run, single sample,
  all-failures run, infinite/timeout latencies excluded from the
  percentiles but counted in the failure rate).
* **Generator determinism** — the request sequence and the open-loop
  arrival schedule are pure functions of ``(profile, params, seed,
  tenants)``: same seed, same bytes; the Zipf generator's empirical
  skew matches the exact distribution within tolerance.
* **Chaos accounting** — a ``burst`` run against a fault-armed,
  tightly-limited server must agree *exactly* with the server's own
  ``/info`` admission counters: report 200s == admitted, report 503s ==
  rejected, and every issued request accounted for (nothing silently
  dropped at the transport layer).
* **Served fidelity** — a seeded ``zipf_hotspot`` run's answers digest
  equals an in-process ``DistanceOracle.query_batch`` replay of the
  same request sequence (bit-identical per-query answers), and the
  run's ``/info`` shows coalesced batches > 0.  Every registered
  profile's quick run has zero failures and the same digest equality.

Plus the CLI surface: ``repro loadgen --quick`` against a prebuilt
artifact writes a well-formed JSON report.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro import loadgen, oracle
from repro.cli import main
from repro.graph import generators as gen
from repro.loadgen import (
    LoadgenError,
    ProfileContext,
    ProfileParamError,
    QueryOutcome,
    UnknownProfileError,
    answers_digest,
    latency_summary,
    percentile,
    poisson_schedule,
    summarize,
    zipf_probabilities,
)
from repro.oracle import FAULTS, DistanceOracle, build_oracle


@pytest.fixture(autouse=True)
def clean_faults():
    FAULTS.disarm()
    yield
    FAULTS.disarm()


@pytest.fixture(scope="module")
def graph():
    return gen.make_family("er_sparse", 70, seed=5)


@pytest.fixture(scope="module")
def engine(graph):
    artifact = build_oracle(
        graph, variant="exact", rng=np.random.default_rng(2)
    )
    return DistanceOracle(artifact)


def _ok(i, latency_ms, answer=1.0, pairs=1):
    return QueryOutcome(
        index=i, status=200, latency_ms=latency_ms, answer=answer,
        pairs=pairs,
    )


# ----------------------------------------------------------------------
# Satellite 1: metrics math
# ----------------------------------------------------------------------

class TestPercentileMath:
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 50, 997])
    def test_matches_numpy_on_random_samples(self, size):
        rng = np.random.default_rng(size)
        values = rng.exponential(10.0, size=size)
        for q in (0.0, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q)), rel=1e-12, abs=1e-12
            )

    def test_unsorted_input_and_exact_ranks(self):
        assert percentile([30.0, 10.0, 20.0], 50) == 20.0
        assert percentile([30.0, 10.0, 20.0], 0) == 10.0
        assert percentile([30.0, 10.0, 20.0], 100) == 30.0

    def test_single_sample_answers_every_q(self):
        for q in (0, 50, 99, 100):
            assert percentile([42.0], q) == 42.0

    def test_empty_is_none_not_nan(self):
        assert percentile([], 50) is None

    @pytest.mark.parametrize("q", [-0.1, 100.1, 1e9])
    def test_out_of_range_q_rejected(self, q):
        with pytest.raises(ValueError, match="percentile"):
            percentile([1.0], q)


class TestLatencySummary:
    def test_empty_run(self):
        s = latency_summary([])
        assert s["count"] == 0
        assert s["p50"] is None and s["p95"] is None and s["p99"] is None
        assert s["max"] is None and s["mean"] is None

    def test_infinite_latencies_are_excluded(self):
        s = latency_summary([1.0, 2.0, math.inf, float("nan"), 3.0])
        assert s["count"] == 3
        assert s["p50"] == 2.0 and s["max"] == 3.0
        assert s["mean"] == pytest.approx(2.0)

    def test_all_infinite_collapses_to_empty(self):
        s = latency_summary([math.inf, math.inf])
        assert s["count"] == 0 and s["p99"] is None


class TestSummarize:
    def test_accounting_identity_on_mixed_run(self):
        outcomes = (
            [_ok(i, 5.0 + i) for i in range(6)]
            + [QueryOutcome(index=6, status=503, latency_ms=1.0)]
            + [QueryOutcome(index=7, status=503, latency_ms=1.5)]
            + [QueryOutcome(index=8, status=None, latency_ms=math.inf,
                            error="connection reset")]
        )
        r = summarize(outcomes, duration_s=2.0)
        assert r["requests"] == 9 and r["ok"] == 6
        assert r["ok"] + r["failures"]["total"] == r["requests"]
        assert r["failures"]["by_status"] == {"503": 2, "error": 1}
        assert sum(r["failures"]["by_status"].values()) == 3
        assert r["failures"]["rate"] == pytest.approx(3 / 9)
        assert r["qps"] == pytest.approx(3.0)
        # Failed requests' latencies never enter the percentile pool.
        assert r["latency_ms"]["count"] == 6
        assert r["latency_ms"]["max"] == pytest.approx(10.0)

    def test_all_failures_run(self):
        outcomes = [
            QueryOutcome(index=i, status=None, latency_ms=math.inf)
            for i in range(4)
        ]
        r = summarize(outcomes, duration_s=1.0)
        assert r["ok"] == 0 and r["qps"] == 0.0
        assert r["failures"]["rate"] == 1.0
        assert r["latency_ms"]["count"] == 0
        assert r["latency_ms"]["p99"] is None

    def test_empty_run(self):
        r = summarize([], duration_s=0.0)
        assert r["requests"] == 0 and r["failures"]["rate"] == 0.0
        assert r["qps"] == 0.0  # no divide-by-zero on a zero duration

    def test_batch_pairs_feed_query_qps(self):
        outcomes = [_ok(0, 1.0, answer=[1, 2], pairs=8), _ok(1, 1.0)]
        r = summarize(outcomes, duration_s=3.0)
        assert r["queries_ok"] == 9
        assert r["query_qps"] == pytest.approx(3.0)

    def test_answers_digest_is_order_insensitive_and_value_sensitive(self):
        a = [_ok(0, 1.0, answer=1.5), _ok(1, 9.0, answer=2.5)]
        b = [_ok(1, 2.0, answer=2.5), _ok(0, 7.0, answer=1.5)]
        assert answers_digest(a) == answers_digest(b)  # latency-free
        c = [_ok(0, 1.0, answer=1.5), _ok(1, 9.0, answer=99.0)]
        assert answers_digest(a) != answers_digest(c)


# ----------------------------------------------------------------------
# Satellite 2: generator determinism
# ----------------------------------------------------------------------

def _ctx(requests=200, seed=7, tenants=(("exact", 70),)):
    return ProfileContext(tenants=tuple(tenants), requests=requests,
                          seed=seed)


class TestGeneratorDeterminism:
    @pytest.mark.parametrize("name", loadgen.profile_names())
    def test_same_seed_same_request_sequence(self, name):
        profile = loadgen.get_profile(name)
        ctx = _ctx(tenants=(("a", 70), ("b", 50)))
        params = profile.resolve_params(n=70)
        first = profile.build_requests(ctx, **params)
        second = profile.build_requests(ctx, **params)
        assert [dataclasses.astuple(r) for r in first] == [
            dataclasses.astuple(r) for r in second
        ]

    def test_different_seed_different_sequence(self):
        profile = loadgen.get_profile("uniform_random")
        a = profile.build_requests(_ctx(seed=1))
        b = profile.build_requests(_ctx(seed=2))
        assert [r.payload for r in a] != [r.payload for r in b]

    def test_poisson_schedule_replays_and_is_monotone(self):
        a = poisson_schedule(500, rate=250.0, seed=11)
        b = poisson_schedule(500, rate=250.0, seed=11)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.diff(a) >= 0)
        # Mean inter-arrival ~ 1/rate (loose: 500 exponential draws).
        assert a[-1] / 500 == pytest.approx(1 / 250.0, rel=0.25)
        assert poisson_schedule(500, 250.0, seed=12)[-1] != a[-1]

    def test_poisson_rejects_nonpositive_rate(self):
        with pytest.raises(LoadgenError, match="rate"):
            poisson_schedule(10, rate=0.0, seed=1)

    def test_burst_schedule_is_exact_packets(self):
        profile = loadgen.get_profile("burst")
        ctx = _ctx(requests=10)
        offsets = profile.build_schedule(
            ctx, rate=1e9, burst_size=4, gap_ms=100.0
        )
        np.testing.assert_allclose(
            offsets, [0, 0, 0, 0, 0.1, 0.1, 0.1, 0.1, 0.2, 0.2]
        )

    def test_zipf_empirical_skew_within_tolerance(self):
        n, skew, count = 70, 1.4, 30_000
        ctx = _ctx(requests=count, seed=13)
        reqs = loadgen.get_profile("zipf_hotspot").build_requests(
            ctx, skew=skew
        )
        endpoints = np.array(
            [[r.payload["u"], r.payload["v"]] for r in reqs]
        ).ravel()
        empirical = np.bincount(endpoints, minlength=n) / endpoints.size
        exact = zipf_probabilities(n, skew)
        assert exact[0] == pytest.approx(empirical[0], rel=0.05)
        # The hot set dominates: top-5 vertices carry their exact mass.
        assert empirical[:5].sum() == pytest.approx(exact[:5].sum(),
                                                    rel=0.05)
        assert np.argmax(empirical) == 0

    def test_multi_tenant_routes_to_every_mount(self):
        reqs = loadgen.get_profile("multi_tenant").build_requests(
            _ctx(requests=100, tenants=(("a", 70), ("b", 50)))
        )
        tenants = {r.tenant for r in reqs}
        assert tenants == {"a", "b"}
        # Vertex ids must respect each tenant's own n.
        assert all(
            r.payload["u"] < 50 and r.payload["v"] < 50
            for r in reqs if r.tenant == "b"
        )

    def test_batch_mix_carries_pair_counts(self):
        reqs = loadgen.get_profile("batch_single_mix").build_requests(
            _ctx(requests=200), batch_fraction=0.5, batch_size=16
        )
        batches = [r for r in reqs if r.kind == "batch"]
        assert 0 < len(batches) < 200
        assert all(
            r.pairs == 16 and len(r.payload["pairs"]) == 16
            for r in batches
        )
        assert all(
            r.pairs == 1 and "u" in r.payload
            for r in reqs if r.kind == "single"
        )


class TestProfileSchema:
    def test_unknown_profile_lists_registry(self):
        with pytest.raises(UnknownProfileError, match="uniform_random"):
            loadgen.get_profile("nope")

    def test_unknown_param_names_profile(self):
        with pytest.raises(ProfileParamError, match="zipf_hotspot"):
            loadgen.get_profile("zipf_hotspot").resolve_params(
                {"skw": 2.0}, n=70
            )

    def test_out_of_range_param_reworded_for_profiles(self):
        with pytest.raises(ProfileParamError, match="profile 'zipf_hotspot'"):
            loadgen.get_profile("zipf_hotspot").resolve_params(
                {"skew": 99.0}, n=70
            )

    def test_min_tenants_enforced(self):
        with pytest.raises(LoadgenError, match="multi_tenant"):
            loadgen.get_profile("multi_tenant").build_requests(_ctx())


# ----------------------------------------------------------------------
# Satellite 3: chaos accounting vs /info
# ----------------------------------------------------------------------

class TestChaosAccounting:
    # The single param keeps the historical ``[async]`` test id.
    @pytest.mark.parametrize("frontend", ["async"])
    def test_burst_report_matches_admission_counters(
        self, frontend, engine, monkeypatch
    ):
        """Under a REPRO_FAULTS handler delay and a tiny admission
        bound, every burst request must land in the report as either a
        200 (== admitted) or a 503 (== rejected) — nothing silently
        dropped between the driver and the server's own counters."""
        monkeypatch.setenv(
            "REPRO_FAULTS", "service.handle=delay:seconds=0.08"
        )
        FAULTS.arm_from_env()
        limits = dataclasses.replace(oracle.DEFAULT_LIMITS, max_inflight=2)
        report, outcomes = loadgen.run_profile(
            "burst", [("exact", engine)],
            requests=48, seed=21, limits=limits,
            params={"burst_size": 16, "gap_ms": 300.0},
        )
        assert report["server"]["http"]["frontend"] == frontend
        serving = report["server"]["mounts"]["exact"]["serving"]
        by_status = report["failures"]["by_status"]
        assert set(by_status) <= {"503"}, by_status
        assert report["ok"] == serving["admitted"]
        assert by_status.get("503", 0) == serving["rejected"]
        assert serving["admitted"] + serving["rejected"] == 48
        assert serving["rejected"] > 0  # the bound actually bit
        # Rejected requests still carry a measured (fast) latency.
        rejected = [o for o in outcomes if o.status == 503]
        assert all(math.isfinite(o.latency_ms) for o in rejected)


# ----------------------------------------------------------------------
# Satellite 4: served answers == in-process replay
# ----------------------------------------------------------------------

class TestServedFidelity:
    def test_zipf_answers_match_in_process_replay_and_coalesce(self, engine):
        report = loadgen.run(
            "zipf_hotspot", oracles=[("exact", engine)],
            requests=160, concurrency=8, seed=33,
        )
        assert report["failures"]["total"] == 0
        assert report["answers_digest"] == loadgen.replay_digest(
            "zipf_hotspot", [("exact", engine)], requests=160, seed=33
        )
        assert report["qps"] > 0
        lat = report["latency_ms"]
        assert lat["p50"] is not None and lat["p50"] <= lat["p99"]
        coalescing = report["server"]["coalescing"]
        assert coalescing["batches"] > 0
        assert coalescing["coalesced"] >= coalescing["batches"]

    def test_batch_mix_matches_in_process_replay(self, engine):
        report, _ = loadgen.run_profile(
            "batch_single_mix", [("exact", engine)],
            requests=60, concurrency=4, seed=5,
        )
        assert report["failures"]["total"] == 0
        assert report["answers_digest"] == loadgen.replay_digest(
            "batch_single_mix", [("exact", engine)], requests=60, seed=5
        )

    def test_seeded_runs_replay_identically(self, engine):
        reports = [
            loadgen.run_profile(
                "uniform_random", [("exact", engine)],
                requests=60, concurrency=4, seed=9,
            )[0]
            for _ in range(2)
        ]
        assert reports[0]["answers_digest"] == reports[1]["answers_digest"]

    @pytest.mark.parametrize("name", loadgen.profile_names())
    def test_every_profile_quick_run_is_clean(self, name):
        """Every registered profile at its ``--quick`` knobs (multi_tenant
        on its own three-variant mount set): zero failures and served
        answers bit-identical to the in-process replay.  Admission gets
        headroom, so ``burst`` measures answers, not the 503 path
        (that is ``TestChaosAccounting``)."""
        knobs = loadgen.QUICK
        oracles = loadgen.build_tenants(
            name, family=knobs["family"], n=knobs["n"],
            variant=knobs["variant"], seed=61,
        )
        limits = dataclasses.replace(oracle.DEFAULT_LIMITS, max_inflight=4096)
        report = loadgen.run(
            name, oracles=oracles, seed=61, limits=limits, quick=True,
        )
        assert report["failures"]["total"] == 0, report["failures"]
        assert report["answers_digest"] == loadgen.replay_digest(
            name, oracles, requests=report["requests"], seed=61,
            params=report["params"],
        )


# ----------------------------------------------------------------------
# The CLI surface
# ----------------------------------------------------------------------

class TestLoadgenCLI:
    @pytest.fixture(scope="class")
    def artifact_dir(self, tmp_path_factory):
        g = gen.make_family("er_sparse", 60, seed=3)
        artifact = build_oracle(
            g, variant="exact", rng=np.random.default_rng(4)
        )
        path = tmp_path_factory.mktemp("loadgen") / "exact-art"
        oracle.save_artifact(artifact, str(path))
        return str(path)

    def test_quick_report_end_to_end(self, artifact_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main([
            "loadgen", "--profile", "zipf_hotspot", "--quick",
            "--artifact", f"small={artifact_dir}", "--out", str(out),
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "p50_ms" in printed and "answers digest" in printed
        report = json.loads(out.read_text())
        assert report["quick"] is True
        assert report["failures"]["total"] == 0
        assert report["latency_ms"]["p99"] is not None
        assert report["qps"] > 0
        assert [t["name"] for t in report["tenants"]] == ["small"]
        assert report["answers_digest"] in printed

    def test_bad_profile_param_exits_2(self, artifact_dir, tmp_path,
                                       capsys):
        rc = main([
            "loadgen", "--profile", "zipf_hotspot", "--quick",
            "--artifact", f"small={artifact_dir}",
            "--params", "skew=99",
            "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 2
        assert "profile 'zipf_hotspot'" in capsys.readouterr().err

    def test_unknown_mount_option_rejected(self, artifact_dir, tmp_path,
                                           capsys):
        # A mount takes no options: `,shards=2` is read as part of a
        # path that holds no artifact — exit 2, as `repro serve` does.
        rc = main([
            "loadgen", "--profile", "uniform_random", "--quick",
            "--artifact", f"small={artifact_dir},shards=2",
            "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not an oracle artifact" in err
        assert not (tmp_path / "r.json").exists()
