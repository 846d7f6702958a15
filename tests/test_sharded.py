"""Sharded serving: layout round-trips, streaming builds, routed
bit-identity, the /stream channel, supervision, and concurrent readers.

The contract under test everywhere: a sharded oracle — any shard count,
pool or serial, in-process or served over HTTP — answers
**bit-identically** to the
single-process :class:`~repro.oracle.DistanceOracle` over the same
artifact (DESIGN.md §10).
"""

import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import repro.graph.generators as gen
from repro.graph import WeightedGraph
from repro.kernels.parallel import ParallelFallback, shard_edges
from repro.oracle import (
    ArtifactError,
    DistanceOracle,
    OracleClient,
    OracleRouter,
    ShardedOracle,
    build_oracle,
    build_sharded_oracle,
    is_sharded_artifact,
    load_artifact,
    load_sharded_artifact,
    save_artifact,
    save_sharded_artifact,
    start_async_server,
)
from repro.oracle.faults import FAULTS
from repro.oracle.sharded import shard_of

from test_coalesce import assert_served_matches_query_batch  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(autouse=True)
def clean_faults():
    FAULTS.disarm()
    yield
    FAULTS.disarm()


@pytest.fixture(scope="module")
def graph_u():
    return gen.make_family("er_sparse", 240, seed=3)


@pytest.fixture(scope="module")
def graph_w(graph_u):
    wg = WeightedGraph(graph_u.n)
    rng = np.random.default_rng(11)
    for u, v in graph_u.edges():
        wg.add_edge(int(u), int(v), float(rng.integers(1, 9)))
    return wg


@pytest.fixture(scope="module")
def art_u(graph_u):
    return build_oracle(graph_u, variant="tz", r=2, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def art_w(graph_w):
    return build_oracle(graph_w, variant="tz", r=2, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def ref_u(art_u):
    return DistanceOracle(art_u)


@pytest.fixture(scope="module")
def ref_w(art_w):
    return DistanceOracle(art_w)


@pytest.fixture(scope="module")
def sharded_dir(graph_u, tmp_path_factory):
    """A streamed 4-shard tz build of the unweighted module graph."""
    path = str(tmp_path_factory.mktemp("shards") / "tz4")
    build_sharded_oracle(
        graph_u, path, shards=4, variant="tz", r=2,
        rng=np.random.default_rng(0),
    )
    return path


def _pairs(n, count, seed, with_self=True):
    rng = np.random.default_rng(seed)
    us = rng.integers(0, n, count)
    vs = rng.integers(0, n, count)
    if with_self:
        us[: n // 10] = vs[: n // 10]  # exercise the u == v fast path
    return us, vs


# ----------------------------------------------------------------------
# Layout
# ----------------------------------------------------------------------

class TestShardedLayout:
    def test_streamed_build_is_bit_identical(self, sharded_dir, art_u):
        merged = load_sharded_artifact(sharded_dir, verify=True)
        for key in ("bunch_srcs", "bunch_dsts", "bunch_ds", "tz_levels"):
            assert np.array_equal(
                np.asarray(merged.arrays[key]), np.asarray(art_u.arrays[key])
            ), key

    def test_checksums_equal_unsharded_save(self, sharded_dir, art_u, tmp_path):
        """The streamed two-pass digests are the canonical logical-array
        digests — byte-equal to what an unsharded save records."""
        plain = str(tmp_path / "plain")
        save_artifact(art_u, plain)
        with open(os.path.join(plain, "manifest.json")) as fh:
            plain_sums = json.load(fh)["checksums"]
        with open(os.path.join(sharded_dir, "manifest.json")) as fh:
            sharded_manifest = json.load(fh)
        for key in ("bunch_srcs", "bunch_dsts", "bunch_ds", "tz_levels"):
            assert sharded_manifest["checksums"][key] == plain_sums[key], key
        assert sharded_manifest["shard_map"]["shards"] == 4
        assert sharded_manifest["stats"]["streamed"] is True

    def test_load_artifact_detects_layout(self, sharded_dir, graph_u, art_u):
        via = load_artifact(sharded_dir, expected_graph=graph_u)
        assert np.array_equal(
            np.asarray(via.arrays["bunch_ds"]), np.asarray(art_u.arrays["bunch_ds"])
        )

    def test_weighted_streamed_build(self, graph_w, art_w, tmp_path):
        path = str(tmp_path / "w")
        build_sharded_oracle(
            graph_w, path, shards=3, variant="tz", r=2,
            rng=np.random.default_rng(0),
        )
        merged = load_sharded_artifact(path, verify=True)
        for key in ("bunch_srcs", "bunch_dsts", "bunch_ds"):
            assert np.array_equal(
                np.asarray(merged.arrays[key]), np.asarray(art_w.arrays[key])
            ), key

    def test_save_sharded_roundtrip(self, art_u, tmp_path):
        path = str(tmp_path / "resharded")
        save_sharded_artifact(art_u, path, shards=3)
        assert is_sharded_artifact(path)
        merged = load_sharded_artifact(path, verify=True)
        for key in ("bunch_srcs", "bunch_dsts", "bunch_ds"):
            assert np.array_equal(
                np.asarray(merged.arrays[key]), np.asarray(art_u.arrays[key])
            ), key

    def test_matrix_kind_shards(self, graph_u, tmp_path):
        art = build_oracle(
            graph_u, variant="near-additive", rng=np.random.default_rng(2)
        )
        path = str(tmp_path / "mx")
        save_sharded_artifact(art, path, shards=4)
        merged = load_sharded_artifact(path, verify=True)
        assert np.array_equal(
            np.asarray(merged.arrays["estimates"]),
            np.asarray(art.arrays["estimates"]),
        )
        ref = DistanceOracle(art)
        so = ShardedOracle.load(path, pool=False)
        us, vs = _pairs(graph_u.n, 400, 5)
        assert np.array_equal(so.query_batch(us, vs), ref.query_batch(us, vs))

    def test_sources_kind_rejected(self, graph_u, tmp_path):
        art = build_oracle(
            graph_u, variant="mssp", rng=np.random.default_rng(2),
            sources=[0, 1, 2],
        )
        with pytest.raises(ArtifactError, match="cannot be sharded"):
            save_sharded_artifact(art, str(tmp_path / "bad"), shards=2)

    def test_corrupt_shard_map_rejected(self, sharded_dir, tmp_path):
        import shutil

        broken = str(tmp_path / "broken")
        shutil.copytree(sharded_dir, broken)
        mpath = os.path.join(broken, "manifest.json")
        with open(mpath) as fh:
            manifest = json.load(fh)
        manifest["shard_map"]["bounds"][1] = 0  # no longer increasing
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ArtifactError, match="do not partition"):
            load_sharded_artifact(broken)

    def test_newer_layout_version_rejected(self, sharded_dir, tmp_path):
        import shutil

        newer = str(tmp_path / "newer")
        shutil.copytree(sharded_dir, newer)
        mpath = os.path.join(newer, "manifest.json")
        with open(mpath) as fh:
            manifest = json.load(fh)
        manifest["shard_map"]["layout_version"] = 99
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ArtifactError, match="layout version"):
            ShardedOracle.load(newer)

    def test_truncated_shard_file_caught(self, sharded_dir, tmp_path):
        import shutil

        hurt = str(tmp_path / "hurt")
        shutil.copytree(sharded_dir, hurt)
        victim = os.path.join(hurt, "shard-0001", "cols.npy")
        with open(victim, "r+b") as fh:
            fh.truncate(os.path.getsize(victim) // 2)
        from repro.oracle import ArtifactCorrupt

        with pytest.raises((ArtifactCorrupt, ArtifactError)):
            load_sharded_artifact(hurt, verify=True)

    def test_shards_mismatch_on_load(self, sharded_dir):
        with pytest.raises(ArtifactError, match="does not match"):
            ShardedOracle.load(sharded_dir, shards=2)

    def test_shard_of_routing(self):
        bounds = shard_edges(100, 4)
        ids = np.arange(100)
        owners = shard_of(bounds, ids)
        assert owners.min() == 0 and owners.max() == 3
        for s in range(4):
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            assert (owners[lo:hi] == s).all()


class TestStreamingMemory:
    def test_peak_resident_arcs_regression_guard(self, tmp_path, monkeypatch):
        """The streamed build must hold only a shard plus one in-flight
        block, or the generator's own cluster-pass working set — never
        the whole relation (the regression this guards: buffering every
        level's arcs until save time)."""
        import repro.emulator.thorup_zwick as tz

        base = gen.make_family("er_sparse", 400, seed=7)
        g = WeightedGraph(base.n)
        rng = np.random.default_rng(3)
        for u, v in base.edges():
            g.add_edge(int(u), int(v), float(rng.integers(1, 5)))
        # Grow one n-sized top-level cluster per group: the weighted
        # relax holds a whole group's labels until its fixpoint.
        monkeypatch.setattr(tz, "_GROUP_LABELS", g.n)
        path = str(tmp_path / "streamed")
        manifest = build_sharded_oracle(
            g, path, shards=8, variant="tz", r=2,
            rng=np.random.default_rng(0),
        )
        stats = manifest["stats"]
        total = stats["bunch_edges"]
        assert total > 0
        # 8 shards x 7-source spill ranges x one-cluster groups: the
        # resident high-water must stay well under the full relation,
        # and the result still bit-identical.
        assert stats["peak_resident_arcs"] < total / 2
        art = build_oracle(g, variant="tz", r=2, rng=np.random.default_rng(0))
        merged = load_sharded_artifact(path, verify=True)
        assert np.array_equal(
            np.asarray(merged.arrays["bunch_ds"]),
            np.asarray(art.arrays["bunch_ds"]),
        )

    def test_peak_counts_the_cluster_pass(self, tmp_path):
        """The generator's own working set is part of the high-water: with
        default groups the weighted relax holds every top-level label
        (|S_r| clusters of n each) at once."""
        base = gen.make_family("er_sparse", 400, seed=7)
        g = WeightedGraph(base.n)
        rng = np.random.default_rng(3)
        for u, v in base.edges():
            g.add_edge(int(u), int(v), float(rng.integers(1, 5)))
        manifest = build_sharded_oracle(
            g, str(tmp_path / "streamed"), shards=8, variant="tz", r=2,
            rng=np.random.default_rng(0),
        )
        stats = manifest["stats"]
        assert stats["peak_resident_arcs"] >= stats["set_sizes"][-1] * g.n


# ----------------------------------------------------------------------
# Routed answers: the bit-identity property
# ----------------------------------------------------------------------

class TestShardedBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("pool", [False, True])
    def test_in_memory_partition(
        self, request, shards, weighted, pool,
    ):
        art = request.getfixturevalue("art_w" if weighted else "art_u")
        ref = request.getfixturevalue("ref_w" if weighted else "ref_u")
        so = ShardedOracle(art, shards=shards, pool=pool)
        try:
            us, vs = _pairs(art.n, 1500, seed=shards * 10 + weighted)
            want_d, want_w = ref._answer_batch(us, vs)
            got_d, got_w = so._answer_batch(us, vs)
            assert np.array_equal(got_d, want_d)
            assert np.array_equal(got_w, want_w)
            # single-query surface + witness certificates agree too
            assert so.query(1, art.n - 1) == ref.query(1, art.n - 1)
            assert so.certificate(2, 3) == ref.certificate(2, 3)
        finally:
            so.close()

    @pytest.mark.parametrize("pool", [False, True])
    def test_disk_mode(self, sharded_dir, ref_u, pool):
        so = ShardedOracle.load(sharded_dir, pool=pool)
        try:
            us, vs = _pairs(so.n, 1500, seed=21)
            want_d, want_w = ref_u._answer_batch(us, vs)
            got_d, got_w = so._answer_batch(us, vs)
            assert np.array_equal(got_d, want_d)
            assert np.array_equal(got_w, want_w)
            stats = so.stats()
            assert stats["shards"] == 4
            # each pair counts once, on the shard that owns u
            assert sum(stats["shard_queries"]) == us.size
        finally:
            so.close()

    def test_one_pool_round_per_batch(self, sharded_dir, ref_u):
        """A batch mixing same-shard and cross-shard pairs costs each
        worker at most one request, and every pair is answered once,
        by u's shard (no B(v) relay through the parent)."""
        so = ShardedOracle.load(sharded_dir, pool=True)
        try:
            bounds = np.asarray(so.stats()["shard_bounds"])
            us, vs = _pairs(so.n, 600, seed=31)
            sid_u, sid_v = shard_of(bounds, us), shard_of(bounds, vs)
            assert (sid_u == sid_v).any() and (sid_u != sid_v).any()
            before = so.worker_stats()
            got_d, got_w = so._answer_batch(us, vs)
            after = so.worker_stats()
            want_d, want_w = ref_u._answer_batch(us, vs)
            assert np.array_equal(got_d, want_d)
            assert np.array_equal(got_w, want_w)
            for b, a in zip(before, after):
                # the second worker_stats() call is itself one request
                assert a["requests"] - b["requests"] - 1 <= 1, (b, a)
                # so the deltas sum to the batch size
                assert a["queries"] - b["queries"] == int(
                    (sid_u == a["shard"]).sum()
                )
        finally:
            so.close()

    @pytest.mark.parametrize("pool", [False, True])
    def test_corrupt_peer_shard_is_typed(
        self, sharded_dir, ref_u, tmp_path, pool,
    ):
        """u's worker mmaps v's shard on first use: a corrupt peer file
        surfaces as the typed error out of the pool (a clean reply, not
        a dead worker, so no rebuild) and pairs that never read the
        peer are still answered."""
        import shutil

        from repro.oracle import ArtifactCorrupt

        hurt = str(tmp_path / "hurt")
        shutil.copytree(sharded_dir, hurt)
        victim = os.path.join(hurt, "shard-0003", "cols.npy")
        with open(victim, "r+b") as fh:
            fh.truncate(os.path.getsize(victim) // 2)
        so = ShardedOracle.load(hurt, pool=pool)
        try:
            bounds = so.stats()["shard_bounds"]
            u, v = bounds[0], bounds[3]
            with pytest.raises(ArtifactCorrupt, match="shard-0003"):
                so._answer_batch(np.array([u]), np.array([v]))
            stats = so.stats()
            assert stats["pool_rebuilds"] == 0
            assert stats["shard_mode"] == ("pool" if pool else "serial")
            us = np.array([u, u + 1, u + 2])
            vs = np.array([u + 5, u, bounds[1] - 1])
            got_d, got_w = so._answer_batch(us, vs)
            want_d, want_w = ref_u._answer_batch(us, vs)
            assert np.array_equal(got_d, want_d)
            assert np.array_equal(got_w, want_w)
        finally:
            so.close()

    def test_disk_mode_path_queries(self, sharded_dir, ref_u):
        so = ShardedOracle.load(sharded_dir, pool=False)
        assert so.path(3, 40) == ref_u.path(3, 40)

    def test_edges_kind_routing(self, graph_u, tmp_path):
        art = build_oracle(
            graph_u, variant="spanner", rng=np.random.default_rng(2)
        )
        ref = DistanceOracle(art)
        so = ShardedOracle(art, shards=3, pool=False)
        us, vs = _pairs(graph_u.n, 60, seed=9)
        assert np.array_equal(so.query_batch(us, vs), ref.query_batch(us, vs))

    def test_worker_stats_report_per_shard_processes(self, sharded_dir):
        so = ShardedOracle.load(sharded_dir)
        try:
            stats = so.worker_stats()
            assert [s["shard"] for s in stats] == [0, 1, 2, 3]
            if so.stats()["shard_mode"] == "pool":
                pids = {s["pid"] for s in stats}
                assert len(pids) == 4 and os.getpid() not in pids
        finally:
            so.close()


# ----------------------------------------------------------------------
# Per-shard gather telemetry
# ----------------------------------------------------------------------

@pytest.fixture
def shard_metrics():
    """Metrics on for the test, restored afterwards; yields a reader of
    one shard's ``(sum, count)`` in ``repro_shard_gather_seconds``."""
    from repro.telemetry import instruments, metrics

    was_enabled = metrics.enabled()
    metrics.enable()

    def read(shard):
        snap = instruments.SHARD_GATHER_SECONDS.labels(str(shard)).snapshot()
        return snap["sum"], snap["count"]

    yield read
    if not was_enabled:
        metrics.disable()


def _split_pairs(so, count=200):
    us, vs = _pairs(so.n, count, seed=61)
    assert set(shard_of(so._bounds, us).tolist()) == {0, 1}
    return us, vs


class TestShardTelemetry:
    DELAY = 0.4

    def test_serial_shards_time_their_own_share(
        self, art_u, shard_metrics, monkeypatch
    ):
        so = ShardedOracle(art_u, shards=2, pool=False)
        slow = so._backends[1]
        handle = slow.handle

        def slowed(op):
            time.sleep(self.DELAY)
            return handle(op)

        monkeypatch.setattr(slow, "handle", slowed)
        us, vs = _split_pairs(so)
        before = [shard_metrics(s) for s in (0, 1)]
        so.query_batch(us, vs)
        after = [shard_metrics(s) for s in (0, 1)]
        assert [a[1] - b[1] for a, b in zip(after, before)] == [1, 1]
        assert after[1][0] - before[1][0] >= self.DELAY
        assert after[0][0] - before[0][0] < self.DELAY / 2
        # A stats round carries no gather: nothing is observed.
        so.worker_stats()
        assert [shard_metrics(s)[1] for s in (0, 1)] == [
            a[1] for a in after
        ]

    def test_pool_shards_time_their_own_share(
        self, art_u, shard_metrics, tmp_path
    ):
        budget = tmp_path / "delays"
        budget.write_text("1")  # exactly one worker stalls, once
        FAULTS.arm(
            "sharded.worker", "delay", seconds=self.DELAY,
            times_file=str(budget),
        )
        so = ShardedOracle(art_u, shards=2, pool=True)
        try:
            us, vs = _split_pairs(so)
            before = [shard_metrics(s) for s in (0, 1)]
            so.query_batch(us, vs)
            after = [shard_metrics(s) for s in (0, 1)]
            spent = sorted(a[0] - b[0] for a, b in zip(after, before))
            assert spent[1] >= self.DELAY
            assert spent[0] < self.DELAY / 2
            so.worker_stats()
            assert [shard_metrics(s)[1] for s in (0, 1)] == [
                a[1] for a in after
            ]
        finally:
            so.close()


# ----------------------------------------------------------------------
# Front ends over sharded mounts
# ----------------------------------------------------------------------

class TestFrontends:
    @pytest.fixture(scope="class")
    def router_pair(self, sharded_dir, art_u, tmp_path_factory):
        plain = str(tmp_path_factory.mktemp("mounts") / "plain")
        save_artifact(art_u, plain)
        return [("s", sharded_dir), ("p", plain)]

    def _batch(self, n, seed=31):
        us, vs = _pairs(n, 300, seed)
        return {"op": "distance", "us": us.tolist(), "vs": vs.tolist()}

    def test_async_frontend_digest_equality(self, router_pair, art_u):
        router = OracleRouter.load(router_pair)
        handle = start_async_server(router)
        base = "http://%s:%s" % handle.server_address[:2]
        try:
            with OracleClient(base) as client:
                body = self._batch(art_u.n)
                st_s, out_s = client.query(body, name="s")
                st_p, out_p = client.query(body, name="p")
            assert st_s == st_p == 200
            assert out_s["distances"] == out_p["distances"]
        finally:
            handle.drain_and_shutdown()

    def test_sharded_mount_matches_in_process_query_batch(
        self, router_pair, ref_u
    ):
        router = OracleRouter.load(router_pair)
        handle = start_async_server(router)
        base = "http://%s:%s" % handle.server_address[:2]
        us, vs = _pairs(ref_u.n, 60, seed=37)
        queries = [(int(u), int(v)) for u, v in zip(us, vs)]
        try:
            for name in ("s", "p"):
                assert_served_matches_query_batch(
                    base, ref_u, queries, name=name
                )
        finally:
            handle.drain_and_shutdown()

    def test_mount_option_shards_partitions_plain(self, router_pair):
        _, plain = router_pair[1]
        router = OracleRouter.load([("x", plain, {"shards": 2})])
        try:
            svc = router.service("x")
            assert isinstance(svc.oracle, ShardedOracle)
            assert svc.oracle.shards == 2
        finally:
            router.close()

    def test_unknown_mount_option_still_fails(self, router_pair):
        _, plain = router_pair[1]
        with pytest.raises(ArtifactError, match="unknown mount option"):
            OracleRouter.load([("x", plain, {"bogus": 1})])


# ----------------------------------------------------------------------
# The ndjson /stream channel
# ----------------------------------------------------------------------

class TestStreamChannel:
    @pytest.fixture(scope="class")
    def async_server(self, sharded_dir):
        router = OracleRouter.load([("tz", sharded_dir)])
        handle = start_async_server(router)
        base = "http://%s:%s" % handle.server_address[:2]
        yield base
        handle.drain_and_shutdown()

    def test_stream_answers_match_query(self, async_server, ref_u):
        reqs = [
            {"u": int(u), "v": int(v)}
            for u, v in zip(*_pairs(ref_u.n, 48, seed=41, with_self=False))
        ]
        with OracleClient(async_server) as client:
            out = client.stream_queries(reqs, name="tz")
        assert len(out) == len(reqs)
        for req, resp in zip(reqs, out):
            assert resp["status"] == 200
            assert resp["distance"] == ref_u.query(req["u"], req["v"])

    def test_stream_feeds_coalescer(self, async_server):
        """A pipelined stream burst must actually coalesce — multiple
        queries answered per flush, not one HTTP turn each."""
        reqs = [{"u": i % 50, "v": (i * 7) % 50} for i in range(200)]
        with OracleClient(async_server) as client:
            before = client.info("tz")[1]["coalescing"]
            out = client.stream_queries(reqs, name="tz")
            after = client.info("tz")[1]["coalescing"]
        assert all(r["status"] == 200 for r in out)
        flushed = after["coalesced"] - before["coalesced"]
        batches = after["batches"] - before["batches"]
        assert flushed >= len(reqs)
        assert batches < flushed  # strictly fewer gathers than queries
        assert after["largest_batch"] > 1

    def test_stream_order_and_inline_errors(self, async_server):
        with OracleClient(async_server) as client:
            import socket as sk

            # hand-rolled so a malformed line can ride the stream
            host, _, port = async_server.split("//")[1].partition(":")
            conn = sk.create_connection((host, int(port)), timeout=10)
            conn.sendall(
                b"POST /stream/tz HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n\r\n"
            )
            conn.sendall(b'{"u": 1, "v": 2}\n')
            conn.sendall(b'this is not json\n')
            conn.sendall(b'{"op": "distance", "us": [1], "vs": [3]}\n')
            conn.sendall(b"\n")
            fh = conn.makefile("rb")
            assert fh.readline().startswith(b"HTTP/1.1 200")
            while fh.readline() not in (b"\r\n", b"\n", b""):
                pass
            lines = [json.loads(fh.readline()) for _ in range(3)]
            conn.close()
        assert lines[0]["status"] == 200 and "distance" in lines[0]
        assert lines[1]["status"] == 400
        assert lines[2]["status"] == 200 and "distances" in lines[2]


# ----------------------------------------------------------------------
# Supervision: worker death follows the §7 ladder
# ----------------------------------------------------------------------

class TestSupervision:
    def test_kill_rebuild_once_then_degrade(self, sharded_dir, ref_u, tmp_path):
        """Chaos: the ``sharded.worker`` kill fault SIGKILLs one worker
        mid-burst.  First death → pool rebuilt once, batch retried,
        bit-identical.  Second death → permanent in-process serial, still
        bit-identical."""
        budget = tmp_path / "budget"
        budget.write_text("1")
        FAULTS.arm("sharded.worker", "kill", times_file=str(budget))
        so = ShardedOracle.load(sharded_dir)
        try:
            if so.stats()["shard_mode"] != "pool":
                pytest.skip("no fork pool on this platform")
            us, vs = _pairs(so.n, 800, seed=51)
            want_d, want_w = ref_u._answer_batch(us, vs)
            with warnings.catch_warnings(record=True) as wlog:
                warnings.simplefilter("always")
                got_d, got_w = so._answer_batch(us, vs)
            assert np.array_equal(got_d, want_d)
            assert np.array_equal(got_w, want_w)
            assert any(
                issubclass(w.category, ParallelFallback) for w in wlog
            )
            stats = so.stats()
            assert stats["shard_mode"] == "pool"
            assert stats["pool_rebuilds"] == 1

            # second failure: kill a worker directly, expect serial
            os.kill(so.worker_stats()[0]["pid"], 9)
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                got_d, got_w = so._answer_batch(us, vs)
            assert np.array_equal(got_d, want_d)
            assert np.array_equal(got_w, want_w)
            stats = so.stats()
            assert stats["shard_mode"] == "serial"
            assert stats["shard_degraded"] is True
            # degraded serving keeps working
            got_d, _ = so._answer_batch(us, vs)
            assert np.array_equal(got_d, want_d)
        finally:
            so.close()


# ----------------------------------------------------------------------
# Concurrent mmap readers (two processes + verify, same artifact)
# ----------------------------------------------------------------------

_READER_SNIPPET = """
import sys, numpy as np
from repro.oracle import ShardedOracle
path, seed = sys.argv[1], int(sys.argv[2])
so = ShardedOracle.load(path, pool=False)
rng = np.random.default_rng(seed)
for _ in range(5):
    us = rng.integers(0, so.n, 300)
    vs = rng.integers(0, so.n, 300)
    d, w = so._answer_batch(us, vs)
    print(float(d[np.isfinite(d)].sum()), int(w.sum()))
"""


class TestConcurrentReaders:
    def test_two_processes_and_verify(self, sharded_dir, ref_u):
        """Two reader processes mmap the same shard files while the
        parent re-verifies checksums — nobody corrupts anybody, and both
        readers report exactly the single-process answers."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _READER_SNIPPET, sharded_dir, str(seed)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=env, text=True,
            )
            for seed in (1, 2)
        ]
        # verify concurrently with the readers, repeatedly
        for _ in range(3):
            load_sharded_artifact(sharded_dir, verify=True)
        outs = []
        for proc in procs:
            stdout, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr
            outs.append(stdout.strip().splitlines())
        # both readers' answers equal the in-process reference oracle's
        for seed, lines in zip((1, 2), outs):
            rng = np.random.default_rng(seed)
            for line in lines:
                us = rng.integers(0, ref_u.n, 300)
                vs = rng.integers(0, ref_u.n, 300)
                d, w = ref_u._answer_batch(us, vs)
                want = f"{float(d[np.isfinite(d)].sum())} {int(w.sum())}"
                assert line == want


# ----------------------------------------------------------------------
# Loadgen integration: per-shard request counts
# ----------------------------------------------------------------------

class TestLoadgenShards:
    def test_zipf_hotspot_reports_per_shard_counts(self, sharded_dir, ref_u):
        from repro.loadgen import harness

        oracles = harness.load_mounts([("tz", sharded_dir)])
        try:
            report, outcomes = harness.run_profile(
                "zipf_hotspot", oracles,
                requests=120, concurrency=8, seed=4,
            )
        finally:
            for _, o in oracles:
                o.close()
        assert report["failures"]["total"] == 0
        assert report["answers_digest"] == harness.replay_digest(
            "zipf_hotspot", [("tz", ref_u)], requests=120, seed=4
        )
        shard_counts = report["server"]["metrics"]["shard_queries_total"]["tz"]
        # only u's shard counts a pair, and the hotspot still reaches
        # every shard as a source
        assert set(shard_counts) == {"0", "1", "2", "3"}
        assert sum(shard_counts.values()) == 120
