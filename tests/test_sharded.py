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
import urllib.request
import warnings

import numpy as np
import pytest

import repro.graph.generators as gen
from repro.graph import WeightedGraph
from repro.kernels.parallel import (
    ParallelFallback,
    fork_available,
    shard_edges,
)
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


def _layout(art, tmp_path, shards, pool):
    """``art`` saved as a ``shards``-shard layout under ``tmp_path`` and
    opened from it."""
    path = str(tmp_path / f"layout-{shards}")
    save_sharded_artifact(art, path, shards=shards)
    return ShardedOracle.load(path, pool=pool)


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

    def test_streamed_manifest_matches_unsharded(
        self, sharded_dir, art_u, tmp_path
    ):
        """One TZ summary: the streamed build records the unsharded
        build's name, stretch, params and stats, and ``bunch_edges`` is
        the stored arc count in both."""
        plain = str(tmp_path / "plain")
        save_artifact(art_u, plain)
        with open(os.path.join(plain, "manifest.json")) as fh:
            want = json.load(fh)
        with open(os.path.join(sharded_dir, "manifest.json")) as fh:
            got = json.load(fh)
        for key in ("name", "multiplicative", "additive", "params"):
            assert got[key] == want[key], key
        for key in ("bunch_edges", "k", "set_sizes"):
            assert got["stats"][key] == want["stats"][key], key
        assert want["stats"]["bunch_edges"] == art_u.arrays["bunch_srcs"].size
        assert sum(got["stats"]["shard_arcs"]) == got["stats"]["bunch_edges"]

    @pytest.mark.parametrize("writer", ["resave", "streamed"])
    def test_every_staged_directory_is_fsynced(
        self, writer, graph_u, art_u, tmp_path, monkeypatch
    ):
        """The staging dir, each ``shard-XXXX/`` and ``shared/`` are
        fsynced before the rename, as ``save_artifact`` does for its
        one directory."""
        import repro.oracle.artifact as artifact_mod

        synced = []
        real = artifact_mod._fsync_dir

        def record(path):
            synced.append(path)
            real(path)

        monkeypatch.setattr(artifact_mod, "_fsync_dir", record)
        path = str(tmp_path / "a")
        if writer == "resave":
            save_sharded_artifact(art_u, path, shards=3)
        else:
            build_sharded_oracle(
                graph_u, path, shards=3, variant="tz", r=2,
                rng=np.random.default_rng(0),
            )
        staging = f"{os.path.abspath(path)}.tmp-{os.getpid()}"
        want = {staging, os.path.join(staging, "shared")} | {
            os.path.join(staging, f"shard-{i:04d}") for i in range(3)
        }
        assert want <= set(synced)
        # The parent directory is synced after the rename, last.
        assert synced[-1] == str(tmp_path)
        assert set(synced[:-1]) == want

    @pytest.mark.parametrize("shards", [0, -1])
    def test_streamed_build_rejects_nonpositive_shards(
        self, shards, graph_u, tmp_path
    ):
        path = str(tmp_path / "a")
        with pytest.raises(ArtifactError, match="shards must be >= 1"):
            build_sharded_oracle(graph_u, path, shards=shards, variant="tz")
        assert os.listdir(tmp_path) == []

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

    def test_sources_kind_rejected(self, graph_u, tmp_path):
        art = build_oracle(
            graph_u, variant="mssp", rng=np.random.default_rng(2),
            sources=[0, 1, 2],
        )
        with pytest.raises(ArtifactError, match="cannot be sharded"):
            save_sharded_artifact(art, str(tmp_path / "bad"), shards=2)

    @pytest.mark.parametrize("variant", ["mssp", "2eps", "near-additive"])
    def test_unshardable_variant_refused_before_build(
        self, graph_u, variant, tmp_path, monkeypatch,
    ):
        # The kind is checked against the registry before any build
        # work, so a refused variant costs nothing and writes nothing.
        from repro.oracle import sharded

        def no_build(*args, **kwargs):
            pytest.fail("build_oracle ran for an unshardable variant")

        monkeypatch.setattr(sharded, "build_oracle", no_build)
        path = str(tmp_path / variant)
        with pytest.raises(ArtifactError, match="cannot be sharded"):
            build_sharded_oracle(
                graph_u, path, shards=2, variant=variant,
                rng=np.random.default_rng(0),
            )
        assert not os.path.exists(path)

    @pytest.mark.parametrize("kind", ["matrix", "core"])
    def test_layout_of_a_dropped_kind_refused(
        self, sharded_dir, kind, tmp_path, capsys,
    ):
        # A layout whose manifest names a kind that no longer shards
        # (matrix and core layouts were once written) is a typed error
        # naming the kind and the remedy, never a traceback.
        import shutil

        from repro.cli import main

        old = str(tmp_path / kind)
        shutil.copytree(sharded_dir, old)
        mpath = os.path.join(old, "manifest.json")
        with open(mpath) as fh:
            manifest = json.load(fh)
        manifest["kind"] = kind
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)
        match = f"kind '{kind}'.*rebuild without --shards"
        with pytest.raises(ArtifactError, match=match):
            ShardedOracle.load(old, pool=False)
        with pytest.raises(ArtifactError, match=match):
            load_artifact(old)
        assert main(["verify-artifact", "--artifact", old]) == 2
        err = capsys.readouterr().err
        assert "rebuild without --shards" in err and "Traceback" not in err

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
        self, request, tmp_path, shards, weighted, pool,
    ):
        """An in-memory artifact partitioned by ``save_sharded_artifact``
        and served from the written layout answers as the unsharded
        engine over the same artifact."""
        art = request.getfixturevalue("art_w" if weighted else "art_u")
        ref = request.getfixturevalue("ref_w" if weighted else "ref_u")
        so = _layout(art, tmp_path, shards, pool=pool)
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
        # An emulator-sssp (edges kind) artifact saved as a layout,
        # served by the pool and serially.
        art = build_oracle(
            graph_u, variant="emulator-sssp", rng=np.random.default_rng(2)
        )
        assert art.kind == "edges"
        ref = DistanceOracle(art)
        path = str(tmp_path / "es3")
        save_sharded_artifact(art, path, shards=3)
        us, vs = _pairs(graph_u.n, 300, seed=9)
        want = ref.query_batch(us, vs)
        for pool in (False, True):
            so = ShardedOracle.load(path, pool=pool)
            try:
                assert so.shards == 3
                assert np.array_equal(so.query_batch(us, vs), want)
                assert so.query(1, graph_u.n - 1) == ref.query(
                    1, graph_u.n - 1
                )
            finally:
                so.close()

    @pytest.mark.parametrize("pool", [False, True])
    def test_core_bad_shape_fails_at_load(self, tmp_path, pool):
        # A core layout as one was once written (the manifest with a
        # shard map, every array under shared/), its core_dist cut by a
        # row: the load is refused by kind, naming the remedy, before
        # the broken payload is read or any pool worker forks.  The
        # shape check of a plain save is TestPersistence's.
        import multiprocessing
        import shutil

        g = gen.make_family("er_sparse", 60, seed=5)
        art = build_oracle(
            g, variant="near-additive", rng=np.random.default_rng(5)
        )
        plain = str(tmp_path / "na-plain")
        save_artifact(art, plain)
        path = str(tmp_path / "na-bad")
        os.makedirs(os.path.join(path, "shared"))
        for name in os.listdir(plain):
            if name != "manifest.json":
                shutil.copy(
                    os.path.join(plain, name),
                    os.path.join(path, "shared", name),
                )
        with open(os.path.join(plain, "manifest.json")) as fh:
            manifest = json.load(fh)
        manifest["shard_map"] = {
            "layout_version": 1, "shards": 2, "bounds": [0, g.n // 2, g.n],
        }
        with open(os.path.join(path, "manifest.json"), "w") as fh:
            json.dump(manifest, fh)
        npy = os.path.join(path, "shared", "core_dist.npy")
        np.save(npy, np.load(npy)[1:])
        assert is_sharded_artifact(path)
        children = len(multiprocessing.active_children())
        match = "kind 'core'.*rebuild without --shards"
        with pytest.raises(ArtifactError, match=match):
            ShardedOracle.load(path, pool=pool)
        assert len(multiprocessing.active_children()) == children
        with pytest.raises(ArtifactError, match=match):
            DistanceOracle(load_artifact(path))

    @pytest.mark.parametrize("pool", [False, True])
    def test_edges_bad_vertex_id_fails_at_load(self, tmp_path, pool):
        g = gen.make_family("er_sparse", 60, seed=5)
        art = build_oracle(
            g, variant="emulator-sssp", rng=np.random.default_rng(5)
        )
        path = str(tmp_path / "es-bad")
        save_sharded_artifact(art, path, shards=2)
        npz = os.path.join(path, "shared", "arrays.npz")
        with np.load(npz) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["emu_vs"][3] = g.n + 5
        np.savez(npz, **arrays)
        with pytest.raises(ArtifactError, match="out of range"):
            ShardedOracle.load(path, pool=pool)
        with pytest.raises(ArtifactError, match="out of range"):
            DistanceOracle(load_artifact(path))

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
    """A reader of one shard's ``(sum, count)`` in
    ``repro_shard_gather_seconds`` under the oracle's mount label."""
    from repro.telemetry import instruments

    def read(so, shard):
        snap = instruments.SHARD_GATHER_SECONDS.labels(
            so._mount, str(shard)
        ).snapshot()
        return snap["sum"], snap["count"]

    return read


def _split_pairs(so, count=200):
    us, vs = _pairs(so.n, count, seed=61)
    assert set(shard_of(so._bounds, us).tolist()) == {0, 1}
    return us, vs


class TestShardTelemetry:
    DELAY = 0.4

    def test_serial_shards_time_their_own_share(
        self, art_u, shard_metrics, monkeypatch, tmp_path
    ):
        so = _layout(art_u, tmp_path, 2, pool=False)
        slow = so._backends[1]
        handle = slow.handle

        def slowed(op):
            time.sleep(self.DELAY)
            return handle(op)

        monkeypatch.setattr(slow, "handle", slowed)
        us, vs = _split_pairs(so)
        before = [shard_metrics(so, s) for s in (0, 1)]
        so.query_batch(us, vs)
        after = [shard_metrics(so, s) for s in (0, 1)]
        assert [a[1] - b[1] for a, b in zip(after, before)] == [1, 1]
        assert after[1][0] - before[1][0] >= self.DELAY
        assert after[0][0] - before[0][0] < self.DELAY / 2
        # A stats round carries no gather: nothing is observed.
        so.worker_stats()
        assert [shard_metrics(so, s)[1] for s in (0, 1)] == [
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
        so = _layout(art_u, tmp_path, 2, pool=True)
        try:
            us, vs = _split_pairs(so)
            before = [shard_metrics(so, s) for s in (0, 1)]
            so.query_batch(us, vs)
            after = [shard_metrics(so, s) for s in (0, 1)]
            spent = sorted(a[0] - b[0] for a, b in zip(after, before))
            assert spent[1] >= self.DELAY
            assert spent[0] < self.DELAY / 2
            so.worker_stats()
            assert [shard_metrics(so, s)[1] for s in (0, 1)] == [
                a[1] for a in after
            ]
        finally:
            so.close()


def _shard_series(mount=None):
    """``{name: [(labels, value)]}`` of the scraped ``repro_shard_*``
    samples, optionally only those labeled with ``mount``."""
    from repro.telemetry import REGISTRY, parse_exposition

    snap = parse_exposition(REGISTRY.render())
    return {
        name: [
            (labels, value) for labels, value in samples
            if mount is None or labels.get("mount") == mount
        ]
        for name, samples in snap.samples.items()
        if name.startswith("repro_shard_")
    }


class TestShardGauge:
    """``repro_shard_up`` and the shard series' ``mount`` label are
    right from the first scrape, with no ``/info`` and no server
    needed to switch anything on."""

    def test_fresh_serve_process_scrapes_shard_up(self, sharded_dir):
        if not fork_available():
            pytest.skip("no fork pool on this platform")
        from repro.telemetry import parse_exposition

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--artifact", f"tzs={sharded_dir}", "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            base = None
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if "healthz" in line:
                    base = line.split("GET ")[1].split("/info")[0]
                    break
            assert base, "server never printed its URL"
            with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
                snap = parse_exposition(resp.read().decode())
            for s in range(4):
                assert snap.value(
                    "repro_shard_up", mount="tzs", shard=str(s)
                ) == 1.0, s
            mounts = {
                labels.get("mount")
                for name, samples in snap.samples.items()
                for labels, _ in samples
                if name.startswith("repro_shard_")
            }
            assert mounts == {"tzs"}
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    def test_start_async_server_labels_shards_with_the_mount(
        self, sharded_dir
    ):
        from repro.telemetry import REGISTRY, parse_exposition

        so = ShardedOracle.load(sharded_dir, pool=False)
        name = so.artifact.variant
        before = parse_exposition(REGISTRY.render())
        handle = start_async_server(so)
        base = "http://%s:%s" % handle.server_address[:2]
        try:
            with OracleClient(base) as client:
                status, _ = client.query({"pairs": [[0, 1], [239, 3]]})
            assert status == 200
        finally:
            handle.drain_and_shutdown()
        delta = parse_exposition(REGISTRY.render()).delta(before)
        assert delta.total("repro_shard_queries_total", mount=name) == 2
        series = _shard_series()
        assert len(_shard_series(name)["repro_shard_up"]) == 4
        assert all(
            labels.get("mount") != "default"
            for samples in series.values() for labels, _ in samples
        )

    def test_router_mount_names_the_series(self, sharded_dir):
        so = ShardedOracle.load(sharded_dir, pool=False)
        router = OracleRouter()
        router.mount("renamed", so)
        try:
            so.query_batch(np.array([0, 239]), np.array([5, 6]))
            series = _shard_series("renamed")
            assert sum(v for _, v in series["repro_shard_queries_total"]) == 2
            assert len(series["repro_shard_up"]) == 4
        finally:
            router.close()

    def test_gather_latency_is_split_by_mount(self, sharded_dir):
        from repro.telemetry import REGISTRY, parse_exposition

        router = OracleRouter()
        a = ShardedOracle.load(sharded_dir, pool=False)
        b = ShardedOracle.load(sharded_dir, pool=False)
        router.mount("a", a)
        router.mount("b", b)
        before = parse_exposition(REGISTRY.render())
        try:
            a.query_batch(np.array([0]), np.array([5]))
            a.query_batch(np.array([1]), np.array([6]))
            b.query_batch(np.array([2]), np.array([7]))
        finally:
            router.close()
        delta = parse_exposition(REGISTRY.render()).delta(before)
        count = "repro_shard_gather_seconds_count"
        assert delta.value(count, mount="a", shard="0") == 2
        assert delta.value(count, mount="b", shard="0") == 1
        assert delta.total(count) == 3

    def test_up_reads_zero_after_degrade_and_close(self, sharded_dir):
        if not fork_available():
            pytest.skip("no fork pool on this platform")
        from repro.oracle.sharded import _PoolBroken

        def up(mount):
            return [v for _, v in _shard_series(mount)["repro_shard_up"]]

        pooled = ShardedOracle.load(sharded_dir, pool=True)
        degraded = ShardedOracle.load(sharded_dir, pool=True)
        router = OracleRouter()
        router.mount("pooled", pooled)
        router.mount("degraded", degraded)
        try:
            assert up("pooled") == up("degraded") == [1.0] * 4
            degraded._rebuilds_left = 0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                degraded._handle_pool_failure(_PoolBroken("test"))
            assert up("degraded") == [0.0] * 4
            assert up("pooled") == [1.0] * 4
            pooled.close()
            assert up("pooled") == [0.0] * 4
        finally:
            router.close()


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
