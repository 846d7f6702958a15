"""The serving layer: artifacts, query engine, service front end.

Covers the ISSUE 4 acceptance properties: save/load round-trips answer
queries bit-identically, version and graph-hash mismatches are rejected
loudly, a single query answers exactly as a batch does, the TZ bunch
combine is sound / within stretch / smallest-witness-tie-broken, and the JSON
service layer (including the stdlib HTTP server) answers and fails
gracefully.
"""

import json
import os
import urllib.request

import numpy as np
import pytest

from repro import oracle, variants
from repro.emulator.thorup_zwick import build_tz_bunches
from repro.graph import Graph, WeightedGraph
from repro.graph import generators as gen
from repro.graph.distances import all_pairs_distances, weighted_all_pairs
from repro.oracle import (
    ArtifactError,
    ArtifactMismatch,
    DistanceOracle,
    OracleService,
    build_oracle,
    graph_fingerprint,
    load_artifact,
    save_artifact,
    start_async_server,
)


@pytest.fixture(scope="module")
def served_graph():
    return gen.make_family("er_sparse", 90, seed=3)


@pytest.fixture(scope="module")
def exact(served_graph):
    return all_pairs_distances(served_graph)


def random_pairs(n, count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, count), rng.integers(0, n, count)


# Every registered variant whose artifact answers arbitrary pairs (the
# "sources" kind only covers pairs touching a source; it gets its own
# class below).
_PAIR_VARIANTS = sorted(
    s.name for s in variants.all_variants() if s.kind != "sources"
)


@pytest.fixture(scope="module", params=_PAIR_VARIANTS)
def artifact(request, served_graph):
    return build_oracle(
        served_graph,
        variant=request.param,
        rng=np.random.default_rng(7),
    )


class TestFingerprint:
    def test_stable_across_identical_builds(self):
        a = gen.make_family("grid", 49, seed=1)
        b = gen.make_family("grid", 49, seed=1)
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_differs_on_topology_and_weights(self):
        a = gen.make_family("grid", 49, seed=1)
        b = gen.make_family("path", 49, seed=1)
        assert graph_fingerprint(a) != graph_fingerprint(b)
        wa = a.to_weighted()
        assert graph_fingerprint(a) != graph_fingerprint(wa)
        wb = a.to_weighted()
        assert graph_fingerprint(wa) == graph_fingerprint(wb)
        wb.add_edge(0, 48, 3.0)
        assert graph_fingerprint(wa) != graph_fingerprint(wb)


class TestBuild:
    def test_unknown_variant_rejected(self, served_graph):
        with pytest.raises(ArtifactError, match="unknown oracle variant"):
            build_oracle(served_graph, variant="bogus")

    def test_weighted_rejects_unweighted_only_variants(self):
        wg = gen.make_family("grid", 25, seed=0).to_weighted()
        with pytest.raises(ArtifactError, match="unweighted-only"):
            build_oracle(wg, variant="2eps")

    def test_manifest_core_fields(self, artifact, served_graph):
        m = artifact.manifest
        assert m["format_version"] == oracle.FORMAT_VERSION
        assert m["n"] == served_graph.n
        assert m["graph_hash"] == graph_fingerprint(served_graph)
        assert m["kind"] in ("matrix", "bunches", "sources", "edges", "core")
        assert float(m["multiplicative"]) >= 1.0
        assert float(m["additive"]) >= 0.0
        json.dumps(m)  # the whole manifest must be JSON-serializable

    def test_matrix_variants_record_rounds(self, served_graph):
        art = build_oracle(
            served_graph, variant="near-additive",
            rng=np.random.default_rng(0),
        )
        assert art.manifest["rounds_total"] > 0
        assert isinstance(art.manifest["rounds_breakdown"], dict)


class TestSoundness:
    """Every served estimate is sound and within its advertised stretch."""

    def test_batch_guarantee(self, artifact, served_graph, exact):
        us, vs = random_pairs(served_graph.n, 400, seed=5)
        eng = DistanceOracle(artifact)
        vals = eng.query_batch(us, vs)
        ex = exact[us, vs]
        finite = np.isfinite(ex)
        assert np.isfinite(vals[finite]).all()
        assert (vals[finite] >= ex[finite] - 1e-9).all()
        bound = artifact.multiplicative * ex[finite] + artifact.additive
        assert (vals[finite] <= bound + 1e-9).all()
        assert (~np.isfinite(vals[~finite])).all()

    def test_single_equals_batch(self, artifact, served_graph):
        us, vs = random_pairs(served_graph.n, 60, seed=6)
        eng = DistanceOracle(artifact)
        batch = eng.query_batch(us, vs)
        singles = np.array([eng.query(int(u), int(v)) for u, v in zip(us, vs)])
        assert np.array_equal(batch, singles)

    def test_stretch_report_uses_analysis_layer(
        self, artifact, served_graph, exact
    ):
        us, vs = random_pairs(served_graph.n, 200, seed=8)
        eng = DistanceOracle(artifact)
        report = eng.stretch_report(us, vs, exact[us, vs])
        assert report.sound
        assert report.max_ratio <= artifact.multiplicative + artifact.additive

    def test_certificate_brackets_truth(self, artifact, served_graph, exact):
        eng = DistanceOracle(artifact)
        us, vs = random_pairs(served_graph.n, 40, seed=9)
        for u, v in zip(us, vs):
            cert = eng.certificate(int(u), int(v))
            assert cert.holds_for(float(exact[u, v]))
            assert cert.upper_bound == eng.query(int(u), int(v))

    def test_out_of_range_rejected(self, artifact):
        eng = DistanceOracle(artifact)
        with pytest.raises(IndexError):
            eng.query(0, eng.n)
        with pytest.raises(IndexError):
            eng.query_batch([-1], [0])

    def test_weighted_near_additive_oracle(self, tmp_path):
        """A weighted near-additive artifact (labels over the subdivided
        graph) serves ``apsp_weighted``'s estimates bit for bit, sound and
        within the guarantee, and only for original vertex ids."""
        from repro.apsp.weighted import apsp_weighted

        base = gen.make_family("er_sparse", 120, seed=2)
        rng = np.random.default_rng(4)
        wg = WeightedGraph(base.n)
        for u, v in base.edges():
            wg.add_edge(int(u), int(v), float(rng.integers(1, 7)))
        art = build_oracle(
            wg, variant="near-additive", rng=np.random.default_rng(1)
        )
        assert art.kind == "core"
        assert art.arrays["root"].size == art.manifest["stats"]["subdivided_n"]
        path = str(tmp_path / "na-weighted")
        save_artifact(art, path)
        eng = DistanceOracle.load(path, expected_graph=wg)
        want = apsp_weighted(
            wg, eps=art.params["eps"], r=art.params["r"],
            rng=np.random.default_rng(1),
        ).estimates
        us, vs = (a.ravel() for a in np.indices((wg.n,) * 2))
        vals = eng.query_batch(us, vs)
        assert np.array_equal(
            vals.view(np.uint64), want[us, vs].view(np.uint64)
        )
        exact = weighted_all_pairs(wg)[us, vs]
        finite = np.isfinite(exact)
        assert np.array_equal(finite, np.isfinite(vals))
        assert (vals[finite] >= exact[finite]).all()
        assert (
            vals[finite]
            <= art.multiplicative * exact[finite] + art.additive + 1e-9
        ).all()
        with pytest.raises(IndexError):
            eng.query_batch([0], [wg.n])


class TestTZCombine:
    def test_witness_is_smallest_id_on_ties(self):
        # A 4-star: both query endpoints see witnesses 1 and 2 at equal
        # combined distance; the policy picks witness 1.
        g = Graph(4, [(0, 1), (0, 2), (3, 1), (3, 2)])
        bunches = build_tz_bunches(g, r=1, rng=np.random.default_rng(0))
        art = oracle.OracleArtifact(
            manifest={
                "format_version": 1, "kind": "bunches", "variant": "tz",
                "n": 4, "graph_m": g.m, "weighted": False,
                "multiplicative": 3.0, "additive": 0.0,
                "graph_hash": graph_fingerprint(g), "includes_graph": False,
            },
            arrays={
                "bunch_srcs": bunches.srcs,
                "bunch_dsts": bunches.dsts,
                "bunch_ds": bunches.dists,
            },
        )
        eng = DistanceOracle(art)
        cert = eng.certificate(0, 3)
        assert cert.estimate == 2.0
        assert cert.witness == 1

    def test_direct_edge_and_self_query(self, served_graph):
        art = build_oracle(
            served_graph, variant="tz", rng=np.random.default_rng(7)
        )
        eng = DistanceOracle(art)
        # self queries are 0 with the vertex as its own witness
        cert = eng.certificate(5, 5)
        assert cert.estimate == 0.0 and cert.witness == 5
        # a stored bunch arc answers with at most its exact weight, in
        # both query directions (the relation is directed, the answer
        # is not)
        u = int(art.arrays["bunch_srcs"][0])
        v = int(art.arrays["bunch_dsts"][0])
        d = float(art.arrays["bunch_ds"][0])
        assert eng.query(u, v) <= d
        assert eng.query(v, u) <= d

    def test_weighted_tz_oracle(self):
        base = gen.make_family("er_sparse", 60, seed=2)
        rng = np.random.default_rng(4)
        wg = WeightedGraph(base.n)
        for u, v in base.edges():
            wg.add_edge(int(u), int(v), float(rng.integers(1, 7)))
        art = build_oracle(wg, variant="tz", rng=np.random.default_rng(1))
        eng = DistanceOracle(art)
        exact = weighted_all_pairs(wg)
        us, vs = random_pairs(wg.n, 200, seed=3)
        vals = eng.query_batch(us, vs)
        ex = exact[us, vs]
        finite = np.isfinite(ex)
        assert (vals[finite] >= ex[finite] - 1e-9).all()
        assert (vals[finite] <= art.multiplicative * ex[finite] + 1e-9).all()


class TestPersistence:
    def test_roundtrip_bit_identical(self, artifact, served_graph, tmp_path):
        path = str(tmp_path / "artifact")
        save_artifact(artifact, path)
        loaded = load_artifact(path, expected_graph=served_graph)
        # Saving adds the per-array checksums; everything else must
        # round-trip bit-identically.
        roundtripped = dict(loaded.manifest)
        assert roundtripped.pop("checksums")
        assert roundtripped == json.loads(json.dumps(artifact.manifest))
        us, vs = random_pairs(served_graph.n, 300, seed=11)
        before = DistanceOracle(artifact).query_batch(us, vs)
        after = DistanceOracle(loaded).query_batch(us, vs)
        assert np.array_equal(before, after)  # inf placement included

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="not an oracle artifact"):
            load_artifact(str(tmp_path / "nope"))

    def test_newer_version_rejected(self, artifact, served_graph, tmp_path):
        path = str(tmp_path / "vnext")
        save_artifact(artifact, path)
        manifest_file = os.path.join(path, oracle.artifact.MANIFEST_NAME)
        with open(manifest_file) as fh:
            manifest = json.load(fh)
        manifest["format_version"] = oracle.FORMAT_VERSION + 1
        with open(manifest_file, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ArtifactError, match="newer than"):
            load_artifact(path)

    def test_graph_hash_mismatch_rejected(
        self, artifact, served_graph, tmp_path
    ):
        path = str(tmp_path / "hash")
        save_artifact(artifact, path)
        other = gen.make_family("er_sparse", served_graph.n, seed=99)
        with pytest.raises(ArtifactMismatch, match="rebuild"):
            load_artifact(path, expected_graph=other)
        # and the loaded artifact can re-check later (serving-time guard)
        loaded = load_artifact(path)
        with pytest.raises(ArtifactMismatch):
            loaded.check_graph(other)

    def test_missing_arrays_rejected(self, artifact, served_graph, tmp_path):
        path = str(tmp_path / "partial")
        save_artifact(artifact, path)
        required = oracle.artifact._KIND_ARRAYS[artifact.kind][0]
        arrays = {
            k: v for k, v in artifact.arrays.items() if k != required
        }
        arrays.pop("estimates", None)  # lives in estimates.npy (format 2)
        np.savez_compressed(
            os.path.join(path, oracle.artifact.ARRAYS_NAME), **arrays
        )
        # estimates.npy or core_dist.npy, when the kind maps its array
        npy = os.path.join(path, f"{required}.npy")
        if os.path.exists(npy):
            os.remove(npy)
        with pytest.raises(ArtifactError, match=required):
            load_artifact(path)

    def test_malformed_manifest_rejected(self, artifact, tmp_path):
        path = str(tmp_path / "bad")
        save_artifact(artifact, path)
        with open(os.path.join(path, oracle.artifact.MANIFEST_NAME), "w") as fh:
            fh.write("{not json")
        with pytest.raises(ArtifactError, match="unreadable manifest"):
            load_artifact(path)
        # Valid JSON that is no object fails in the one manifest reader
        # of plain and sharded loads.
        with open(os.path.join(path, oracle.artifact.MANIFEST_NAME), "w") as fh:
            fh.write("5")
        with pytest.raises(ArtifactError, match="not a JSON object"):
            load_artifact(path)
        with pytest.raises(ArtifactError, match="not a JSON object"):
            oracle.ShardedOracle.load(path)

    def test_core_bad_shape_fails_at_load(self, tmp_path):
        g = gen.make_family("er_sparse", 60, seed=5)
        art = build_oracle(
            g, variant="near-additive", rng=np.random.default_rng(5)
        )
        path = str(tmp_path / "na-bad")
        save_artifact(art, path)
        npy = os.path.join(path, "core_dist.npy")
        np.save(npy, np.load(npy)[1:])
        with pytest.raises(ArtifactError, match="core_dist of shape"):
            DistanceOracle.load(path)

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("format_version", "1.x", "non-integer format_version"),
            ("n", None, "non-numeric 'n'"),
            ("multiplicative", "wide", "non-numeric 'multiplicative'"),
        ],
    )
    def test_corrupt_manifest_values_rejected(
        self, artifact, tmp_path, key, value, match
    ):
        path = str(tmp_path / f"corrupt-{key}")
        save_artifact(artifact, path)
        manifest_file = os.path.join(path, oracle.artifact.MANIFEST_NAME)
        with open(manifest_file) as fh:
            manifest = json.load(fh)
        manifest[key] = value
        with open(manifest_file, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ArtifactError, match=match):
            load_artifact(path)


class TestSingleQueries:
    def test_single_queries_are_one_pair_batches(self, served_graph):
        us = np.array([1, 1, 3, 0, 1, 3])
        vs = np.array([2, 2, 4, 5, 2, 4])
        for variant in ("near-additive", "tz"):
            art = build_oracle(
                served_graph, variant=variant, rng=np.random.default_rng(7)
            )
            eng = DistanceOracle(art)
            batch = eng.query_batch(us, vs)
            singles = [eng.query(u, v) for u, v in zip(us, vs)]
            certs = [eng.certificate(u, v).estimate for u, v in zip(us, vs)]
            assert np.array_equal(singles, batch), variant
            assert np.array_equal(certs, batch), variant
            assert eng.stats() == {
                "queries": 3 * us.size,
                "batched_queries": us.size,
                "cache_hits": 0,
                "cache_misses": 2 * us.size,
            }


class TestPaths:
    @pytest.mark.parametrize("variant", ["near-additive", "tz"])
    def test_path_certifies_estimate(self, served_graph, exact, variant):
        art = build_oracle(
            served_graph, variant=variant, rng=np.random.default_rng(7)
        )
        eng = DistanceOracle(art)
        us, vs = random_pairs(served_graph.n, 25, seed=13)
        for u, v in zip(us, vs):
            u, v = int(u), int(v)
            path = eng.path(u, v)
            if not np.isfinite(exact[u, v]):
                assert path is None
                continue
            assert path is not None and path[0] == u and path[-1] == v
            for a, b in zip(path, path[1:]):
                assert served_graph.has_edge(a, b)
            assert len(path) - 1 >= exact[u, v] - 1e-9  # real G-path

    def test_path_needs_embedded_graph(self, served_graph):
        art = build_oracle(
            served_graph, variant="exact",
            rng=np.random.default_rng(7), include_graph=False,
        )
        eng = DistanceOracle(art)
        with pytest.raises(ArtifactError, match="include_graph"):
            eng.path(0, 1)


class TestService:
    @pytest.fixture(scope="class")
    def service(self, served_graph):
        art = build_oracle(
            served_graph, variant="tz", rng=np.random.default_rng(7)
        )
        return OracleService(DistanceOracle(art))

    def test_single_distance(self, service):
        status, body = service.handle({"u": 0, "v": 3})
        assert status == 200
        assert body["u"] == 0 and body["v"] == 3
        assert body["distance"] is None or body["distance"] >= 0

    def test_batched_pairs(self, service, served_graph, exact):
        us, vs = random_pairs(served_graph.n, 50, seed=17)
        status, body = service.handle(
            {"op": "distance", "pairs": [[int(u), int(v)] for u, v in zip(us, vs)]}
        )
        assert status == 200
        assert body["count"] == 50
        served = np.array(
            [np.inf if d is None else d for d in body["distances"]]
        )
        direct = service.oracle.query_batch(us, vs)
        assert np.array_equal(served, direct)

    def test_parallel_arrays(self, service):
        status, body = service.handle({"us": [0, 1], "vs": [2, 3]})
        assert status == 200 and body["count"] == 2

    def test_certificate_and_path_and_info(self, service):
        status, cert = service.handle({"op": "certificate", "u": 0, "v": 5})
        assert status == 200
        assert cert["multiplicative"] >= 1.0
        status, path = service.handle({"op": "path", "u": 0, "v": 5})
        assert status == 200
        if path["path"] is not None:
            assert path["hops"] == len(path["path"]) - 1
        status, info = service.handle({"op": "info"})
        assert status == 200
        assert info["manifest"]["variant"] == "tz"
        assert info["stats"]["queries"] > 0

    @pytest.mark.parametrize(
        "request_body, match",
        [
            ({"op": "bogus"}, "unknown op"),
            ({"op": "distance"}, "needs 'u' and 'v'"),
            ({"u": 0, "v": 10 ** 6}, "out of range"),
            ({"pairs": [[0, 1, 2]]}, "pairs"),
            ({"us": [0, 1], "vs": [2]}, "same length"),
            ("not a dict", "JSON object"),
        ],
    )
    def test_graceful_errors(self, service, request_body, match):
        status, body = service.handle(request_body)
        assert 400 <= status < 500
        assert match in body["error"]

    def test_http_roundtrip(self, service):
        server = start_async_server(service.oracle, port=0)
        try:
            host, port = server.server_address[:2]
            base = f"http://{host}:{port}"
            health = json.loads(urllib.request.urlopen(f"{base}/healthz").read())
            assert health["ok"] is True
            assert health["version"]
            assert health["uptime_s"] >= 0
            assert health["artifacts"] == 1
            req = urllib.request.Request(
                f"{base}/query",
                data=json.dumps({"pairs": [[0, 1], [2, 2]]}).encode(),
                headers={"Content-Type": "application/json"},
            )
            body = json.loads(urllib.request.urlopen(req).read())
            assert body["count"] == 2
            assert body["distances"][1] == 0.0
            info = json.loads(urllib.request.urlopen(f"{base}/info").read())
            assert "manifest" in info
            bad = urllib.request.Request(
                f"{base}/query", data=b"{broken", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(bad)
            assert err.value.code == 400
        finally:
            server.drain_and_shutdown()


class TestCLI:
    def test_build_query_serve_pipeline(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "oracle")
        assert main([
            "build-oracle", "--family", "grid", "--n", "64",
            "--variant", "exact", "--out", out,
        ]) == 0
        assert "artifact written" in capsys.readouterr().out
        assert main(["query", "--artifact", out, "--u", "0", "--v", "63",
                     "--cert", "--path"]) == 0
        text = capsys.readouterr().out
        assert "d(0, 63)" in text and "certificate" in text and "path" in text
        assert main(["query", "--artifact", out, "--pairs", "0:5,1:7"]) == 0
        assert "estimate" in capsys.readouterr().out

    def test_cli_missing_artifact_graceful(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["query", "--artifact", str(tmp_path / "nope"),
                   "--u", "0", "--v", "1"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_cli_tz_build(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "tz")
        assert main([
            "build-oracle", "--family", "path", "--n", "50",
            "--variant", "tz", "--out", out,
        ]) == 0
        assert "kind=bunches" in capsys.readouterr().out
