"""The variant registry and everything it drives (ISSUE 5).

Covers: spec completeness (every registered variant builds, saves,
loads, and answers a query batch bit-identically after the round-trip),
duplicate-name registration failing loudly, the parameter schema
(defaults, range validation, unknown parameters), the multi-artifact
router (per-name routing, 404 on unknown names, merged ``/info``),
mmap-backed matrix artifacts answering identically, and the pinned
pre-refactor artifact fixtures (format-1 bytes built before the
registry existed) loading and replaying bit-identically.
"""

import json
import os
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import oracle, variants
from repro.kernels import hop_limited_relax
from repro.graph import generators as gen
from repro.oracle import (
    ArtifactError,
    DistanceOracle,
    OracleArtifact,
    OracleRouter,
    build_oracle,
    load_artifact,
    save_artifact,
    start_async_server,
)
from repro.oracle.engine import edges_csr, edges_sssp_batch
from repro.variants import (
    EmulatorConstruction,
    ParamSpec,
    UnknownVariantError,
    VariantBuild,
    VariantParamError,
    VariantSpec,
    register_emulator_construction,
    register_variant,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "data", "prerefactor")


@pytest.fixture(scope="module")
def small_graph():
    return gen.make_family("er_sparse", 48, seed=5)


def _query_pairs(spec, artifact, count=60, seed=3):
    """A valid query batch for any artifact kind (sources-kind queries
    must touch a source)."""
    rng = np.random.default_rng(seed)
    n = artifact.n
    vs = rng.integers(0, n, count).astype(np.int64)
    if spec.kind == "sources":
        sources = np.asarray(artifact.arrays["sources"], dtype=np.int64)
        us = sources[rng.integers(0, sources.size, count)]
    else:
        us = rng.integers(0, n, count).astype(np.int64)
    return us, vs


class TestRegistry:
    def test_every_variant_registered_with_complete_spec(self):
        specs = variants.all_variants()
        assert {s.name for s in specs} >= {
            "near-additive", "2eps", "3eps", "exact", "squaring",
            "spanner", "mssp", "tz", "emulator-sssp",
        }
        for spec in specs:
            assert spec.kind in ("matrix", "bunches", "sources", "edges")
            assert spec.summary and spec.guarantee
            assert callable(spec.build)
            assert spec.stretch is None or callable(spec.stretch)

    def test_duplicate_name_fails_loudly(self):
        with pytest.raises(variants.VariantError, match="already registered"):
            register_variant(VariantSpec(
                name="tz", kind="bunches", summary="dup", guarantee="dup",
                build=lambda g, **_: VariantBuild(
                    arrays={}, name="dup", multiplicative=1.0, additive=0.0
                ),
            ))

    def test_bad_kind_rejected(self):
        with pytest.raises(variants.VariantError, match="unknown artifact kind"):
            register_variant(VariantSpec(
                name="never-registered", kind="blob", summary="x",
                guarantee="x",
                build=lambda g, **_: None,
            ))

    def test_unknown_variant_lists_registry(self):
        with pytest.raises(UnknownVariantError, match="tz"):
            variants.get_variant("nope")

    def test_duplicate_emulator_construction_fails(self):
        with pytest.raises(variants.VariantError, match="already registered"):
            register_emulator_construction(EmulatorConstruction(
                name="cc", build=None, guarantee=None,
            ))

    def test_unknown_emulator_construction_lists_known(self):
        assert set(variants.emulator_construction_names()) == {
            "ideal", "cc", "whp", "deterministic",
        }
        with pytest.raises(UnknownVariantError, match="ideal"):
            variants.emulator_construction("bogus")


class TestParamSchema:
    def test_defaults_fill_including_derived(self, small_graph):
        spec = variants.get_variant("near-additive")
        params = spec.resolve_params({}, n=small_graph.n)
        assert params["eps"] == 0.5
        assert params["r"] >= 1  # the paper's default r = log log n

    def test_out_of_range_names_variant_and_range(self):
        spec = variants.get_variant("2eps")
        with pytest.raises(VariantParamError, match="0 < eps < 1"):
            spec.resolve_params({"eps": 2.0}, n=64)
        with pytest.raises(VariantParamError, match="'2eps'"):
            spec.resolve_params({"eps": 0.0}, n=64)
        with pytest.raises(VariantParamError, match=r"r=0"):
            spec.resolve_params({"r": 0}, n=64)

    def test_unknown_parameter_rejected(self):
        spec = variants.get_variant("tz")
        with pytest.raises(VariantParamError, match="no parameter"):
            spec.resolve_params({"eps": 0.5}, n=64)
        spec = variants.get_variant("exact")
        with pytest.raises(VariantParamError, match="takes no parameters"):
            spec.resolve_params({"eps": 0.5}, n=64)

    def test_non_integer_rejected(self):
        spec = variants.get_variant("tz")
        with pytest.raises(VariantParamError, match="integer"):
            spec.resolve_params({"r": 2.5}, n=64)
        assert spec.resolve_params({"r": 2.0}, n=64) == {"r": 2}

    def test_none_means_default(self):
        spec = variants.get_variant("2eps")
        assert spec.resolve_params({"eps": None, "r": None}, n=64) == \
            spec.resolve_params({}, n=64)

    def test_describe_range(self):
        eps = variants.get_variant("2eps").params[0]
        assert eps.describe_range() == "0 < eps < 1"


class TestSpecCompleteness:
    """Every registered variant builds, saves, loads, and replays its
    query batch bit-identically (the registry's end-to-end contract)."""

    @pytest.mark.parametrize(
        "name", [s.name for s in variants.all_variants()]
    )
    def test_build_save_load_query_roundtrip(self, name, small_graph, tmp_path):
        spec = variants.get_variant(name)
        artifact = build_oracle(
            small_graph, variant=name, rng=np.random.default_rng(7)
        )
        assert artifact.kind == spec.kind
        assert artifact.manifest["params"] == \
            oracle.artifact._jsonable(
                spec.resolve_params({}, n=small_graph.n))
        us, vs = _query_pairs(spec, artifact)
        fresh = DistanceOracle(artifact).query_batch(us, vs)

        path = str(tmp_path / name)
        save_artifact(artifact, path)
        for mmap in (False, True):
            loaded = DistanceOracle.load(path, mmap=mmap)
            got = loaded.query_batch(us, vs)
            assert got.dtype == np.float64 and np.array_equal(fresh, got)
        # Unweighted distances are small integers: every array is stored
        # narrow (int32 ids, float32 distances) and still answers the same.
        assert {a.dtype.str for a in loaded.artifact.arrays.values()} <= {
            "<i4", "<f4"
        }

    @pytest.mark.parametrize(
        "name", [s.name for s in variants.all_variants()
                 if s.stretch is not None]
    )
    def test_manifest_matches_stretch_formula(self, name, small_graph):
        spec = variants.get_variant(name)
        artifact = build_oracle(
            small_graph, variant=name, rng=np.random.default_rng(7)
        )
        params = spec.resolve_params({}, n=small_graph.n)
        mult, add = spec.stretch(small_graph.n, **params)
        assert artifact.multiplicative == pytest.approx(mult)
        assert artifact.additive == pytest.approx(add)

    @pytest.mark.parametrize(
        "name", [s.name for s in variants.cli_algo_variants()]
    )
    def test_cli_run_callable(self, name, small_graph):
        spec = variants.get_variant(name)
        params = spec.resolve_params({}, n=small_graph.n)
        res = spec.run(small_graph, rng=np.random.default_rng(0), **params)
        assert res.estimates.shape == (small_graph.n, small_graph.n)


class TestSourcesKind:
    @pytest.fixture(scope="class")
    def mssp_artifact(self, small_graph):
        return build_oracle(
            small_graph, variant="mssp", rng=np.random.default_rng(7)
        )

    def test_covered_queries_within_guarantee(self, small_graph, mssp_artifact):
        from repro.graph.distances import all_pairs_distances

        exact = all_pairs_distances(small_graph)
        eng = DistanceOracle(mssp_artifact)
        us, vs = _query_pairs(
            variants.get_variant("mssp"), mssp_artifact, count=120
        )
        vals = eng.query_batch(us, vs)
        ex = exact[us, vs]
        finite = np.isfinite(ex)
        assert (vals[finite] >= ex[finite] - 1e-9).all()
        bound = mssp_artifact.multiplicative * ex[finite]
        assert (vals[finite] <= bound + 1e-9).all()

    def test_either_endpoint_may_be_the_source(self, mssp_artifact):
        eng = DistanceOracle(mssp_artifact)
        s = int(mssp_artifact.arrays["sources"][0])
        # (s, 5) reads row(s) directly; (5, s) falls back to the v
        # endpoint's row — the same matrix cell, so the answers match.
        assert eng.query(s, 5) == eng.query(5, s)

    def test_self_pair_is_zero_even_off_source(self, mssp_artifact):
        eng = DistanceOracle(mssp_artifact)
        non_source = int(np.flatnonzero(
            np.isin(np.arange(mssp_artifact.n),
                    mssp_artifact.arrays["sources"], invert=True))[0])
        assert eng.query(non_source, non_source) == 0.0

    def test_uncovered_pair_fails_loudly(self, mssp_artifact):
        eng = DistanceOracle(mssp_artifact)
        sources = set(int(s) for s in mssp_artifact.arrays["sources"])
        u, v = [x for x in range(mssp_artifact.n) if x not in sources][:2]
        with pytest.raises(ArtifactError, match="touches no source"):
            eng.query(u, v)


def _relax_fixpoint(n, eu, ev, ew):
    """All-pairs distances over an undirected edge list, duplicates
    included: :func:`hop_limited_relax` from every vertex, run to its
    fixpoint over both arc directions (the reference for the edges
    kind's Dijkstra)."""
    seed = np.full((n, n), np.inf)
    np.fill_diagonal(seed, 0.0)
    return hop_limited_relax(
        seed,
        np.concatenate([eu, ev]),
        np.concatenate([ev, eu]),
        np.concatenate([ew, ew]),
        max_hops=n,
    )


class TestEdgesKind:
    """The ``emulator-sssp`` variant: O(emulator) storage, SSSP at
    query time (ISSUE 7 satellite)."""

    @pytest.fixture(scope="class")
    def edges_artifact(self, small_graph):
        return build_oracle(
            small_graph, variant="emulator-sssp",
            rng=np.random.default_rng(7),
        )

    def test_within_guarantee_and_sound(self, small_graph, edges_artifact):
        from repro.graph.distances import all_pairs_distances

        exact = all_pairs_distances(small_graph)
        eng = DistanceOracle(edges_artifact)
        n = small_graph.n
        us, vs = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        vals = eng.query_batch(us.ravel(), vs.ravel()).reshape(n, n)
        finite = np.isfinite(exact)
        assert (vals[finite] >= exact[finite] - 1e-9).all()  # sound
        bound = (edges_artifact.multiplicative * exact[finite]
                 + edges_artifact.additive)
        assert (vals[finite] <= bound + 1e-9).all()
        assert (vals[~finite] == np.inf).all()

    def test_save_load_query_bit_identical(self, edges_artifact, tmp_path):
        spec = variants.get_variant("emulator-sssp")
        us, vs = _query_pairs(spec, edges_artifact, count=80)
        fresh = DistanceOracle(edges_artifact)
        path = str(tmp_path / "es")
        save_artifact(edges_artifact, path)
        loaded = DistanceOracle.load(path)
        assert np.array_equal(
            fresh.query_batch(us, vs), loaded.query_batch(us, vs)
        )

    def test_storage_is_subquadratic(self, edges_artifact, small_graph):
        n = small_graph.n
        stored = edges_artifact.arrays["emu_us"].size
        assert stored < n * n / 2  # the point of the edges kind

    def test_path_queries_work(self, edges_artifact, small_graph):
        from repro.graph.distances import all_pairs_distances

        exact = all_pairs_distances(small_graph)
        eng = DistanceOracle(edges_artifact)
        u, v = 0, int(np.flatnonzero(np.isfinite(exact[0]))[-1])
        path = eng.path(u, v)
        assert path[0] == u and path[-1] == v

    def test_stored_edges_are_merged(self, edges_artifact, small_graph):
        us = edges_artifact.arrays["emu_us"]
        vs = edges_artifact.arrays["emu_vs"]
        assert (us < vs).all()
        keys = us * small_graph.n + vs
        assert (np.diff(keys) > 0).all()  # sorted, each edge once
        # Every G edge is stored, at weight <= 1.
        stored = dict(zip(keys.tolist(), edges_artifact.arrays["emu_ws"]))
        ge = small_graph.edges()
        for u, v in ge:
            assert stored[min(u, v) * small_graph.n + max(u, v)] <= 1.0

    def test_duplicate_edges_answer_as_merged(self, edges_artifact):
        # Older builds stored every G edge next to the emulator's; the
        # decoder min-merges, so such an artifact answers == its merged
        # form (csr_matrix alone would sum the duplicates).
        a = edges_artifact.arrays
        us, vs, ws = a["emu_us"], a["emu_vs"], a["emu_ws"]
        laden = OracleArtifact(
            manifest=dict(edges_artifact.manifest),
            arrays={
                **a,
                "emu_us": np.concatenate([us, vs, us]),
                "emu_vs": np.concatenate([vs, us, vs]),
                "emu_ws": np.concatenate([ws, ws + 3.0, ws + 0.5]),
            },
        )
        n = edges_artifact.n
        qu, qv = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        qu, qv = qu.ravel(), qv.ravel()
        assert np.array_equal(
            DistanceOracle(laden).query_batch(qu, qv),
            DistanceOracle(edges_artifact).query_batch(qu, qv),
        )

    @pytest.mark.parametrize("change, match", [
        ({"emu_ws": np.array([1.0, -1.0])}, "negative or NaN"),
        ({"emu_ws": np.array([1.0, np.nan])}, "negative or NaN"),
        ({"emu_vs": np.array([1, 3])}, "out of range"),
        ({"emu_vs": np.array([1, 2, 0])}, "equal-length"),
        ({"emu_ws": None}, "no 'emu_ws' array"),
    ], ids=["negative", "nan", "out-of-range", "unequal-length", "missing"])
    def test_bad_edge_arrays_rejected(self, change, match):
        arrays = {
            "emu_us": np.array([0, 1]),
            "emu_vs": np.array([1, 2]),
            "emu_ws": np.array([1.0, 2.0]),
            **change,
        }
        arrays = {k: v for k, v in arrays.items() if v is not None}
        with pytest.raises(ArtifactError, match=match):
            edges_csr(3, arrays)

    def test_many_sources_match_relax(self):
        # More distinct sources than one Dijkstra call takes (64), so
        # the batch spans three calls.
        rng = np.random.default_rng(4)
        n = 150
        eu = rng.integers(0, n, 400)
        ev = rng.integers(0, n, 400)
        ew = rng.integers(0, 6, 400).astype(np.float64)
        us = np.repeat(np.arange(n), n)
        vs = np.tile(np.arange(n), n)
        csr = edges_csr(n, {"emu_us": eu, "emu_vs": ev, "emu_ws": ew})
        got, _ = edges_sssp_batch(csr, us, vs)
        assert np.array_equal(got, _relax_fixpoint(n, eu, ev, ew)[us, vs])

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_sssp_equals_relax_fixpoint(self, data):
        n = data.draw(st.integers(1, 9), label="n")
        weight = data.draw(st.sampled_from([
            st.integers(0, 9).map(float),             # integer
            st.integers(0, 64).map(lambda k: k / 8),  # dyadic
            st.just(0.0),                             # zero
        ]), label="weights")
        vertex = st.integers(0, n - 1)
        edges = data.draw(
            st.lists(st.tuples(vertex, vertex, weight), max_size=2 * n),
            label="edges",
        )
        # Parallel arcs: re-add drawn edges, either orientation, at
        # another weight.
        for i in data.draw(st.lists(
            st.integers(0, max(len(edges) - 1, 0)),
            max_size=len(edges),
        ), label="parallel"):
            u, v, _ = edges[i]
            edges.append((v, u, data.draw(weight)))
        eu, ev, ew = (
            np.array([e[k] for e in edges], dtype=dt)
            for k, dt in ((0, np.int64), (1, np.int64), (2, np.float64))
        )
        us = np.repeat(np.arange(n), n)
        vs = np.tile(np.arange(n), n)
        csr = edges_csr(n, {"emu_us": eu, "emu_vs": ev, "emu_ws": ew})
        got, wits = edges_sssp_batch(csr, us, vs)
        assert np.array_equal(got, _relax_fixpoint(n, eu, ev, ew)[us, vs])
        assert (wits == -1).all()


class TestMmap:
    def test_mmap_answers_identical(self, small_graph, tmp_path):
        artifact = build_oracle(
            small_graph, variant="near-additive",
            rng=np.random.default_rng(7),
        )
        path = str(tmp_path / "na")
        save_artifact(artifact, path)
        assert os.path.isfile(os.path.join(path, oracle.artifact.ESTIMATES_NAME))
        rng = np.random.default_rng(2)
        us = rng.integers(0, small_graph.n, 500)
        vs = rng.integers(0, small_graph.n, 500)
        full = DistanceOracle.load(path)
        mapped = DistanceOracle.load(path, mmap=True)
        assert isinstance(
            mapped.artifact.arrays["estimates"], np.memmap
        )
        assert np.array_equal(
            full.query_batch(us, vs), mapped.query_batch(us, vs)
        )

    def test_v1_artifact_mmap_falls_back_to_full_load(self):
        path = os.path.join(FIXTURES, "near-additive")
        art = load_artifact(path, mmap=True)  # estimates inside the npz
        assert not isinstance(art.arrays["estimates"], np.memmap)

    def test_bad_params_echo_rejected_on_load(self, small_graph, tmp_path):
        artifact = build_oracle(
            small_graph, variant="2eps", rng=np.random.default_rng(7)
        )
        path = str(tmp_path / "bad-params")
        save_artifact(artifact, path)
        mf = os.path.join(path, oracle.artifact.MANIFEST_NAME)
        with open(mf) as fh:
            manifest = json.load(fh)
        manifest["params"]["eps"] = 7.0
        with open(mf, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ArtifactError, match="parameter schema"):
            load_artifact(path)


class TestPreRefactorBitIdentity:
    """Artifacts whose bytes were written *before* this refactor
    (format 1: every array inside arrays.npz) load and answer the pinned
    query batch bit-identically, and fresh builds still reproduce the
    same answers."""

    @pytest.fixture(scope="class")
    def fixture_graph(self):
        with open(os.path.join(FIXTURES, "meta.json")) as fh:
            meta = json.load(fh)
        return gen.make_family(meta["family"], meta["n"], seed=meta["seed"])

    @pytest.fixture(scope="class")
    def pinned_queries(self):
        return (
            np.load(os.path.join(FIXTURES, "query_us.npy")),
            np.load(os.path.join(FIXTURES, "query_vs.npy")),
        )

    @pytest.mark.parametrize("variant", ["near-additive", "tz"])
    def test_pinned_artifact_replays_bit_identically(
        self, variant, fixture_graph, pinned_queries
    ):
        path = os.path.join(FIXTURES, variant)
        art = load_artifact(path, expected_graph=fixture_graph)
        assert int(art.manifest["format_version"]) == 1  # pre-refactor bytes
        # Loaded as stored: no narrowing, no widening on read.
        assert {a.dtype.str for a in art.arrays.values()} == {"<i8", "<f8"}
        us, vs = pinned_queries
        got = DistanceOracle(art).query_batch(us, vs)
        expected = np.load(os.path.join(FIXTURES, f"{variant}-answers.npy"))
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("variant", ["near-additive", "tz"])
    def test_fresh_build_matches_pinned_answers(
        self, variant, fixture_graph, pinned_queries
    ):
        art = build_oracle(
            fixture_graph, variant=variant, rng=np.random.default_rng(7)
        )
        us, vs = pinned_queries
        got = DistanceOracle(art).query_batch(us, vs)
        expected = np.load(os.path.join(FIXTURES, f"{variant}-answers.npy"))
        assert np.array_equal(got, expected)

    def test_resave_upgrades_format_and_keeps_answers(
        self, fixture_graph, pinned_queries, tmp_path
    ):
        us, vs = pinned_queries
        for variant in ("near-additive", "tz"):
            art = load_artifact(os.path.join(FIXTURES, variant))
            out = str(tmp_path / variant)
            save_artifact(art, out)
            with open(os.path.join(out, oracle.artifact.MANIFEST_NAME)) as fh:
                assert json.load(fh)["format_version"] == oracle.FORMAT_VERSION
            # Re-saving narrows the int64/float64 arrays and records
            # checksums of the narrowed bytes.
            again = load_artifact(out, mmap=True, verify=True)
            assert {a.dtype.str for a in again.arrays.values()} == {
                "<i4", "<f4"
            }
            got = DistanceOracle(again).query_batch(us, vs)
            expected = np.load(
                os.path.join(FIXTURES, f"{variant}-answers.npy"))
            assert np.array_equal(got, expected)


class TestRouter:
    @pytest.fixture(scope="class")
    def router(self, small_graph, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("router")
        mounts = []
        for name, variant in (("tz", "tz"), ("na", "near-additive")):
            art = build_oracle(
                small_graph, variant=variant, rng=np.random.default_rng(7)
            )
            path = str(tmp / name)
            save_artifact(art, path)
            mounts.append((name, path))
        return OracleRouter.load(mounts)

    def test_routes_by_name(self, router):
        assert router.names == ("tz", "na")
        s_tz, body_tz = router.handle({"u": 0, "v": 7}, name="tz")
        s_na, body_na = router.handle({"u": 0, "v": 7}, name="na")
        assert s_tz == s_na == 200
        assert body_tz["distance"] is not None
        assert body_na["distance"] is not None

    def test_unknown_name_404_lists_mounted(self, router):
        status, body = router.handle({"u": 0, "v": 1}, name="nope")
        assert status == 404
        assert body["artifacts"] == ["tz", "na"]

    def test_bare_query_ambiguous_with_many(self, router):
        status, body = router.handle({"u": 0, "v": 1})
        assert status == 400
        assert "multiple artifacts" in body["error"]

    def test_bare_query_routes_with_one(self, small_graph):
        art = build_oracle(
            small_graph, variant="exact", rng=np.random.default_rng(0)
        )
        router = OracleRouter()
        router.mount("only", DistanceOracle(art))
        status, body = router.handle({"u": 0, "v": 1})
        assert status == 200 and "distance" in body

    def test_merged_info(self, router):
        status, info = router.info()
        assert status == 200
        assert set(info["artifacts"]) == {"tz", "na"}
        assert info["count"] == 2
        assert info["artifacts"]["na"]["manifest"]["variant"] == "near-additive"
        status, one = router.info(name="tz")
        assert status == 200 and one["manifest"]["variant"] == "tz"

    def test_duplicate_mount_fails(self, router, small_graph):
        art = build_oracle(
            small_graph, variant="exact", rng=np.random.default_rng(0)
        )
        with pytest.raises(ArtifactError, match="already mounted"):
            router.mount("tz", DistanceOracle(art))
        with pytest.raises(ArtifactError, match="route segment"):
            router.mount("a/b", DistanceOracle(art))

    def test_http_per_artifact_routes(self, router):
        server = start_async_server(router, port=0)
        try:
            host, port = server.server_address[:2]
            base = f"http://{host}:{port}"
            for name in ("tz", "na"):
                req = urllib.request.Request(
                    f"{base}/query/{name}",
                    data=json.dumps({"pairs": [[0, 1], [2, 2]]}).encode(),
                )
                body = json.loads(urllib.request.urlopen(req).read())
                assert body["count"] == 2 and body["distances"][1] == 0.0
            info = json.loads(urllib.request.urlopen(f"{base}/info").read())
            assert set(info["artifacts"]) == {"tz", "na"}
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(urllib.request.Request(
                    f"{base}/query/bogus", data=b"{}"))
            assert err.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(urllib.request.Request(
                    f"{base}/query", data=json.dumps({"u": 0, "v": 1}).encode()))
            assert err.value.code == 400
        finally:
            server.drain_and_shutdown()

    def test_cli_serve_mount_parsing(self):
        from repro.cli import _parse_artifact_mounts

        assert _parse_artifact_mounts(["a=/x", "/y"]) == [("a", "/x"), (None, "/y")]
        with pytest.raises(ArtifactError, match="NAME=PATH"):
            _parse_artifact_mounts(["=/x"])
