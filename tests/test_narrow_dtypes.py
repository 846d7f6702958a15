"""The artifact dtype rule: narrow storage, unchanged answers.

Every payload array enters the writer through ``artifact._narrow``:
int64 becomes int32 when every value fits, float64 becomes float32 when
the round trip back to float64 is bit-exact.  Readers keep the stored
dtype and widen to float64 only where values are combined, so:

* the combine kernel answers bit-identically on int32/float32 and
  int64/float64 inputs, unsharded and over 2 and 4 shards, and agrees
  with a per-query reference loop on both;
* a streamed sharded build stores int32/float32 shard files and
  answers exactly like the in-memory build (every variant's plain
  save/load round trip is pinned in ``tests/test_variants.py``);
* arrays the rule cannot narrow losslessly (weights of 0.1) stay
  float64 and answer as before;
* old int64/float64 artifacts re-saved sharded narrow, verify and
  answer unchanged;
* a payload array of any other dtype is an ``ArtifactError`` naming it.
"""

import json
import os
import shutil

import numpy as np
import pytest

import repro.graph.generators as gen
from repro.graph import WeightedGraph
from repro.oracle import (
    ArtifactError,
    DistanceOracle,
    OracleArtifact,
    ShardedOracle,
    build_oracle,
    build_sharded_oracle,
    load_artifact,
    load_sharded_artifact,
    save_artifact,
    save_sharded_artifact,
)
from repro.oracle.artifact import _narrow
from repro.oracle.engine import _directed_csr, combine_bunch_slabs

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

FIXTURES = os.path.join(os.path.dirname(__file__), "data", "prerefactor")

NARROW = {np.dtype(np.int32), np.dtype(np.float32)}


@pytest.fixture(scope="module")
def graph():
    return gen.make_family("er_sparse", 160, seed=3)


@pytest.fixture(scope="module")
def tz_art(graph):
    return build_oracle(graph, variant="tz", r=2, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def tenths_graph(graph):
    """Weights that float32 cannot hold exactly (0.1, 0.2, ...)."""
    wg = WeightedGraph(graph.n)
    rng = np.random.default_rng(5)
    for u, v in graph.edges():
        wg.add_edge(int(u), int(v), float(rng.integers(1, 9)) / 10.0)
    return wg


def _pairs(n, count=1500, seed=1):
    rng = np.random.default_rng(seed)
    us = rng.integers(0, n, count)
    vs = rng.integers(0, n, count)
    us[:20] = vs[:20]
    return us, vs


def _narrowed(art: OracleArtifact) -> OracleArtifact:
    return OracleArtifact(
        manifest=dict(art.manifest),
        arrays={k: _narrow(v) for k, v in art.arrays.items()},
    )


def _same(a, b):
    """Values and witnesses equal bit for bit, dtypes included."""
    for x, y in zip(a, b):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)


# ----------------------------------------------------------------------
# The rule itself
# ----------------------------------------------------------------------

class TestNarrowRule:
    def test_ints_that_fit_become_int32(self):
        a = np.array([0, -5, 2**31 - 1, -(2**31)], dtype=np.int64)
        out = _narrow(a)
        assert out.dtype == np.int32 and np.array_equal(out, a)

    def test_ints_that_do_not_fit_stay_int64(self):
        a = np.array([0, 2**31], dtype=np.int64)
        assert _narrow(a) is a

    def test_lossless_floats_become_float32(self):
        a = np.array([[0.0, 1.0, np.inf], [0.5, 2.0**24, -0.0]])
        out = _narrow(a)
        assert out.dtype == np.float32 and out.shape == a.shape
        assert np.array_equal(
            out.astype(np.float64).view(np.uint64), a.view(np.uint64)
        )

    @pytest.mark.parametrize("bad", [0.1, 2.0**24 + 1, 1e300, 1e-300])
    def test_lossy_floats_stay_float64(self, bad):
        a = np.zeros(10)
        a[7] = bad
        assert _narrow(a) is a

    def test_lossy_value_in_a_later_block(self, monkeypatch):
        from repro.oracle import artifact

        monkeypatch.setattr(artifact, "_NARROW_BLOCK", 4)
        a = np.arange(20, dtype=np.float64)
        assert _narrow(a).dtype == np.float32
        a[18] = 0.1
        assert _narrow(a) is a

    def test_empty_and_other_dtypes(self):
        assert _narrow(np.empty(0, dtype=np.int64)).dtype == np.int32
        assert _narrow(np.empty((0, 3))).dtype == np.float32
        for a in (np.arange(3, dtype=np.int32), np.ones(3, dtype=bool),
                  np.ones(3, dtype=np.float32)):
            assert _narrow(a) is a


# ----------------------------------------------------------------------
# The combine kernel on both dtypes
# ----------------------------------------------------------------------

def _combine_reference(srcs, dsts, ds, us, vs):
    """Per-query Python loop over ``B(u) ∩ B(v)`` plus the two direct-arc
    conventions and the ``u == v`` zero; ties go to the smallest witness
    (the rules ``combine_bunch_slabs`` vectorizes)."""
    stars = {}
    for s, d, x in zip(srcs.tolist(), dsts.tolist(), ds.tolist()):
        stars.setdefault(s, {})[d] = float(x)
    values, wits = [], []
    for u, v in zip(us.tolist(), vs.tolist()):
        if u == v:
            values.append(0.0)
            wits.append(u)
            continue
        bu, bv = stars.get(u, {}), stars.get(v, {})
        cands = [(bu[w] + bv[w], w) for w in bu.keys() & bv.keys()]
        if u in bv:
            cands.append((bv[u], v))
        if v in bu:
            cands.append((bu[v], v))
        best = min(cands) if cands else (np.inf, -1)
        values.append(best[0])
        wits.append(best[1])
    return np.array(values), np.array(wits, dtype=np.int64)


class TestCombineAcrossDtypes:
    def test_reference_loop_agrees_on_both_dtypes(self, tz_art):
        us, vs = _pairs(tz_art.n, count=600)
        a = tz_art.arrays
        want = _combine_reference(
            a["bunch_srcs"], a["bunch_dsts"], a["bunch_ds"], us, vs
        )
        for art in (tz_art, _narrowed(tz_art)):
            got = DistanceOracle(art)._answer_batch(us, vs, want_witness=True)
            _same(got, want)

    @pytest.mark.parametrize("shards", [None, 2, 4])
    def test_narrow_and_wide_inputs_answer_identically(self, tz_art, shards):
        narrow = _narrowed(tz_art)
        assert {narrow.arrays[k].dtype for k in
                ("bunch_srcs", "bunch_dsts", "bunch_ds")} == NARROW
        us, vs = _pairs(tz_art.n)
        out = []
        for art in (tz_art, narrow):
            if shards is None:
                eng = DistanceOracle(art)
            else:
                eng = ShardedOracle(art, shards=shards, pool=False)
            out.append(eng._answer_batch(us, vs, want_witness=True))
            out.append((eng.query_batch(us, vs),))
        _same(out[0], out[2])
        _same(out[1], out[3])
        assert out[0][0].dtype == np.float64

    def test_mixed_sides(self, tz_art):
        """A wide u side against a narrow v side (shards saved with
        different stored dtypes) answers as both wide."""
        n = tz_art.n
        a = tz_art.arrays
        wide = _directed_csr(n, a["bunch_srcs"], a["bunch_dsts"], a["bunch_ds"])
        ip, cols, ds = wide
        ncols, nds = _narrow(cols), _narrow(ds)
        us, vs = _pairs(n)
        want = combine_bunch_slabs(
            n, us, vs, ip, cols, ds, ip[vs], ip[vs + 1], cols, ds
        )
        nip = _narrow(ip)
        for u_side, v_side in (
            ((ip, cols, ds), (nip, ncols, nds)),
            ((nip, ncols, nds), (ip, cols, ds)),
        ):
            got = combine_bunch_slabs(
                n, us, vs, *u_side, v_side[0][vs], v_side[0][vs + 1],
                v_side[1], v_side[2],
            )
            _same(got, want)


# ----------------------------------------------------------------------
# The streamed sharded build stores narrow shard files
# ----------------------------------------------------------------------

def test_streamed_sharded_build_stores_narrow_files(graph, tz_art, tmp_path):
    path = str(tmp_path / "tz2")
    build_sharded_oracle(
        graph, path, shards=2, variant="tz", r=2,
        rng=np.random.default_rng(0),
    )
    for shard in ("shard-0000", "shard-0001"):
        for name, dtype in (("indptr", np.int32), ("cols", np.int32),
                            ("ds", np.float32)):
            fp = os.path.join(path, shard, f"{name}.npy")
            assert np.load(fp, mmap_mode="r").dtype == dtype
    us, vs = _pairs(graph.n)
    want = DistanceOracle(tz_art)._answer_batch(us, vs)
    _same(ShardedOracle.load(path, pool=False)._answer_batch(us, vs), want)
    merged = load_sharded_artifact(path, verify=True)
    _same(DistanceOracle(merged)._answer_batch(us, vs), want)


# ----------------------------------------------------------------------
# Arrays the rule cannot narrow
# ----------------------------------------------------------------------

class TestLossyFallback:
    @pytest.mark.parametrize("variant,key", [
        ("tz", "bunch_ds"), ("exact", "estimates"),
    ])
    def test_tenths_stay_float64(self, tenths_graph, variant, key, tmp_path):
        art = build_oracle(
            tenths_graph, variant=variant, rng=np.random.default_rng(0)
        )
        path = str(tmp_path / variant)
        save_artifact(art, path)
        loaded = load_artifact(path, verify=True)
        assert loaded.arrays[key].dtype == np.float64
        assert loaded.arrays["graph_ws"].dtype == np.float64
        assert loaded.arrays["graph_us"].dtype == np.int32
        us, vs = _pairs(tenths_graph.n)
        _same(
            DistanceOracle(loaded)._answer_batch(us, vs),
            DistanceOracle(art)._answer_batch(us, vs),
        )

    def test_sharded_ds_stay_float64(self, tenths_graph, tmp_path):
        art = build_oracle(
            tenths_graph, variant="tz", r=2, rng=np.random.default_rng(0)
        )
        path = str(tmp_path / "tz4")
        build_sharded_oracle(
            tenths_graph, path, shards=4, variant="tz", r=2,
            rng=np.random.default_rng(0),
        )
        merged = load_sharded_artifact(path, verify=True)
        assert merged.arrays["bunch_ds"].dtype == np.float64
        plain = str(tmp_path / "plain")
        save_artifact(art, plain)
        with open(os.path.join(plain, "manifest.json")) as fh:
            want = json.load(fh)["checksums"]
        assert merged.manifest["checksums"] == want
        us, vs = _pairs(tenths_graph.n)
        _same(
            ShardedOracle.load(path, pool=False)._answer_batch(us, vs),
            DistanceOracle(art)._answer_batch(us, vs),
        )

    def test_shards_of_mixed_stored_dtypes(self, tmp_path):
        """One shard's rows narrow and the other's do not: the merged
        array and its checksum are the whole-array save's (float64)."""
        n = 6
        est = np.arange(n * n, dtype=np.float64).reshape(n, n)
        est[n - 1, 0] = 0.1  # only the last shard is lossy
        art = OracleArtifact(
            manifest={
                "format_version": 2, "kind": "matrix", "variant": "exact",
                "n": n, "multiplicative": 1.0, "additive": 0.0,
                "graph_hash": "0" * 64, "includes_graph": False,
            },
            arrays={"estimates": est},
        )
        path = str(tmp_path / "mixed")
        save_sharded_artifact(art, path, shards=2)
        assert np.load(
            os.path.join(path, "shard-0000", "estimates.npy")
        ).dtype == np.float32
        plain = str(tmp_path / "plain")
        save_artifact(art, plain)
        merged = load_sharded_artifact(path, verify=True)
        assert merged.arrays["estimates"].dtype == np.float64
        assert np.array_equal(merged.arrays["estimates"], est)
        with open(os.path.join(plain, "manifest.json")) as fh:
            assert json.load(fh)["checksums"] == merged.manifest["checksums"]


# ----------------------------------------------------------------------
# Old int64/float64 artifacts
# ----------------------------------------------------------------------

class TestOldArtifacts:
    """The int64/float64 fixtures written before the dtype rule: the
    plain ones (their plain load and re-save are pinned in
    ``tests/test_variants.py``) re-saved sharded, and ``tz-sharded``, a
    2-shard streamed layout with int64/float64 shard files whose
    checksums hash int64 sources."""

    @pytest.fixture(scope="class")
    def queries(self):
        return (
            np.load(os.path.join(FIXTURES, "query_us.npy")),
            np.load(os.path.join(FIXTURES, "query_vs.npy")),
        )

    @pytest.mark.parametrize("variant", ["near-additive", "tz"])
    def test_sharded_resave_verifies(self, variant, queries, tmp_path):
        out = str(tmp_path / variant)
        save_sharded_artifact(
            load_artifact(os.path.join(FIXTURES, variant)), out, shards=3
        )
        merged = load_sharded_artifact(out, verify=True)
        assert {a.dtype for a in merged.arrays.values()} <= NARROW
        want = np.load(os.path.join(FIXTURES, f"{variant}-answers.npy"))
        eng = ShardedOracle.load(out, pool=False)
        assert np.array_equal(eng.query_batch(*queries), want)

    def test_old_sharded_layout_verifies_and_answers(self, queries, tmp_path):
        path = os.path.join(FIXTURES, "tz-sharded")
        want = np.load(os.path.join(FIXTURES, "tz-answers.npy"))
        merged = load_sharded_artifact(path, verify=True)
        assert {a.dtype.str for a in merged.arrays.values()} == {
            "<i8", "<f8"
        }
        assert np.array_equal(
            DistanceOracle(merged).query_batch(*queries), want
        )
        for pool in (False, True):
            eng = ShardedOracle.load(path, pool=pool)
            try:
                assert np.array_equal(eng.query_batch(*queries), want)
            finally:
                eng.close()
        out = str(tmp_path / "resaved")
        save_sharded_artifact(merged, out, shards=2)
        again = load_sharded_artifact(out, verify=True)
        assert {a.dtype for a in again.arrays.values()} <= NARROW
        eng = ShardedOracle.load(out, pool=False)
        assert np.array_equal(eng.query_batch(*queries), want)


# ----------------------------------------------------------------------
# Payload arrays of a dtype no reader accepts
# ----------------------------------------------------------------------

def _rewrite_npz(path, name, dtype):
    npz = os.path.join(path, "arrays.npz")
    with np.load(npz) as data:
        arrays = {k: data[k] for k in data.files}
    arrays[name] = arrays[name].astype(dtype)
    np.savez_compressed(npz, **arrays)


def _rewrite_npy(fp, dtype):
    np.save(fp, np.load(fp).astype(dtype))


class TestBadDtypes:
    @pytest.fixture(scope="class")
    def plain_dirs(self, graph, tmp_path_factory):
        root = tmp_path_factory.mktemp("plain")
        out = {}
        for variant in ("tz", "near-additive", "emulator-sssp"):
            out[variant] = str(root / variant)
            save_artifact(
                build_oracle(graph, variant=variant,
                             rng=np.random.default_rng(7)),
                out[variant],
            )
        return out

    @pytest.mark.parametrize("variant,name,dtype", [
        ("tz", "bunch_dsts", np.float64),
        ("tz", "bunch_ds", np.int8),
        ("tz", "graph_edges", np.uint16),
        ("emulator-sssp", "emu_ws", np.complex128),
        ("emulator-sssp", "emu_us", np.float32),
    ])
    def test_npz_array(self, plain_dirs, variant, name, dtype, tmp_path):
        path = str(tmp_path / "a")
        shutil.copytree(plain_dirs[variant], path)
        _rewrite_npz(path, name, dtype)
        with pytest.raises(ArtifactError, match=repr(name)):
            load_artifact(path)

    def test_complex_estimates(self, plain_dirs, tmp_path):
        path = str(tmp_path / "a")
        shutil.copytree(plain_dirs["near-additive"], path)
        _rewrite_npy(os.path.join(path, "estimates.npy"), np.complex128)
        for mmap in (False, True):
            with pytest.raises(ArtifactError, match="'estimates'"):
                DistanceOracle.load(path, mmap=mmap)

    @pytest.mark.parametrize("name,dtype", [
        ("cols", np.float64), ("ds", np.int8), ("indptr", np.float32),
    ])
    def test_shard_file(self, graph, name, dtype, tmp_path):
        path = str(tmp_path / "tz2")
        build_sharded_oracle(
            graph, path, shards=2, variant="tz", r=2,
            rng=np.random.default_rng(0),
        )
        _rewrite_npy(os.path.join(path, "shard-0001", f"{name}.npy"), dtype)
        with pytest.raises(ArtifactError, match=repr(name)):
            load_sharded_artifact(path)
        eng = ShardedOracle.load(path, pool=False)
        with pytest.raises(ArtifactError, match=repr(name)):
            eng.query_batch([graph.n - 1], [0])
