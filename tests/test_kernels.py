"""Cross-validation of the vectorized kernel layer (repro.kernels).

Fidelity policy (DESIGN.md §3): every vectorized kernel must agree
*bit-for-bit* — including ``inf`` placement and tie-breaking — with the
``reference`` loops (the original Python-loop implementations), on
random, empty, and disconnected inputs.  Plus a pipeline regression:
``apsp_two_plus_eps`` is bit-identical whether it runs on the vectorized
kernels or the reference ones.  Also the ``force_backend`` test hook,
the sharded-BFS block layout and the fold-in post-processing kernel, and
the changed-origin Bellman–Ford relax against a full-Jacobi loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import apsp_two_plus_eps, kernels
from repro.cliquesim import RoundLedger
from repro.graph import Graph
from repro.graph import generators as gen
from repro.graph.distances import hop_limited_bellman_ford, multi_source_bfs
from repro.kernels import reference as ref
from repro.kernels.config import reference_forced
from repro.matmul import minplus_power, minplus_product
from repro.toolkit import kd_nearest_bfs, source_detection, source_detection_k


def exact_equal(a, b):
    """Bit-for-bit equality including inf placement."""
    return np.array_equal(
        np.nan_to_num(a, posinf=-1.0), np.nan_to_num(b, posinf=-1.0)
    )


def random_minplus_matrix(rng, rows, cols, keep):
    m = rng.integers(0, 30, (rows, cols)).astype(float)
    m[rng.random((rows, cols)) > keep] = np.inf
    return m


# ----------------------------------------------------------------------
# Min-plus backends
# ----------------------------------------------------------------------

class TestMinplusBackends:
    @pytest.mark.parametrize("keep", [0.0, 0.05, 0.3, 0.9])
    def test_all_backends_agree_random(self, rng, keep):
        for _ in range(5):
            rows, inner, cols = rng.integers(1, 40, 3)
            s = random_minplus_matrix(rng, rows, inner, keep)
            t = random_minplus_matrix(rng, inner, cols, keep)
            expected = ref.minplus_reference(s, t)
            assert exact_equal(kernels.minplus_csr(s, t), expected)
            assert exact_equal(kernels.minplus_dense(s, t), expected)
            assert exact_equal(kernels.minplus(s, t), expected)

    def test_csr_chunking_invariant(self, rng):
        s = random_minplus_matrix(rng, 25, 25, 0.3)
        full = kernels.minplus_csr(s, s)
        for chunk in (1, 3, 17, 1000):
            assert exact_equal(kernels.minplus_csr(s, s, chunk_triples=chunk), full)

    def test_empty_and_degenerate_shapes(self):
        for rows, inner, cols in [(0, 4, 3), (4, 0, 3), (4, 3, 0), (0, 0, 0)]:
            s = np.full((rows, inner), np.inf)
            t = np.full((inner, cols), np.inf)
            expected = ref.minplus_reference(s, t)
            assert exact_equal(kernels.minplus_csr(s, t), expected)
            assert exact_equal(kernels.minplus_dense(s, t), expected)

    def test_all_inf_operands(self):
        s = np.full((5, 5), np.inf)
        assert np.isinf(kernels.minplus_csr(s, s)).all()
        assert np.isinf(kernels.minplus_dense(s, s)).all()

    def test_finite_zero_values_survive(self):
        # 0.0 is a legitimate stored value of the tropical semiring, not a
        # missing entry — the CSR conversion must keep it.
        s = np.array([[0.0, np.inf], [np.inf, 0.0]])
        out = kernels.minplus_csr(s, s)
        assert exact_equal(out, s)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kernels.minplus(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_auto_dispatch_density_rule(self, rng):
        sparse = random_minplus_matrix(rng, 20, 20, 0.1)
        dense = random_minplus_matrix(rng, 20, 20, 0.9)
        assert exact_equal(
            kernels.minplus(sparse, sparse), kernels.minplus_csr(sparse, sparse)
        )
        assert exact_equal(
            kernels.minplus(dense, dense), kernels.minplus_dense(dense, dense)
        )

    def test_row_sparse_minplus_unchanged_semantics(self, rng):
        s = random_minplus_matrix(rng, 20, 20, 0.15)
        assert exact_equal(kernels.minplus(s, s), minplus_product(s, s))

    def test_dense_block_sizes_agree(self, rng):
        a = random_minplus_matrix(rng, 30, 30, 0.5)
        auto = minplus_product(a, a)
        assert exact_equal(auto, minplus_product(a, a, block=3))
        assert exact_equal(auto, minplus_product(a, a, block=64))
        assert exact_equal(minplus_power(a, 4), minplus_power(a, 4, block=7))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_minplus_backends_agree_hypothesis(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = data.draw(st.integers(1, 12))
    inner = data.draw(st.integers(1, 12))
    cols = data.draw(st.integers(1, 12))
    keep = data.draw(st.floats(0.0, 1.0))
    s = random_minplus_matrix(rng, rows, inner, keep)
    t = random_minplus_matrix(rng, inner, cols, keep)
    expected = ref.minplus_reference(s, t)
    assert exact_equal(kernels.minplus_csr(s, t), expected)
    assert exact_equal(kernels.minplus_dense(s, t), expected)


# ----------------------------------------------------------------------
# Top-k row filter
# ----------------------------------------------------------------------

class TestFilterRowsKernel:
    @pytest.mark.parametrize("rho", [0, 1, 3, 10, 100])
    def test_matches_reference(self, rng, rho):
        for keep in (0.0, 0.2, 1.0):
            m = random_minplus_matrix(rng, 17, 23, keep)
            assert exact_equal(
                kernels.filter_rows(m, rho), ref.filter_rows_reference(m, rho)
            )

    def test_tie_breaking_by_column(self):
        m = np.array([[2.0, 2.0, 2.0, 1.0]])
        out = kernels.filter_rows(m, 2)
        expected = ref.filter_rows_reference(m, 2)
        assert exact_equal(out, expected)
        assert np.isfinite(out[0, 3]) and np.isfinite(out[0, 0])
        assert np.isinf(out[0, 1]) and np.isinf(out[0, 2])

    def test_many_ties_match_reference(self, rng):
        # Integer-valued matrices maximize ties.
        m = rng.integers(0, 3, (20, 20)).astype(float)
        for rho in (1, 5, 19):
            assert exact_equal(
                kernels.filter_rows(m, rho), ref.filter_rows_reference(m, rho)
            )

    def test_empty_matrix(self):
        m = np.empty((0, 5))
        assert kernels.filter_rows(m, 2).shape == (0, 5)

    def test_nonfinite_values_never_selected(self):
        # -inf is not a finite entry; it must not displace finite values
        # (out-of-domain for distance matrices, but the public API
        # contract is bit-fidelity with the reference on any input).
        m = np.array([[-np.inf, 1.0, 2.0, np.inf], [np.nan, 3.0, -np.inf, 0.0]])
        for rho in (1, 2, 3):
            got = kernels.filter_rows(m, rho)
            want = ref.filter_rows_reference(m, rho)
            assert np.array_equal(got, want, equal_nan=True)

    def test_negative_rho(self):
        with pytest.raises(ValueError):
            kernels.filter_rows(np.ones((1, 1)), -1)


# ----------------------------------------------------------------------
# BFS kernels
# ----------------------------------------------------------------------

def graph_cases():
    cases = [
        Graph.empty(0),
        Graph.empty(7),  # disconnected: all isolated
        gen.make_family("er_sparse", 60, seed=1),
        gen.make_family("grid", 49, seed=2),
        gen.make_family("tree", 40, seed=3),
        # Disconnected: two components + isolated vertices.
        Graph(12, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]),
    ]
    return cases


class TestBfsKernels:
    @pytest.mark.parametrize("max_dist", [0, 1, 3, np.inf])
    def test_multi_source_matches_reference(self, max_dist):
        for g in graph_cases():
            if g.n == 0:
                continue
            for sources in ([0], [0, g.n - 1], list(range(0, g.n, 3)), []):
                got = kernels.multi_source_bfs(
                    g.indptr, g.indices, g.n, sources, max_dist
                )
                want = ref.multi_source_bfs_reference(
                    g.indptr, g.indices, g.n, sources, max_dist
                )
                assert exact_equal(got, want)

    @pytest.mark.parametrize("max_dist", [0, 2, 5, np.inf])
    def test_batched_matches_reference(self, max_dist):
        for g in graph_cases():
            sources = np.arange(g.n)
            want = ref.batched_bfs_reference(
                g.indptr, g.indices, g.n, sources, max_dist
            )
            got = kernels.batched_bfs(g.indptr, g.indices, g.n, sources, max_dist)
            assert exact_equal(got, want)

    def test_batched_batch_size_invariant(self):
        g = gen.make_family("er_sparse", 50, seed=5)
        sources = np.arange(g.n)
        full = kernels.batched_bfs(g.indptr, g.indices, g.n, sources, 4)
        for bs in (1, 7, 49, 1000):
            assert exact_equal(
                kernels.batched_bfs(
                    g.indptr, g.indices, g.n, sources, 4, batch_size=bs
                ),
                full,
            )

    @pytest.mark.parametrize("max_dist", [0, 1, 2.5, 4, np.inf])
    @pytest.mark.parametrize("k", [1, 2, 5, 60])
    def test_k_nearest_matches_reference(self, k, max_dist):
        for g in graph_cases():
            got = kernels.k_nearest_bfs(g.indptr, g.indices, g.n, k, max_dist)
            want = ref.k_nearest_bfs_reference(
                g.indptr, g.indices, g.n, k, np.floor(max_dist)
            )
            assert all(map(np.array_equal, got, want))
            dense = kernels.filter_rows(
                kernels.batched_bfs(g.indptr, g.indices, g.n, np.arange(g.n), max_dist),
                k,
            )
            assert np.array_equal(got.dense(), dense)

    @pytest.mark.parametrize("waves", [1, 37, 150])
    def test_k_nearest_chunk_invariant(self, monkeypatch, waves):
        """One wave per chunk, five chunks, or one chunk of all 150 waves
        (wide enough for the bit-packed levels): the same rows."""
        from repro.kernels import bfs

        g = gen.make_family("er_dense", 150, seed=4)
        want = ref.k_nearest_bfs_reference(g.indptr, g.indices, g.n, 40, np.inf)
        monkeypatch.setattr(bfs, "_NEAREST_KEY_BUDGET", waves * g.n)
        got = kernels.k_nearest_bfs(g.indptr, g.indices, g.n, 40)
        assert all(map(np.array_equal, got, want))

    def test_graph_level_multi_source_bfs(self, small_er):
        got = multi_source_bfs(small_er, [0, 5], max_dist=4)
        want = ref.multi_source_bfs_reference(
            small_er.indptr, small_er.indices, small_er.n, [0, 5], 4
        )
        assert exact_equal(got, want)


# ----------------------------------------------------------------------
# Hop-limited relax
# ----------------------------------------------------------------------

def full_jacobi_relax(dist, origins, targets, weights, max_hops):
    """The baseline the kernel must equal: every hop relaxes *every* arc
    from the previous hop's matrix, until ``max_hops`` or a fixpoint."""
    dist = dist.copy()
    for _ in range(max_hops if targets.size else 0):
        prev = dist.copy()
        for o, t, w in zip(origins, targets, weights):
            dist[:, t] = np.minimum(dist[:, t], prev[:, o] + w)
        if np.array_equal(dist, prev):
            break
    return dist


@st.composite
def relax_cases(draw):
    n = draw(st.integers(1, 14))
    # Targets from a prefix of the vertices leaves the rest unreachable.
    reach = draw(st.integers(1, n))
    m = draw(st.integers(0, 40))
    vertex = st.integers(0, n - 1)
    weight = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(0.0, 10.0)
    )
    origins = draw(st.lists(vertex, min_size=m, max_size=m))
    targets = draw(st.lists(st.integers(0, reach - 1), min_size=m, max_size=m))
    weights = draw(st.lists(weight, min_size=m, max_size=m))
    # Parallel arcs: repeat some (origin, target) pairs with new weights.
    for i in draw(st.lists(st.integers(0, max(m - 1, 0)), max_size=8)):
        if m:
            origins.append(origins[i])
            targets.append(targets[i])
            weights.append(draw(weight))
    num_sources = draw(st.integers(1, 8))
    seeds = np.full((num_sources, n), np.inf)
    for row in range(num_sources):
        # A row with no seed stays all inf.
        for v in draw(st.lists(vertex, max_size=2)):
            seeds[row, v] = draw(st.sampled_from([0.0, 0.0, 1.5, 4.0]))
    max_hops = draw(st.integers(0, n + 2))
    return (
        seeds,
        np.asarray(origins, dtype=np.int64),
        np.asarray(targets, dtype=np.int64),
        np.asarray(weights, dtype=np.float64),
        max_hops,
    )


class TestHopLimitedRelax:
    @settings(max_examples=150, deadline=None)
    @given(case=relax_cases())
    def test_equals_full_jacobi_bit_for_bit(self, case):
        seeds, origins, targets, weights, max_hops = case
        got = kernels.hop_limited_relax(seeds, origins, targets, weights, max_hops)
        want = full_jacobi_relax(seeds, origins, targets, weights, max_hops)
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(case=relax_cases(), data=st.data())
    def test_source_shards_give_the_same_rows(self, case, data):
        """Each row reaches its result independently, so any split of the
        sources (the sharded engine's route-by-``u``) is bit-identical."""
        seeds, origins, targets, weights, max_hops = case
        whole = kernels.hop_limited_relax(seeds, origins, targets, weights, max_hops)
        cuts = sorted(data.draw(st.lists(
            st.integers(1, seeds.shape[0]), max_size=3
        )))
        parts = [
            kernels.hop_limited_relax(seeds[a:b], origins, targets, weights, max_hops)
            for a, b in zip([0] + cuts, cuts + [seeds.shape[0]])
        ]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_does_not_write_its_seed(self):
        seeds = np.array([[0.0, np.inf, np.inf]])
        kept = seeds.copy()
        got = kernels.hop_limited_relax(
            seeds, np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0]), 5
        )
        assert np.array_equal(seeds, kept)
        assert np.array_equal(got, [[0.0, 1.0, 3.0]])


# ----------------------------------------------------------------------
# Rewired toolkit entry points
# ----------------------------------------------------------------------

class TestRewiredCallSites:
    def test_kd_nearest_bfs_matches_reference_backend(self, family_graph):
        fast, r1 = kd_nearest_bfs(family_graph, 6, 5)
        with kernels.force_backend("reference"):
            slow, r2 = kd_nearest_bfs(family_graph, 6, 5)
        assert np.array_equal(fast.dense(), slow.dense())
        assert r1 == r2

    def test_source_detection_unit_weight_bfs_path(self, small_er):
        # Unit weights take the batched-BFS kernel; it must equal the
        # Bellman-Ford relaxation exactly.
        wg = small_er.to_weighted()
        sources = [0, 7, 13]
        got, _ = source_detection(wg, sources, 5)
        want = hop_limited_bellman_ford(wg, sources, max_hops=5)
        assert exact_equal(got, want)

    def test_source_detection_k_matches_loop(self, small_er):
        wg = small_er.to_weighted()
        sources = list(range(10))
        dist, _ = source_detection(wg, sources, 6)
        got, _ = source_detection_k(wg, sources, 6, 3)
        # Per-vertex reference loop (the original implementation).
        want = np.full_like(dist, np.inf)
        for v in range(dist.shape[1]):
            col = dist[:, v]
            finite = np.flatnonzero(np.isfinite(col))
            if finite.size == 0:
                continue
            order = np.lexsort((finite, col[finite]))
            keep = finite[order[:3]]
            want[keep, v] = col[keep]
        assert exact_equal(got, want)

    def test_ledger_charges_unchanged(self, small_er):
        ledger = RoundLedger()
        kd_nearest_bfs(small_er, 4, 4, ledger=ledger)
        with kernels.force_backend("reference"):
            ledger_ref = RoundLedger()
            kd_nearest_bfs(small_er, 4, 4, ledger=ledger_ref)
        assert ledger.total == ledger_ref.total


# ----------------------------------------------------------------------
# Backend configuration
# ----------------------------------------------------------------------

class TestBackendConfig:
    def test_force_backend_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with kernels.force_backend("reference"):
                assert reference_forced()
                raise RuntimeError("boom")
        assert not reference_forced()

    def test_invalid_names_rejected(self):
        # "reference" is the only name that can be forced.
        for name in ("quantum", "auto", "dense", "csr", ""):
            with pytest.raises(ValueError, match="only 'reference'"):
                with kernels.force_backend(name):
                    pass
            assert not reference_forced()


# ----------------------------------------------------------------------
# Pipeline regression: the rewire is invisible end to end
# ----------------------------------------------------------------------

class TestPipelineRegression:
    @pytest.mark.parametrize("family", ["er_sparse", "ring_of_cliques"])
    @pytest.mark.parametrize("deterministic", [False, True])
    def test_apsp_two_plus_eps_bit_identical(self, family, deterministic):
        g = gen.make_family(family, 90, seed=9)
        fast = apsp_two_plus_eps(
            g, 0.5, rng=np.random.default_rng(42), deterministic=deterministic
        )
        with kernels.force_backend("reference"):
            slow = apsp_two_plus_eps(
                g, 0.5, rng=np.random.default_rng(42), deterministic=deterministic
            )
        assert exact_equal(fast.estimates, slow.estimates)
        assert fast.ledger.total == slow.ledger.total


# ----------------------------------------------------------------------
# Sharded BFS block layout
# ----------------------------------------------------------------------

class TestShardLayout:
    def test_default_blocks_are_column_contiguous(self):
        g = gen.make_family("er_sparse", 60, seed=1)
        blocks = list(
            kernels.sharded_bfs(g.indptr, g.indices, g.n, np.arange(g.n), 4)
        )
        assert blocks
        for _, _, block in blocks:
            if block.shape[0] > 1:  # 1-row blocks are trivially both orders
                assert block.flags["F_CONTIGUOUS"]
                assert not block.flags["C_CONTIGUOUS"]
            # per-vertex columns are the contiguous axis
            assert block[:, 0].flags["C_CONTIGUOUS"]

    def test_blocks_value_identical_to_batched(self):
        g = gen.make_family("grid", 64, seed=2)
        sources = np.arange(g.n)
        full = kernels.batched_bfs(g.indptr, g.indices, g.n, sources, 6)
        for lo, hi, block in kernels.sharded_bfs(
            g.indptr, g.indices, g.n, sources, 6, shard_size=9
        ):
            assert exact_equal(block, full[lo:hi])


# ----------------------------------------------------------------------
# Post-processing kernel
# ----------------------------------------------------------------------

class TestFoldInEdges:
    def _reference_fold(self, estimates, e, weights=None):
        out = estimates.copy()
        if len(e):
            w = np.ones(len(e)) if weights is None else weights
            np.minimum.at(out, (e[:, 0], e[:, 1]), w)
            np.minimum.at(out, (e[:, 1], e[:, 0]), w)
        np.fill_diagonal(out, 0.0)
        return out

    def test_matches_minimum_at(self, rng, small_er):
        est = rng.random((small_er.n, small_er.n)) * 5.0
        e = small_er.edges()
        want = self._reference_fold(est, e)
        got = kernels.fold_in_edges(est.copy(), e[:, 0], e[:, 1])
        assert exact_equal(got, want)

    def test_reference_backend_path(self, rng, small_er):
        est = rng.random((small_er.n, small_er.n)) * 5.0
        e = small_er.edges()
        want = self._reference_fold(est, e)
        with kernels.force_backend("reference"):
            got = kernels.fold_in_edges(est.copy(), e[:, 0], e[:, 1])
        assert exact_equal(got, want)

    def test_weighted_fold(self, rng, small_er):
        est = rng.random((small_er.n, small_er.n)) * 5.0
        e = small_er.edges()
        w = rng.random(len(e)) * 3.0
        want = self._reference_fold(est, e, w)
        got = kernels.fold_in_edges(est.copy(), e[:, 0], e[:, 1], weights=w)
        assert exact_equal(got, want)

    def test_empty_edges_still_zero_diagonal(self):
        est = np.full((4, 4), 9.0)
        got = kernels.fold_in_edges(
            est, np.empty(0, np.int64), np.empty(0, np.int64)
        )
        assert np.array_equal(np.diag(got), np.zeros(4))
        assert (got[~np.eye(4, dtype=bool)] == 9.0).all()

    def test_in_place_and_returns_same_array(self, triangle):
        est = np.full((3, 3), 7.0)
        e = triangle.edges()
        out = kernels.fold_in_edges(est, e[:, 0], e[:, 1])
        assert out is est
