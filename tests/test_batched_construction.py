"""Bit-fidelity of the batched construction pipeline (DESIGN.md §3).

Every construction that was converted from a per-vertex BFS loop to the
batched kernels (sharded BFS + mask algebra + bulk edge insertion) must
produce output *bit-identical* to the original loop, which stays
reachable under ``force_backend("reference")``: identical emulator edge
sets (endpoints and weights), identical stats dicts, identical round
ledgers.

Also covers the new substrate pieces themselves: ``sharded_bfs`` against
``batched_bfs`` (including per-source radii and shard-size invariance)
and the ``WeightedGraph`` bulk/caching additions.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.derand.det_emulator import (
    build_deterministic_hierarchy,
    build_emulator_deterministic,
)
from repro.emulator import (
    EmulatorParams,
    build_emulator,
    build_emulator_cc,
    build_emulator_whp,
    build_tz_emulator,
    build_warmup_emulator,
    edges_for_level,
    edges_for_vertex,
)
from repro.emulator.sampling import Hierarchy, sample_hierarchy
from repro.graph import Graph, WeightedGraph
from repro.graph import generators as gen
from repro.toolkit.hopsets import build_bounded_hopset


def edge_triples(wg):
    """Canonical (u, v, w) arrays — the bit-level identity of an emulator."""
    return wg.edge_arrays()


def assert_same_graph(a, b):
    ta, tb = edge_triples(a), edge_triples(b)
    assert all(np.array_equal(x, y) for x, y in zip(ta, tb))


def graph_cases():
    return [
        gen.make_family("er_sparse", 60, seed=1),
        gen.make_family("grid", 49, seed=2),
        gen.make_family("tree", 40, seed=3),
        gen.make_family("ring_of_cliques", 60, seed=4),
        Graph(12, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]),  # disconnected
        Graph.empty(9),
    ]


# ----------------------------------------------------------------------
# sharded_bfs kernel
# ----------------------------------------------------------------------

class TestShardedBfs:
    @pytest.mark.parametrize("max_dist", [0, 1, 3, np.inf])
    def test_matches_batched(self, max_dist):
        for g in graph_cases():
            sources = np.arange(g.n)
            want = kernels.batched_bfs(g.indptr, g.indices, g.n, sources, max_dist)
            got = np.full((g.n, g.n), np.nan)
            for lo, hi, block in kernels.sharded_bfs(
                g.indptr, g.indices, g.n, sources, max_dist
            ):
                got[lo:hi] = block
            assert np.array_equal(
                np.nan_to_num(got, posinf=-1), np.nan_to_num(want, posinf=-1)
            )

    def test_shard_size_invariant(self):
        g = gen.make_family("er_sparse", 50, seed=5)
        sources = np.arange(g.n)
        want = kernels.batched_bfs(g.indptr, g.indices, g.n, sources, 4)
        for shard in (1, 7, 49, 1000):
            rows = [
                b.copy()
                for _, _, b in kernels.sharded_bfs(
                    g.indptr, g.indices, g.n, sources, 4, shard_size=shard
                )
            ]
            assert np.array_equal(
                np.nan_to_num(np.vstack(rows), posinf=-1),
                np.nan_to_num(want, posinf=-1),
            )

    def test_per_source_radii(self):
        g = gen.make_family("er_sparse", 40, seed=6)
        sources = np.arange(g.n)
        radii = np.arange(g.n) % 4  # mixed radii, including 0
        rows = np.vstack(
            [
                b.copy()
                for _, _, b in kernels.sharded_bfs(
                    g.indptr, g.indices, g.n, sources, radii, shard_size=11
                )
            ]
        )
        for v in range(g.n):
            want = kernels.multi_source_bfs(
                g.indptr, g.indices, g.n, [v], max_dist=radii[v]
            )
            assert np.array_equal(
                np.nan_to_num(rows[v], posinf=-1), np.nan_to_num(want, posinf=-1)
            )

    def test_reference_backend(self):
        g = gen.make_family("grid", 36, seed=7)
        sources = np.arange(g.n)
        fast = np.vstack(
            [b.copy() for _, _, b in kernels.sharded_bfs(
                g.indptr, g.indices, g.n, sources, 3
            )]
        )
        with kernels.force_backend("reference"):
            slow = np.vstack(
                [b.copy() for _, _, b in kernels.sharded_bfs(
                    g.indptr, g.indices, g.n, sources, 3
                )]
            )
        assert np.array_equal(
            np.nan_to_num(fast, posinf=-1), np.nan_to_num(slow, posinf=-1)
        )

    def test_empty_sources(self):
        g = gen.make_family("er_sparse", 20, seed=8)
        assert list(kernels.sharded_bfs(g.indptr, g.indices, g.n, [], 3)) == []

    def test_many_waves_uses_bit_kernel(self):
        # > _BITS_MIN_WAVES sources on a graph deep enough to flood —
        # exercises the bit-packed expansion and the per-level mode switch.
        g = gen.make_family("grid", 400, seed=9)
        sources = np.arange(g.n)
        from repro.kernels import reference as ref
        want = ref.batched_bfs_reference(g.indptr, g.indices, g.n, sources, np.inf)
        got = np.vstack(
            [b.copy() for _, _, b in kernels.sharded_bfs(
                g.indptr, g.indices, g.n, sources
            )]
        )
        assert np.array_equal(
            np.nan_to_num(got, posinf=-1), np.nan_to_num(want, posinf=-1)
        )


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_sharded_bfs_hypothesis(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    n = data.draw(st.integers(1, 40))
    p = data.draw(st.floats(0.0, 0.3))
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    iu = np.triu_indices(n, 1)
    edges = [(int(i), int(j)) for i, j in zip(*iu) if mask[i, j]]
    g = Graph(n, edges)
    radii = rng.integers(0, 6, n).astype(float)
    shard = data.draw(st.integers(1, 50))
    rows = np.vstack(
        [b.copy() for _, _, b in kernels.sharded_bfs(
            g.indptr, g.indices, g.n, np.arange(n), radii, shard_size=shard
        )]
    ) if n else np.zeros((0, 0))
    for v in range(n):
        want = kernels.multi_source_bfs(
            g.indptr, g.indices, g.n, [v], max_dist=radii[v]
        )
        assert np.array_equal(
            np.nan_to_num(rows[v], posinf=-1), np.nan_to_num(want, posinf=-1)
        )


# ----------------------------------------------------------------------
# WeightedGraph bulk insertion + caching
# ----------------------------------------------------------------------

class TestWeightedGraphBulk:
    def test_add_edges_arrays_counts_new_edges(self):
        w = WeightedGraph(5)
        added = w.add_edges_arrays(
            np.array([0, 1, 0, 2]), np.array([1, 2, 1, 2]), np.array([3.0, 1.0, 5.0, 9.0])
        )
        # (0,1) appears twice (counted once, min weight kept); (2,2) is a
        # skipped self loop.
        assert added == 2
        assert w.m == 2
        assert w.weight(0, 1) == 3.0

    def test_add_edges_arrays_min_combines_with_existing(self):
        w = WeightedGraph(4)
        w.add_edge(0, 1, 5.0)
        added = w.add_edges_arrays(
            np.array([0, 1]), np.array([1, 3]), np.array([2.0, 1.0])
        )
        assert added == 1  # only (1, 3) is new
        assert w.weight(0, 1) == 2.0

    def test_add_edges_arrays_validation(self):
        w = WeightedGraph(3)
        with pytest.raises(IndexError):
            w.add_edges_arrays(np.array([0]), np.array([7]), np.array([1.0]))
        with pytest.raises(ValueError):
            w.add_edges_arrays(np.array([0]), np.array([1]), np.array([-1.0]))
        with pytest.raises(ValueError):
            w.add_edges_arrays(np.array([0, 1]), np.array([1]), np.array([1.0]))

    def test_add_edge_returns_newness(self):
        w = WeightedGraph(3)
        assert w.add_edge(0, 1, 2.0) is True
        assert w.add_edge(0, 1, 1.0) is False  # update, not new
        assert w.add_edge(1, 1, 1.0) is False  # self loop
        assert w.m == 1

    def test_m_is_maintained_incrementally(self):
        w = WeightedGraph(6)
        w.add_edge(0, 1, 1.0)
        w.add_edges_arrays(np.array([1, 2]), np.array([2, 3]), np.ones(2))
        other = WeightedGraph(6)
        other.add_edge(4, 5, 1.0)
        other.add_edge(0, 1, 0.5)
        w.union_update(other)
        assert w.m == 4
        assert w.copy().m == 4
        assert w.weight(0, 1) == 0.5

    def test_edge_arrays_cached_and_invalidated(self):
        w = WeightedGraph(4)
        w.add_edge(2, 3, 1.5)
        first = w.edge_arrays()
        assert w.edge_arrays() is first  # memoized
        w.add_edge(0, 1, 1.0)
        second = w.edge_arrays()
        assert second is not first
        assert second[0].tolist() == [0, 2]
        w.add_edges_arrays(np.array([1]), np.array([2]), np.array([2.0]))
        assert w.edge_arrays() is not second
        # weight-only update must also invalidate
        third = w.edge_arrays()
        w.add_edge(2, 3, 0.5)
        assert w.edge_arrays() is not third
        assert float(w.edge_arrays()[2][w.edge_arrays()[0].tolist().index(2)]) == 0.5

    def test_edge_arrays_sorted_canonical(self):
        w = WeightedGraph(5)
        w.add_edge(3, 4, 1.0)
        w.add_edge(0, 2, 1.0)
        w.add_edge(0, 1, 1.0)
        us, vs, _ = w.edge_arrays()
        assert us.tolist() == [0, 0, 3]
        assert vs.tolist() == [1, 2, 4]


# ----------------------------------------------------------------------
# edges_for_level == edges_for_vertex
# ----------------------------------------------------------------------

class TestEdgesForLevel:
    def test_matches_scalar_rule(self):
        rng = np.random.default_rng(11)
        for g in graph_cases():
            if g.n == 0:
                continue
            h = sample_hierarchy(g.n, 2, rng)
            params = EmulatorParams.from_target_eps(0.5, 2)
            for level in range(3):
                sources = np.flatnonzero(h.levels == level)
                if sources.size == 0:
                    continue
                radius = params.deltas[level]
                block = kernels.batched_bfs(
                    g.indptr, g.indices, g.n, sources, max_dist=radius
                )
                is_dense, us, vs, ws = edges_for_level(level, sources, block, h)
                for i, v in enumerate(sources):
                    dist = block[i]
                    inside = np.flatnonzero(dist <= radius)
                    order = np.lexsort((inside, dist[inside]))
                    inside = inside[order]
                    dense, edges = edges_for_vertex(level, inside, dist[inside], h)
                    assert bool(is_dense[i]) == dense
                    mine = sorted(
                        (int(b), float(w))
                        for a, b, w in zip(us, vs, ws)
                        if a == v
                    )
                    assert mine == sorted((t, w) for t, w in edges)

    def test_empty_level_block(self):
        h = sample_hierarchy(6, 2, np.random.default_rng(0))
        is_dense, us, vs, ws = edges_for_level(
            0, np.zeros(0, dtype=np.int64), np.zeros((0, 6)), h
        )
        assert is_dense.size == 0 and us.size == 0


# ----------------------------------------------------------------------
# Batched constructions == reference constructions
# ----------------------------------------------------------------------

class TestBatchedBuildFidelity:
    @pytest.mark.parametrize("r, cases, seed", [
        pytest.param(1, graph_cases, 13, id="1"),
        pytest.param(2, graph_cases, 13, id="2"),
        pytest.param(3, graph_cases, 13, id="3"),
        pytest.param(
            2, lambda: [gen.make_family("er_sparse", 50, seed=14)], 14,
            id="2-er_sparse-50",
        ),
    ])
    def test_build_emulator(self, r, cases, seed):
        for g in cases():
            h = sample_hierarchy(g.n, r, np.random.default_rng(seed))
            fast = build_emulator(g, 0.4, r, hierarchy=h)
            with kernels.force_backend("reference"):
                slow = build_emulator(g, 0.4, r, hierarchy=h)
            assert_same_graph(fast.emulator, slow.emulator)
            assert fast.stats == slow.stats

    def test_build_emulator_hierarchy_reuse(self):
        # The same pre-sampled hierarchy must flow through both paths and
        # come back attached to the result.
        g = gen.make_family("tree", 45, seed=15)
        h = sample_hierarchy(g.n, 2, np.random.default_rng(15))
        fast = build_emulator(g, 0.4, 2, hierarchy=h)
        assert fast.hierarchy is h

    def test_build_emulator_empty_level(self):
        # A hierarchy with an empty middle level (S_2 = ∅ while r = 3).
        n = 30
        g = gen.make_family("er_sparse", n, seed=16)
        masks = np.zeros((4, n), dtype=bool)
        masks[0] = True
        masks[1, : n // 2] = True
        h = Hierarchy.from_masks(masks)
        fast = build_emulator(g, 0.4, 3, hierarchy=h)
        with kernels.force_backend("reference"):
            slow = build_emulator(g, 0.4, 3, hierarchy=h)
        assert_same_graph(fast.emulator, slow.emulator)
        assert fast.stats == slow.stats

    def test_build_emulator_radius_zero_edges(self):
        # delta floor(radius) = 0 keeps only the vertex itself in the
        # ball: sparse vertices add nothing, dense never triggers.
        n = 20
        g = gen.make_family("er_sparse", n, seed=17)
        masks = np.ones((2, n), dtype=bool)
        h = Hierarchy.from_masks(masks)  # every vertex sits at level 1
        params = EmulatorParams(eps=0.9, r=1)
        params.deltas[1] = 0.5  # floored to radius 0
        fast = build_emulator(g, 0.9, 1, hierarchy=h, params=params,
                              rescale=False)
        with kernels.force_backend("reference"):
            slow = build_emulator(g, 0.9, 1, hierarchy=h, params=params,
                                  rescale=False)
        assert_same_graph(fast.emulator, slow.emulator)
        assert fast.stats == slow.stats

    def test_build_emulator_cc(self):
        for g in graph_cases():
            if g.n < 2:
                continue
            fast = build_emulator_cc(g, 0.4, 2, rng=np.random.default_rng(18))
            with kernels.force_backend("reference"):
                slow = build_emulator_cc(g, 0.4, 2, rng=np.random.default_rng(18))
            assert_same_graph(fast.emulator, slow.emulator)
            assert fast.stats == slow.stats
            assert fast.ledger.total == slow.ledger.total

    def test_build_emulator_whp(self):
        g = gen.make_family("er_sparse", 80, seed=19)
        fast = build_emulator_whp(g, 0.4, 2, rng=np.random.default_rng(19))
        with kernels.force_backend("reference"):
            slow = build_emulator_whp(g, 0.4, 2, rng=np.random.default_rng(19))
        assert_same_graph(fast.emulator, slow.emulator)
        assert fast.stats == slow.stats
        assert fast.ledger.total == slow.ledger.total

    def test_build_warmup(self):
        for g in graph_cases():
            fast = build_warmup_emulator(g, 0.35, rng=np.random.default_rng(20))
            with kernels.force_backend("reference"):
                slow = build_warmup_emulator(g, 0.35, rng=np.random.default_rng(20))
            assert_same_graph(fast.emulator, slow.emulator)
            assert fast.stats == slow.stats

    def test_build_warmup_patch_paths(self):
        # Adversarial masks force both patch rules; counts must agree.
        g = gen.make_family("er_dense", 40, seed=21)
        s1 = np.zeros(g.n, dtype=bool)
        s1[:2] = True  # high-degree vertices likely miss S_1 neighbours
        s2 = np.zeros(g.n, dtype=bool)
        fast = build_warmup_emulator(g, 0.3, s1_mask=s1, s2_mask=s2)
        with kernels.force_backend("reference"):
            slow = build_warmup_emulator(g, 0.3, s1_mask=s1, s2_mask=s2)
        assert_same_graph(fast.emulator, slow.emulator)
        assert fast.stats == slow.stats

    def test_build_tz(self):
        for g in graph_cases():
            fast = build_tz_emulator(g, 2, rng=np.random.default_rng(22))
            with kernels.force_backend("reference"):
                slow = build_tz_emulator(g, 2, rng=np.random.default_rng(22))
            assert_same_graph(fast.emulator, slow.emulator)

    def test_build_hopset(self):
        for g in graph_cases():
            if g.n < 2:
                continue
            fast = build_bounded_hopset(g, 0.5, 5, rng=np.random.default_rng(23))
            with kernels.force_backend("reference"):
                slow = build_bounded_hopset(g, 0.5, 5, rng=np.random.default_rng(23))
            assert_same_graph(fast.hopset, slow.hopset)
            assert fast.num_edges == slow.num_edges
            assert fast.beta == slow.beta

    def test_deterministic_hierarchy_and_emulator(self):
        g = gen.make_family("er_sparse", 70, seed=24)
        params = EmulatorParams.from_target_eps(0.4, 2)
        fast_h = build_deterministic_hierarchy(g, params)
        with kernels.force_backend("reference"):
            slow_h = build_deterministic_hierarchy(g, params)
        assert np.array_equal(fast_h.masks, slow_h.masks)
        fast = build_emulator_deterministic(g, 0.4, 2)
        with kernels.force_backend("reference"):
            slow = build_emulator_deterministic(g, 0.4, 2)
        assert_same_graph(fast.emulator, slow.emulator)
        assert fast.stats == slow.stats
        assert fast.ledger.total == slow.ledger.total


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_build_emulator_fidelity_hypothesis(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    n = data.draw(st.integers(2, 60))
    p = data.draw(st.floats(0.02, 0.3))
    r = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    iu = np.triu_indices(n, 1)
    edges = [(int(i), int(j)) for i, j in zip(*iu) if mask[i, j]]
    g = Graph(n, edges)
    h = sample_hierarchy(n, r, rng)
    fast = build_emulator(g, 0.4, r, hierarchy=h)
    with kernels.force_backend("reference"):
        slow = build_emulator(g, 0.4, r, hierarchy=h)
    ta, tb = fast.emulator.edge_arrays(), slow.emulator.edge_arrays()
    assert all(np.array_equal(x, y) for x, y in zip(ta, tb))
    assert fast.stats == slow.stats
