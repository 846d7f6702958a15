"""Unit and property tests for repro.graph.distances."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.graph import Graph, WeightedGraph, distances as distances_mod, generators as gen
from repro.graph.distances import (
    all_pairs_distances,
    ball,
    bfs_distances,
    core_distances,
    diameter,
    dijkstra,
    eccentricity,
    hanging_tree_labels,
    hop_limited_bellman_ford,
    k_nearest_within,
    multi_source_bfs,
    weighted_all_pairs,
)


def random_graph(n: int, edge_bits: list) -> Graph:
    """Deterministic graph from a hypothesis-drawn bit list."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p, b in zip(pairs, edge_bits) if b]
    return Graph(n, edges)


class TestBFS:
    def test_path_distances(self, small_path):
        d = bfs_distances(small_path, 0)
        assert d.tolist() == list(range(small_path.n))

    def test_truncation(self, small_path):
        d = bfs_distances(small_path, 0, max_dist=5)
        assert d[5] == 5
        assert np.isinf(d[6])

    def test_unreachable(self):
        g = Graph(4, [(0, 1)])
        d = bfs_distances(g, 0)
        assert np.isinf(d[2]) and np.isinf(d[3])

    def test_source_zero(self, small_er):
        assert bfs_distances(small_er, 7)[7] == 0

    def test_matches_scipy(self, family_graph):
        exact = all_pairs_distances(family_graph)
        for s in range(0, family_graph.n, 13):
            d = bfs_distances(family_graph, s)
            assert np.array_equal(
                np.nan_to_num(d, posinf=-1), np.nan_to_num(exact[s], posinf=-1)
            )


class TestMultiSourceBFS:
    def test_empty_sources(self, small_path):
        d = multi_source_bfs(small_path, [])
        assert np.isinf(d).all()

    def test_min_over_sources(self, small_path):
        d = multi_source_bfs(small_path, [0, 59])
        expected = np.minimum(
            bfs_distances(small_path, 0), bfs_distances(small_path, 59)
        )
        assert np.array_equal(d, expected)

    def test_duplicate_sources(self, small_path):
        d1 = multi_source_bfs(small_path, [3, 3, 3])
        d2 = bfs_distances(small_path, 3)
        assert np.array_equal(d1, d2)


class TestBall:
    def test_ball_contains_center(self, small_er):
        verts, dists = ball(small_er, 5, 2)
        assert verts[0] == 5
        assert dists[0] == 0

    def test_ball_sorted_by_distance(self, small_er):
        _, dists = ball(small_er, 0, 3)
        assert (np.diff(dists) >= 0).all()

    def test_ball_radius_zero(self, small_er):
        verts, _ = ball(small_er, 4, 0)
        assert verts.tolist() == [4]

    def test_ball_radius_respected(self, small_path):
        verts, dists = ball(small_path, 10, 3)
        assert set(verts.tolist()) == set(range(7, 14))
        assert dists.max() <= 3


class TestKNearestWithin:
    def test_prefix_of_ball(self, small_er):
        verts, dists = k_nearest_within(small_er, 0, 5, 3)
        assert len(verts) <= 5
        assert (dists <= 3).all()

    def test_includes_self(self, small_er):
        verts, _ = k_nearest_within(small_er, 9, 3, 2)
        assert verts[0] == 9

    def test_fewer_than_k(self, small_path):
        verts, _ = k_nearest_within(small_path, 0, 50, 2)
        assert len(verts) == 3  # 0, 1, 2


class TestAllPairs:
    def test_methods_agree(self, family_graph):
        a = all_pairs_distances(family_graph, method="scipy")
        b = all_pairs_distances(family_graph, method="bfs")
        assert np.array_equal(np.nan_to_num(a, posinf=-1), np.nan_to_num(b, posinf=-1))

    def test_unknown_method(self, triangle):
        with pytest.raises(ValueError):
            all_pairs_distances(triangle, method="magic")

    def test_empty_graph(self):
        d = all_pairs_distances(Graph(0, []))
        assert d.shape == (0, 0)

    def test_symmetric(self, small_er):
        d = all_pairs_distances(small_er)
        assert np.array_equal(d, d.T)

    def test_triangle_inequality(self, small_er):
        d = all_pairs_distances(small_er)
        n = small_er.n
        rng = np.random.default_rng(0)
        for _ in range(200):
            i, j, k = rng.integers(0, n, 3)
            assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestHopLimitedBellmanFord:
    def test_unweighted_matches_truncated_bfs(self, small_er):
        wg = small_er.to_weighted()
        sources = [0, 5, 10]
        for hops in (1, 2, 3):
            bf = hop_limited_bellman_ford(wg, sources, hops)
            for i, s in enumerate(sources):
                bfs = bfs_distances(small_er, s, max_dist=hops)
                assert np.array_equal(
                    np.nan_to_num(bf[i], posinf=-1), np.nan_to_num(bfs, posinf=-1)
                )

    def test_converges_to_dijkstra(self):
        wg = WeightedGraph(5)
        wg.add_edges_from([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (0, 4, 10.0), (4, 3, 1.0)])
        bf = hop_limited_bellman_ford(wg, [0], 10)
        dj = dijkstra(wg, 0)
        assert np.allclose(bf[0], dj)

    def test_hop_bound_binds(self):
        # 0 -1- 1 -1- 2 and a direct heavy edge 0-2.
        wg = WeightedGraph(3)
        wg.add_edges_from([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
        bf1 = hop_limited_bellman_ford(wg, [0], 1)
        assert bf1[0, 2] == 5.0
        bf2 = hop_limited_bellman_ford(wg, [0], 2)
        assert bf2[0, 2] == 2.0

    def test_zero_hops(self):
        wg = WeightedGraph(3)
        wg.add_edge(0, 1, 1.0)
        bf = hop_limited_bellman_ford(wg, [0], 0)
        assert bf[0, 0] == 0
        assert np.isinf(bf[0, 1])

    def test_no_edges(self):
        wg = WeightedGraph(3)
        bf = hop_limited_bellman_ford(wg, [1], 5)
        assert bf[0, 1] == 0
        assert np.isinf(bf[0, 0])

    def test_monotone_in_hops(self, small_grid):
        wg = small_grid.to_weighted()
        b2 = hop_limited_bellman_ford(wg, [0], 2)
        b4 = hop_limited_bellman_ford(wg, [0], 4)
        assert (b4 <= b2 + 1e-12).all()

    def test_rows_at_and_past_the_bound(self):
        # Unit path 0-1-2-3 with a chord 0-3 of weight 9, and an edge 4-5
        # of weight 2.  At h = 2 the rows of 1 and 4 (a duplicate source)
        # reach exactly h and stay exact; the row of 0 reaches 3 = h + 1,
        # where the bound binds: d(0, 3) = 3 takes three hops.
        wg = WeightedGraph(6)
        wg.add_edges_from([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 9.0),
                           (4, 5, 2.0)])
        sources = [0, 1, 4, 4]
        assert largest_distance(wg, sources).tolist() == [3.0, 2.0, 2.0, 2.0]
        got = hop_limited_bellman_ford(wg, sources, 2)
        assert np.array_equal(got, relax_rows(wg, sources, 2))
        assert got[0].tolist() == [0.0, 1.0, 2.0, 9.0, np.inf, np.inf]
        assert got[2].tolist() == [np.inf] * 4 + [0.0, 2.0]

    def test_reference_backend_runs_every_row_on_the_relax(self, monkeypatch):
        wg = WeightedGraph(3)
        wg.add_edges_from([(0, 1, 2.0), (1, 2, 3.0)])
        calls = []

        def counted(seeds, *rest):
            calls.append(seeds.shape[0])
            return kernels.relax.hop_limited_relax(seeds, *rest)

        monkeypatch.setattr(kernels, "hop_limited_relax", counted)
        fast = hop_limited_bellman_ford(wg, [0, 2], 10)
        assert calls == []
        with kernels.force_backend("reference"):
            slow = hop_limited_bellman_ford(wg, [0, 2], 10)
        assert calls == [2]
        assert np.array_equal(fast, slow)


class TestDijkstraAndWeightedAllPairs:
    def test_dijkstra_truncation(self):
        wg = WeightedGraph(4)
        wg.add_edges_from([(0, 1, 2.0), (1, 2, 2.0), (2, 3, 2.0)])
        d = dijkstra(wg, 0, max_dist=3.0)
        assert d[1] == 2.0
        assert np.isinf(d[2])

    def test_weighted_all_pairs_matches_dijkstra(self, small_er, rng):
        wg = WeightedGraph(small_er.n)
        for u, v in small_er.edges():
            wg.add_edge(int(u), int(v), float(rng.integers(1, 5)))
        full = weighted_all_pairs(wg)
        for s in (0, 3, 17):
            assert np.allclose(full[s], dijkstra(wg, s))

    def test_weighted_all_pairs_sources_subset(self, small_er):
        wg = small_er.to_weighted()
        sub = weighted_all_pairs(wg, sources=[2, 4])
        full = weighted_all_pairs(wg)
        assert np.allclose(sub, full[[2, 4]])

    def test_empty_sources(self, small_er):
        wg = small_er.to_weighted()
        out = weighted_all_pairs(wg, sources=[])
        assert out.shape == (0, small_er.n)


class TestEccentricityDiameter:
    def test_path_diameter(self, small_path):
        assert diameter(small_path) == small_path.n - 1

    def test_path_eccentricity(self, small_path):
        assert eccentricity(small_path, 0) == small_path.n - 1
        mid = small_path.n // 2
        assert eccentricity(small_path, mid) == max(mid, small_path.n - 1 - mid)

    def test_disconnected_diameter_over_reachable(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert diameter(g) == 1

    def test_empty(self):
        assert diameter(Graph(0, [])) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    data=st.data(),
)
def test_property_bfs_triangle_inequality(n, data):
    """BFS distances satisfy symmetry and triangle inequality on random
    graphs (the metric axioms of shortest-path distance)."""
    num_pairs = n * (n - 1) // 2
    bits = data.draw(st.lists(st.booleans(), min_size=num_pairs, max_size=num_pairs))
    g = random_graph(n, bits)
    d = all_pairs_distances(g, method="bfs")
    assert np.array_equal(d, d.T)
    for i in range(n):
        assert d[i, i] == 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    hops=st.integers(min_value=0, max_value=6),
    data=st.data(),
)
def test_property_hop_limited_bf_equals_truncated_bfs(n, hops, data):
    """On unit weights, h-hop Bellman-Ford == BFS truncated at depth h."""
    num_pairs = n * (n - 1) // 2
    bits = data.draw(st.lists(st.booleans(), min_size=num_pairs, max_size=num_pairs))
    g = random_graph(n, bits)
    wg = g.to_weighted()
    bf = hop_limited_bellman_ford(wg, [0], hops)
    bfs = bfs_distances(g, 0, max_dist=hops)
    assert np.array_equal(
        np.nan_to_num(bf[0], posinf=-1), np.nan_to_num(bfs, posinf=-1)
    )


def relax_rows(wg: WeightedGraph, sources, max_hops: int) -> np.ndarray:
    """The relax kernel from the 0-hop seeds of ``sources`` over both
    orientations of every edge: the reference for the hop-bounded rows."""
    us, vs, ws = wg.edge_arrays()
    seeds = np.full((len(sources), wg.n), np.inf)
    seeds[np.arange(len(sources)), sources] = 0.0
    return kernels.hop_limited_relax(
        seeds, np.concatenate([us, vs]), np.concatenate([vs, us]),
        np.concatenate([ws, ws]), max_hops,
    )


def largest_distance(wg: WeightedGraph, sources) -> np.ndarray:
    """Each source's largest finite exact distance."""
    exact = weighted_all_pairs(wg, sources)
    return np.where(np.isfinite(exact), exact, 0.0).max(axis=1)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_property_hop_limited_bf_equals_relax(data):
    """Every route of ``hop_limited_bellman_ford`` equals the relax
    kernel from the same seeds bit for bit: integral weights 1-10 with
    hop bounds at, just below and far from the rows' largest distances,
    fractional weights, no edges, ``max_hops = 0`` and duplicate
    sources."""
    n = data.draw(st.integers(1, 10), label="n")
    weight = data.draw(st.sampled_from([
        st.integers(1, 10).map(float),              # integral
        st.integers(1, 40).map(lambda k: k / 4),    # fractional
        st.floats(0.01, 10.0),                      # fractional
    ]), label="weights")
    wg = WeightedGraph(n)
    for i in range(n):
        for j in range(i + 1, n):
            if data.draw(st.booleans()):
                wg.add_edge(i, j, data.draw(weight))
    sources = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=6), label="sources"
    )
    reach = largest_distance(wg, sources)
    # A bound equal to one row's largest distance keeps that row on the
    # Dijkstra route; one below it sends the row to the relax.
    near = sorted({int(r) for r in reach} | {max(int(r) - 1, 0) for r in reach})
    max_hops = data.draw(
        st.one_of(st.sampled_from(near), st.integers(0, 12)), label="max_hops"
    )
    got = hop_limited_bellman_ford(wg, sources, max_hops)
    assert got.dtype == np.float64
    assert np.array_equal(got, relax_rows(wg, sources, max_hops))


def hanging_forest(data, weight) -> WeightedGraph:
    """A random core with random trees hung on its vertices, plus pure
    tree components, isolated vertices and single-edge components, under
    a random relabeling: every shape the peel of ``weighted_all_pairs``
    meets."""
    edges = []
    core = data.draw(st.integers(0, 7), label="core")
    for i in range(core):
        for j in range(i + 1, core):
            if data.draw(st.booleans()):
                edges.append((i, j))
    n = core
    for _ in range(data.draw(st.integers(0, 12), label="hung") if core else 0):
        edges.append((data.draw(st.integers(0, n - 1)), n))
        n += 1
    for _ in range(data.draw(st.integers(0, 2), label="trees")):
        first = n
        n += 1
        for _ in range(data.draw(st.integers(1, 6))):
            edges.append((data.draw(st.integers(first, n - 1)), n))
            n += 1
    n += data.draw(st.integers(0, 2), label="isolated")
    for _ in range(data.draw(st.integers(0, 2), label="single edges")):
        edges.append((n, n + 1))
        n += 2
    label = data.draw(st.permutations(range(n)), label="relabel") if n else []
    wg = WeightedGraph(n)
    for u, v in edges:
        wg.add_edge(label[u], label[v], data.draw(weight))
    return wg


def reference_all_pairs(wg: WeightedGraph, sources=None) -> np.ndarray:
    with kernels.force_backend("reference"):
        return weighted_all_pairs(wg, sources)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_property_weighted_all_pairs_peel_equals_dijkstra(data):
    """The hanging-tree route of ``weighted_all_pairs`` equals scipy's
    Dijkstra on the whole graph bit for bit, for all sources and for
    source lists with duplicates; fractional weights (which keep the
    whole-graph route) match too."""
    weight = data.draw(st.sampled_from([
        st.integers(1, 40).map(float),              # integral
        st.integers(1, 40).map(lambda k: k / 4),    # fractional
        st.floats(0.01, 10.0),                      # fractional
    ]), label="weights")
    wg = hanging_forest(data, weight)
    got = weighted_all_pairs(wg)
    assert got.dtype == np.float64
    assert np.array_equal(got, reference_all_pairs(wg))
    if wg.n:
        sources = data.draw(
            st.lists(st.integers(0, wg.n - 1), min_size=1, max_size=8),
            label="sources",
        )
        assert np.array_equal(
            weighted_all_pairs(wg, sources), reference_all_pairs(wg, sources)
        )


class TestWeightedAllPairsPeel:
    @staticmethod
    def weighted(n, edges, seed=3):
        rng = np.random.default_rng(seed)
        wg = WeightedGraph(n)
        for u, v in edges:
            wg.add_edge(u, v, float(rng.integers(1, 41)))
        return wg

    def check(self, wg):
        full = weighted_all_pairs(wg)
        assert np.array_equal(full, reference_all_pairs(wg))
        sources = [wg.n - 1, 0, wg.n - 1, wg.n // 2]
        assert np.array_equal(weighted_all_pairs(wg, sources), full[sources])
        return full

    def test_path(self):
        # Two branches of ~150 vertices: row chunks straddle them.
        self.check(self.weighted(300, [(i, i + 1) for i in range(299)]))

    def test_star(self):
        self.check(self.weighted(30, [(0, i) for i in range(1, 30)]))

    def test_tree(self):
        rng = np.random.default_rng(8)
        self.check(self.weighted(
            400, [(int(rng.integers(0, v)), v) for v in range(1, 400)]
        ))

    def test_cycle_with_a_pendant_tree_on_each_vertex(self, monkeypatch):
        k = 8
        edges = [(i, (i + 1) % k) for i in range(k)]
        edges += [(i, k + 2 * i) for i in range(k)]
        edges += [(k + 2 * i, k + 2 * i + 1) for i in range(k)]
        wg = self.weighted(3 * k, edges)
        shapes = []
        dijkstra_c = distances_mod.csgraph.dijkstra

        def counted(mat, *args, **kwargs):
            shapes.append(mat.shape)
            return dijkstra_c(mat, *args, **kwargs)

        monkeypatch.setattr(distances_mod.csgraph, "dijkstra", counted)
        weighted_all_pairs(wg)
        # The cycle is the core and the only Dijkstra; pairs on one
        # pendant path take the tree distance from the labels.
        assert shapes == [(k, k)]
        self.check(wg)

    def test_sums_past_2_53_keep_the_whole_graph_route(self):
        # Float sums round differently by direction past 2**53
        # (d(0, 3) = 2**53 but d(3, 0) = 2**53 + 2); the answer is still
        # scipy's on the whole graph.
        wg = WeightedGraph(4)
        wg.add_edges_from([(0, 1, 2.0**53), (1, 2, 1.0), (2, 3, 1.0)])
        full = self.check(wg)
        assert full[0, 3] != full[3, 0]

    def test_no_edges(self):
        wg = WeightedGraph(5)
        full = self.check(wg)
        assert np.array_equal(np.isinf(full), ~np.eye(5, dtype=bool))

    def test_near_additive_emulator_n400(self, monkeypatch):
        """The cc emulator of a near-additive build: a small 2-core with
        trees hanging off it."""
        from repro.apsp import near_additive

        caught = []
        labels = near_additive.hanging_tree_labels

        def capture(wg):
            caught.append(wg)
            return labels(wg)

        monkeypatch.setattr(near_additive, "hanging_tree_labels", capture)
        near_additive.apsp_near_additive(
            gen.make_family("er_sparse", 400, seed=0), eps=0.5,
            rng=np.random.default_rng(0),
        )
        (emulator,) = caught
        self.check(emulator)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_property_core_label_query_equals_expanded_matrix(data):
    """The ``core`` artifact's query (the labels and edge keys in their
    stored dtypes, answered by ``core_label_batch``) equals the expanded
    matrix — ``TreeLabels.rows`` with ``G``'s edges folded in at weight 1
    and a zero diagonal — on every pair of a random core with hung trees:
    pairs on one branch, on two branches of one root, across roots and
    components, ``u == v``, and ``G``-edges whose emulator distance is
    above, at or (unreachable) beyond 1.  The expansion itself equals
    Dijkstra on the whole graph."""
    from repro.apsp.near_additive import NearAdditiveLabels
    from repro.cliquesim.ledger import RoundLedger
    from repro.oracle.artifact import _narrow
    from repro.oracle.engine import core_label_batch, core_labels

    wg = hanging_forest(data, st.integers(1, 40).map(float))
    n = wg.n
    if n < 2:
        return
    labels = hanging_tree_labels(wg)
    dc = core_distances(wg, labels)
    expanded = labels.rows(dc, labels.root, np.arange(n))
    assert np.array_equal(expanded, reference_all_pairs(wg))
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda p: p[0] != p[1]).map(lambda p: (min(p), max(p))),
        unique=True, max_size=12,
    ), label="G edges")
    us, vs, _ = wg.edge_arrays()
    edges = sorted(set(pairs) | {
        (int(u), int(v)) for u, v in zip(us, vs) if data.draw(st.booleans())
    })
    graph_edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    result = NearAdditiveLabels(
        labels=labels, core_dist=dc, graph_edges=graph_edges, name="t",
        multiplicative=1.0, additive=0.0, ledger=RoundLedger(),
    )
    want = result.estimates()
    kernels.fold_in_edges(expanded, graph_edges[:, 0], graph_edges[:, 1])
    assert np.array_equal(want, expanded)
    arrays = {
        "core_dist": dc, "root": labels.root, "depth": labels.depth,
        "parent": labels.parent, "hops": labels.hops,
        "edge_keys": result.edge_keys(n),
    }
    core = core_labels(n, {k: _narrow(a) for k, a in arrays.items()})
    qu, qv = (a.ravel() for a in np.indices((n, n)))
    got, wits = core_label_batch(core, qu, qv)
    assert np.array_equal(got, want[qu, qv])
    assert (wits == -1).all()
