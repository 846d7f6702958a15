"""Unit tests for repro.graph.generators."""

import numpy as np
import pytest

from repro.graph import Graph, generators as gen
from repro.graph.distances import bfs_distances


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return bool(np.isfinite(bfs_distances(g, 0)).all())


class TestErdosRenyi:
    def test_p_zero(self, rng):
        assert gen.erdos_renyi(20, 0.0, rng).m == 0

    def test_p_one_is_complete(self, rng):
        g = gen.erdos_renyi(10, 1.0, rng)
        assert g.m == 45

    def test_p_out_of_range(self, rng):
        with pytest.raises(ValueError):
            gen.erdos_renyi(10, 1.5, rng)

    def test_edge_count_concentrates(self, rng):
        g = gen.erdos_renyi(100, 0.1, rng)
        expected = 0.1 * 100 * 99 / 2
        assert 0.5 * expected < g.m < 1.5 * expected

    def test_connected_variant_is_connected(self, rng):
        g = gen.connected_erdos_renyi(80, 1.5, rng)
        assert is_connected(g)

    def test_sparse_path_edge_count_concentrates(self, rng, monkeypatch):
        # Force the O(m)-memory sampling path at a testable size.
        monkeypatch.setattr(gen, "_DENSE_PAIR_LIMIT", 0)
        g = gen.erdos_renyi(500, 0.02, rng)
        expected = 0.02 * 500 * 499 / 2
        assert 0.5 * expected < g.m < 1.5 * expected

    def test_sparse_path_is_simple_and_canonical(self, rng, monkeypatch):
        monkeypatch.setattr(gen, "_DENSE_PAIR_LIMIT", 0)
        g = gen.erdos_renyi(300, 0.05, rng)
        edges = g.edges()
        assert (edges[:, 0] < edges[:, 1]).all()
        assert np.unique(edges, axis=0).shape[0] == edges.shape[0]

    def test_sparse_path_deterministic_given_seed(self, monkeypatch):
        monkeypatch.setattr(gen, "_DENSE_PAIR_LIMIT", 0)
        a = gen.erdos_renyi(400, 0.03, np.random.default_rng(7))
        b = gen.erdos_renyi(400, 0.03, np.random.default_rng(7))
        assert np.array_equal(a.edges(), b.edges())

    def test_giant_n_crosses_into_sparse_path(self):
        # n = 20000 has ~2e8 candidate pairs — over the dense limit, so
        # this exercises the real gate without O(n^2) memory or time.
        n = 20_000
        assert n * (n - 1) // 2 > gen._DENSE_PAIR_LIMIT
        g = gen.erdos_renyi(n, 4.0 / n, np.random.default_rng(5))
        expected = 2.0 * n
        assert 0.8 * expected < g.m < 1.2 * expected


def _historical_dense_gnp(n, p, rng):
    """The original small-graph G(n, p): one draw per upper-triangle
    pair, enumerated with ``np.triu_indices``."""
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < p
    return Graph(n, np.stack([iu[mask], ju[mask]], axis=1))


class TestDenseGnpChunking:
    @pytest.mark.parametrize("n, p, seed", [
        (0, 0.5, 1), (1, 0.5, 2), (2, 1.0, 3), (9, 0.4, 4),
        (300, 0.05, 5), (1500, 0.003, 6), (1600, 0.6, 7),
    ])
    def test_matches_historical_enumeration(self, n, p, seed):
        """Same edges, same order, and the same generator state after
        (the next draw agrees), across one and several chunks."""
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = gen.erdos_renyi(n, p, ours)
        want = _historical_dense_gnp(n, p, theirs)
        assert np.array_equal(got.edges(), want.edges())
        assert ours.random() == theirs.random()

    def test_small_chunks_match(self, monkeypatch):
        monkeypatch.setattr(gen, "_PAIR_CHUNK", 7)
        ours, theirs = np.random.default_rng(8), np.random.default_rng(8)
        got = gen.erdos_renyi(60, 0.2, ours)
        want = _historical_dense_gnp(60, 0.2, theirs)
        assert np.array_equal(got.edges(), want.edges())
        assert ours.random() == theirs.random()


class TestGnm:
    def test_exact_edge_count(self, rng):
        g = gen.gnm_random(20, 30, rng)
        assert g.m == 30

    def test_too_many_edges(self, rng):
        with pytest.raises(ValueError):
            gen.gnm_random(4, 10, rng)


class TestRegular:
    def test_degrees(self, rng):
        g = gen.random_regular(30, 4, rng)
        assert (g.degrees() == 4).all()

    def test_odd_product_rejected(self, rng):
        with pytest.raises(ValueError):
            gen.random_regular(5, 3, rng)

    def test_degree_too_large(self, rng):
        with pytest.raises(ValueError):
            gen.random_regular(4, 4, rng)


class TestDeterministicFamilies:
    def test_path(self):
        g = gen.path_graph(10)
        assert g.m == 9
        assert g.degree(0) == 1
        assert g.degree(5) == 2

    def test_path_tiny(self):
        assert gen.path_graph(1).m == 0
        assert gen.path_graph(2).m == 1

    def test_cycle(self):
        g = gen.cycle_graph(10)
        assert g.m == 10
        assert (g.degrees() == 2).all()

    def test_grid(self):
        g = gen.grid_graph(3, 4)
        assert g.n == 12
        assert g.m == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_torus_regular(self):
        g = gen.torus_graph(4, 5)
        assert (g.degrees() == 4).all()

    def test_star(self):
        g = gen.star_graph(7)
        assert g.degree(0) == 6
        assert g.m == 6

    def test_complete(self):
        g = gen.complete_graph(6)
        assert g.m == 15

    def test_balanced_tree(self):
        g = gen.balanced_tree(2, 3)
        assert g.n == 15
        assert g.m == 14

    def test_ring_of_cliques(self):
        g = gen.ring_of_cliques(4, 5)
        assert g.n == 20
        assert is_connected(g)
        # Each clique contributes C(5,2) edges + 1 bridge each.
        assert g.m == 4 * 10 + 4


class TestRandomTrees:
    def test_tree_edge_count(self, rng):
        g = gen.random_tree(25, rng)
        assert g.m == 24
        assert is_connected(g)

    def test_tiny_trees(self, rng):
        assert gen.random_tree(0, rng).n == 0
        assert gen.random_tree(1, rng).m == 0


class TestBarabasiAlbert:
    def test_connected_and_dense_enough(self, rng):
        g = gen.barabasi_albert(50, 3, rng)
        assert is_connected(g)
        assert g.m >= 3 * (50 - 3) * 0.5  # attachments may collide

    def test_invalid_k(self, rng):
        with pytest.raises(ValueError):
            gen.barabasi_albert(5, 0, rng)
        with pytest.raises(ValueError):
            gen.barabasi_albert(5, 5, rng)

    def test_has_skewed_degrees(self, rng):
        g = gen.barabasi_albert(200, 2, rng)
        degs = g.degrees()
        assert degs.max() > 3 * np.median(degs)


class TestMakeFamily:
    @pytest.mark.parametrize("name", gen.FAMILIES)
    def test_all_families_connected(self, name):
        g = gen.make_family(name, 80, seed=1)
        assert g.n > 0
        assert is_connected(g)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            gen.make_family("nope", 50)

    def test_deterministic_given_seed(self):
        a = gen.make_family("er_sparse", 60, seed=5)
        b = gen.make_family("er_sparse", 60, seed=5)
        assert np.array_equal(a.edges(), b.edges())

    def test_different_seeds_differ(self):
        a = gen.make_family("er_sparse", 60, seed=5)
        b = gen.make_family("er_sparse", 60, seed=6)
        assert not np.array_equal(a.edges(), b.edges())
