"""Edge-case coverage across the public API: degenerate graphs,
adversarial hierarchies, extreme parameters."""

import numpy as np
import pytest

from repro.apsp import (
    apsp_near_additive,
    apsp_three_plus_eps,
    apsp_two_plus_eps,
    exact_apsp,
    mssp,
)
from repro.emulator import (
    Hierarchy,
    build_emulator,
    build_emulator_cc,
    build_warmup_emulator,
)
from repro.graph import Graph, generators as gen
from repro.graph.distances import all_pairs_distances, weighted_all_pairs
from repro.toolkit import build_bounded_hopset, kd_nearest_bfs


class TestDegenerateGraphs:
    def test_single_vertex(self, rng):
        g = Graph(1, [])
        res = apsp_near_additive(g, eps=0.5, r=2, rng=rng)
        assert res.estimates.shape == (1, 1)
        assert res.estimates[0, 0] == 0

    def test_two_vertices_no_edge(self, rng):
        g = Graph(2, [])
        res = apsp_near_additive(g, eps=0.5, r=2, rng=rng)
        assert np.isinf(res.estimates[0, 1])

    def test_single_edge(self, rng):
        g = Graph(2, [(0, 1)])
        for fn in (apsp_near_additive, apsp_two_plus_eps, apsp_three_plus_eps):
            res = fn(g, eps=0.5, r=2, rng=rng)
            assert res.estimates[0, 1] == 1.0

    def test_complete_graph(self, rng):
        g = gen.complete_graph(25)
        exact = all_pairs_distances(g)
        res = apsp_two_plus_eps(g, eps=0.5, r=2, rng=rng)
        finite = np.isfinite(exact) & (exact > 0)
        assert (res.estimates[finite] == 1.0).all()

    def test_star_all_algorithms(self, rng):
        g = gen.star_graph(30)
        exact = all_pairs_distances(g)
        for fn in (apsp_near_additive, apsp_two_plus_eps, apsp_three_plus_eps):
            res = fn(g, eps=0.5, r=2, rng=rng)
            assert res.check_sound(exact), fn.__name__

    def test_many_components(self, rng):
        g = Graph(12, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)])
        exact = all_pairs_distances(g)
        res = apsp_near_additive(g, eps=0.5, r=2, rng=rng)
        assert res.check_sound(exact)
        # Edges still found.
        assert res.estimates[0, 1] == 1.0
        assert np.isinf(res.estimates[0, 2])

    def test_mssp_on_isolated_source(self, rng):
        g = Graph(5, [(1, 2), (2, 3)])
        res = mssp(g, [0], eps=0.5, r=2, rng=rng)
        assert res.estimates[0, 0] == 0
        assert np.isinf(res.estimates[0, 1])


class TestAdversarialHierarchies:
    def _all_level(self, n, r, level):
        masks = np.zeros((r + 1, n), dtype=bool)
        for i in range(level + 1):
            masks[i] = True
        return Hierarchy.from_masks(masks)

    def test_everyone_in_sr(self, rng):
        """S_r = V: the whole graph goes through the hopset stage."""
        g = gen.path_graph(30)
        h = self._all_level(30, 2, 2)
        res = build_emulator_cc(g, eps=0.5, r=2, hierarchy=h, rng=rng)
        exact = all_pairs_distances(g)
        emu = weighted_all_pairs(res.emulator)
        finite = np.isfinite(exact)
        assert (emu[finite] >= exact[finite] - 1e-9).all()

    def test_only_s0(self, rng):
        """S_1 = empty: every vertex is 0-sparse; the ideal emulator must
        contain all edges of G within delta_0 = 1 — i.e. G itself."""
        g = gen.cycle_graph(20)
        h = self._all_level(20, 2, 0)
        res = build_emulator(g, eps=0.5, r=2, hierarchy=h)
        emu = weighted_all_pairs(res.emulator)
        exact = all_pairs_distances(g)
        assert np.array_equal(emu, exact)

    def test_single_sr_vertex(self, rng):
        masks = np.zeros((3, 25), dtype=bool)
        masks[0] = True
        masks[1, 0] = True
        masks[2, 0] = True
        h = Hierarchy.from_masks(masks)
        g = gen.grid_graph(5, 5)
        res = build_emulator_cc(g, eps=0.5, r=2, hierarchy=h, rng=rng)
        exact = all_pairs_distances(g)
        emu = weighted_all_pairs(res.emulator)
        finite = np.isfinite(exact)
        assert (emu[finite] >= exact[finite] - 1e-9).all()


class TestExtremeParameters:
    def test_hopset_t_one(self, rng):
        g = gen.path_graph(30)
        hs = build_bounded_hopset(g, eps=0.5, t=1, rng=rng)
        # Pairs at distance 1 are graph edges; 1 hop suffices trivially.
        assert hs.beta >= 2

    def test_hopset_t_beyond_diameter(self, rng):
        g = gen.path_graph(20)
        hs = build_bounded_hopset(g, eps=0.5, t=1000, rng=rng)
        union = hs.union_with(g)
        from repro.graph.distances import hop_limited_bellman_ford

        exact = all_pairs_distances(g)
        approx = hop_limited_bellman_ford(union, [0], max_hops=hs.beta)
        assert (approx[0] <= 1.5 * exact[0] + 1e-9).all()

    def test_kd_nearest_k_equals_n(self, small_er):
        out, _ = kd_nearest_bfs(small_er, small_er.n, small_er.n)
        exact = all_pairs_distances(small_er)
        assert np.array_equal(out.dense(), exact)

    def test_emulator_r_one(self, small_er, rng):
        res = build_emulator(small_er, eps=0.5, r=1, rng=rng)
        exact = all_pairs_distances(small_er)
        emu = weighted_all_pairs(res.emulator)
        finite = np.isfinite(exact)
        assert (emu[finite] >= exact[finite] - 1e-9).all()
        bound = res.params.multiplicative * exact + res.params.beta
        assert (emu[finite] <= bound[finite] + 1e-9).all()

    def test_tiny_eps(self, small_path, rng):
        res = build_emulator(small_path, eps=0.05, r=2, rng=rng)
        exact = all_pairs_distances(small_path)
        emu = weighted_all_pairs(res.emulator)
        assert (emu[np.isfinite(exact)] >= exact[np.isfinite(exact)] - 1e-9).all()

    def test_warmup_tiny_graph(self, rng):
        g = Graph(3, [(0, 1), (1, 2)])
        w = build_warmup_emulator(g, eps=0.3, rng=rng)
        emu = weighted_all_pairs(w.emulator)
        assert emu[0, 2] >= 2

    def test_exact_apsp_empty_graph(self):
        res = exact_apsp(Graph(0, []))
        assert res.estimates.shape == (0, 0)
