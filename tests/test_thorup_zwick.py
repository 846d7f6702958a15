"""Tests for the TZ emulator, bunches, and Appendix A's containment claim."""

import numpy as np
import pytest

from repro import kernels
from repro.emulator import (
    build_emulator,
    build_tz_bunches,
    build_tz_emulator,
    sample_hierarchy,
)
from repro.graph import WeightedGraph
from repro.graph import generators as gen
from repro.graph.distances import all_pairs_distances, weighted_all_pairs


def random_weighted(n=70, seed=5, fractional=False):
    """An integer- (or quarter-integer-) weighted connected-ish graph."""
    base = gen.make_family("er_sparse", n, seed=seed)
    rng = np.random.default_rng(seed)
    wg = WeightedGraph(base.n)
    for u, v in base.edges():
        w = float(rng.integers(1, 9))
        if fractional:
            w += 0.25 * float(rng.integers(0, 4))
        wg.add_edge(int(u), int(v), w)
    return wg


class TestTZEmulator:
    def test_soundness(self, family_graph, rng):
        tz = build_tz_emulator(family_graph, r=2, rng=rng)
        exact = all_pairs_distances(family_graph)
        emu = weighted_all_pairs(tz.emulator)
        finite = np.isfinite(exact)
        assert (emu[finite] >= exact[finite] - 1e-9).all()

    def test_connected_input_connected_output(self, small_grid, rng):
        tz = build_tz_emulator(small_grid, r=2, rng=rng)
        emu = weighted_all_pairs(tz.emulator)
        assert np.isfinite(emu).all()

    def test_edge_weights_exact(self, small_er, rng):
        tz = build_tz_emulator(small_er, r=2, rng=rng)
        exact = all_pairs_distances(small_er)
        for u, v, w in tz.emulator.edges():
            assert w == pytest.approx(exact[u, v])

    def test_level0_vertices_keep_closer_peers(self, small_path, rng):
        """A level-0 vertex connects to every vertex strictly closer than
        its pivot — on a path with no sampled vertices nearby that means
        its graph neighbours at least."""
        tz = build_tz_emulator(small_path, r=2, rng=rng)
        emu = weighted_all_pairs(tz.emulator)
        exact = all_pairs_distances(small_path)
        # Stretch is finite and bounded for a connected graph.
        assert np.isfinite(emu).all()
        assert (emu >= exact - 1e-9).all()


class TestWeightedTZ:
    """The ISSUE 4 satellite: weighted TZ pipelines run the global
    exploration on the hop_limited_relax kernel (backend dispatch) and
    must be bit-identical to the per-vertex Dijkstra reference loop."""

    @pytest.mark.parametrize("fractional", [False, True])
    def test_emulator_bit_identical_to_reference(self, fractional):
        wg = random_weighted(fractional=fractional)
        h = sample_hierarchy(wg.n, 2, np.random.default_rng(3))
        fast = build_tz_emulator(wg, 2, hierarchy=h)
        with kernels.force_backend("reference"):
            slow = build_tz_emulator(wg, 2, hierarchy=h)
        for a, b in zip(
            fast.emulator.edge_arrays(), slow.emulator.edge_arrays()
        ):
            assert np.array_equal(a, b)

    def test_weighted_soundness(self):
        wg = random_weighted(seed=11)
        tz = build_tz_emulator(wg, 2, rng=np.random.default_rng(0))
        exact = weighted_all_pairs(wg)
        emu = weighted_all_pairs(tz.emulator)
        finite = np.isfinite(exact)
        assert (emu[finite] >= exact[finite] - 1e-9).all()


class TestTZBunches:
    def test_bit_identical_to_reference_unweighted(self, rng):
        g = gen.make_family("er_sparse", 80, seed=13)
        h = sample_hierarchy(g.n, 2, rng)
        fast = build_tz_bunches(g, 2, hierarchy=h)
        with kernels.force_backend("reference"):
            slow = build_tz_bunches(g, 2, hierarchy=h)
        assert np.array_equal(fast.srcs, slow.srcs)
        assert np.array_equal(fast.dsts, slow.dsts)
        assert np.array_equal(fast.dists, slow.dists)

    def test_bit_identical_to_reference_weighted(self):
        wg = random_weighted(seed=17, fractional=True)
        h = sample_hierarchy(wg.n, 2, np.random.default_rng(4))
        fast = build_tz_bunches(wg, 2, hierarchy=h)
        with kernels.force_backend("reference"):
            slow = build_tz_bunches(wg, 2, hierarchy=h)
        assert np.array_equal(fast.srcs, slow.srcs)
        assert np.array_equal(fast.dsts, slow.dsts)
        assert np.array_equal(fast.dists, slow.dists)

    def test_arc_weights_are_exact_distances(self, rng):
        g = gen.make_family("grid", 64, seed=19)
        bunches = build_tz_bunches(g, 2, rng=rng)
        exact = all_pairs_distances(g)
        assert np.array_equal(
            bunches.dists, exact[bunches.srcs, bunches.dsts]
        )

    def test_top_level_members_in_every_bunch(self, rng):
        # S_r has no next level, so every reachable S_r member belongs to
        # every bunch — the finiteness argument of the 2-hop combine.
        g = gen.make_family("grid", 49, seed=23)
        bunches = build_tz_bunches(g, 2, rng=rng)
        top = np.flatnonzero(bunches.hierarchy.masks[bunches.hierarchy.r])
        for v in range(0, g.n, 7):
            out = bunches.dsts[bunches.srcs == v]
            for w in top:
                if w != v:
                    assert w in out

    def test_stretch_and_metadata(self, rng):
        g = gen.make_family("er_sparse", 90, seed=29)
        bunches = build_tz_bunches(g, 2, rng=rng)
        assert bunches.k == 3
        assert bunches.stretch == 5
        assert bunches.num_edges == bunches.star.m


class TestAppendixAContainment:
    """Appendix A: 'all the edges taken to our emulator, for any choice of
    eps, are contained in the emulator built by TZ' (same hierarchy)."""

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.9])
    def test_containment_er(self, eps, rng):
        g = gen.make_family("er_sparse", 90, seed=17)
        h = sample_hierarchy(g.n, 2, rng)
        ours = build_emulator(g, eps=eps, r=2, hierarchy=h, rescale=False)
        tz = build_tz_emulator(g, r=2, hierarchy=h)
        tz_edges = {(u, v) for u, v, _ in tz.emulator.edges()}
        our_edges = {(u, v) for u, v, _ in ours.emulator.edges()}
        assert our_edges <= tz_edges

    @pytest.mark.parametrize("family", ["grid", "path", "tree"])
    def test_containment_families(self, family, rng):
        g = gen.make_family(family, 80, seed=23)
        h = sample_hierarchy(g.n, 2, rng)
        ours = build_emulator(g, eps=0.4, r=2, hierarchy=h, rescale=False)
        tz = build_tz_emulator(g, r=2, hierarchy=h)
        tz_edges = {(u, v) for u, v, _ in tz.emulator.edges()}
        our_edges = {(u, v) for u, v, _ in ours.emulator.edges()}
        assert our_edges <= tz_edges

    def test_weights_agree_on_shared_edges(self, rng):
        g = gen.make_family("er_sparse", 70, seed=29)
        h = sample_hierarchy(g.n, 2, rng)
        ours = build_emulator(g, eps=0.5, r=2, hierarchy=h, rescale=False)
        tz = build_tz_emulator(g, r=2, hierarchy=h)
        for u, v, w in ours.emulator.edges():
            assert tz.emulator.weight(u, v) == pytest.approx(w)

    def test_tz_usually_strictly_larger(self, rng):
        """TZ is global; the localized emulator should typically be a
        proper subset (it is universal across eps at the cost of size)."""
        g = gen.make_family("er_sparse", 100, seed=31)
        h = sample_hierarchy(g.n, 2, rng)
        ours = build_emulator(g, eps=0.3, r=2, hierarchy=h, rescale=False)
        tz = build_tz_emulator(g, r=2, hierarchy=h)
        assert tz.num_edges >= ours.num_edges
