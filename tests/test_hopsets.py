"""Tests for bounded hopsets (Theorem 12)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cliquesim import RoundLedger
from repro.graph import WeightedGraph
from repro.graph import generators as gen
from repro.graph.distances import all_pairs_distances, hop_limited_bellman_ford
from repro.telemetry.profiling import profile_build
from repro.toolkit import build_bounded_hopset, hopset_beta, kd_nearest_bfs
from repro.toolkit.hopsets import _bunch_edges_batched


def check_hopset_property(g, hs, eps, t, sample_sources):
    """Verify: d <= d^beta_{G∪H} <= (1+eps) d for all pairs at distance <= t."""
    exact = all_pairs_distances(g)[sample_sources]
    union = hs.union_with(g)
    approx = hop_limited_bellman_ford(union, sample_sources, max_hops=hs.beta)
    mask = np.isfinite(exact) & (exact <= t) & (exact > 0)
    assert (approx[mask] >= exact[mask] - 1e-9).all(), "hopset underestimates"
    ratio = approx[mask] / exact[mask]
    assert ratio.max() <= 1 + eps + 1e-9, f"stretch {ratio.max()} > 1+{eps}"


class TestGuarantee:
    def test_path_graph(self, rng):
        g = gen.path_graph(120)
        hs = build_bounded_hopset(g, eps=0.5, t=64, rng=rng)
        check_hopset_property(g, hs, 0.5, 64, list(range(0, 120, 11)))

    def test_grid(self, rng):
        g = gen.grid_graph(10, 10)
        hs = build_bounded_hopset(g, eps=0.5, t=16, rng=rng)
        check_hopset_property(g, hs, 0.5, 16, list(range(0, 100, 9)))

    def test_er_graph(self, rng):
        g = gen.connected_erdos_renyi(100, 2.5, rng)
        hs = build_bounded_hopset(g, eps=0.25, t=8, rng=rng)
        check_hopset_property(g, hs, 0.25, 8, list(range(0, 100, 7)))

    def test_deterministic_variant(self, rng):
        g = gen.path_graph(80)
        hs = build_bounded_hopset(g, eps=0.5, t=32, deterministic=True)
        check_hopset_property(g, hs, 0.5, 32, list(range(0, 80, 13)))

    def test_tree(self, rng):
        g = gen.balanced_tree(2, 6)
        hs = build_bounded_hopset(g, eps=0.5, t=12, rng=rng)
        check_hopset_property(g, hs, 0.5, 12, list(range(0, g.n, 10)))


class TestSizeAndShape:
    def test_edge_bound(self, rng):
        g = gen.connected_erdos_renyi(150, 3.0, rng)
        hs = build_bounded_hopset(g, eps=0.5, t=16, rng=rng)
        n = g.n
        bound = 4 * n ** 1.5 * math.log2(n)
        assert hs.num_edges <= bound

    def test_beta_formula(self):
        assert hopset_beta(2, 1.0, c_beta=3.0) == 3
        assert hopset_beta(16, 0.5) == 24
        assert hopset_beta(1, 0.5) >= 2

    def test_hitting_set_size(self, rng):
        g = gen.connected_erdos_renyi(150, 4.0, rng)
        hs = build_bounded_hopset(g, eps=0.5, t=8, rng=rng)
        # |A_1| = O(sqrt n log n) with the random construction + patching.
        assert len(hs.hitting_set) <= 6 * math.sqrt(g.n) * math.log2(g.n)

    def test_invalid_args(self, small_er, rng):
        with pytest.raises(ValueError):
            build_bounded_hopset(small_er, eps=0.0, t=4, rng=rng)
        with pytest.raises(ValueError):
            build_bounded_hopset(small_er, eps=0.5, t=0, rng=rng)


class TestRounds:
    def test_rounds_poly_log_t(self, rng):
        g = gen.path_graph(60)
        l1, l2 = RoundLedger(), RoundLedger()
        h1 = build_bounded_hopset(g, eps=0.5, t=4, rng=rng, ledger=l1)
        h2 = build_bounded_hopset(g, eps=0.5, t=32, rng=rng, ledger=l2)
        assert h1.rounds < h2.rounds
        # Theorem 12 total charge recorded:
        assert any("theorem-12" in r.phase for r in l1)

    def test_deterministic_charges_extra(self, rng):
        g = gen.path_graph(50)
        r_rand = build_bounded_hopset(g, eps=0.5, t=8, rng=rng).rounds
        r_det = build_bounded_hopset(g, eps=0.5, t=8, deterministic=True).rounds
        assert r_det > r_rand


class TestInternals:
    def test_claim_61_per_vertex_bunch_bound(self, rng):
        """Claim 61: every vertex outside A_1 adds at most k = sqrt(n)log n
        bunch edges."""
        g = gen.connected_erdos_renyi(120, 4.0, rng)
        hs = build_bounded_hopset(g, eps=0.5, t=8, rng=rng)
        k = math.ceil(math.sqrt(g.n) * math.log2(g.n))
        a1 = set(int(x) for x in hs.hitting_set)
        for v in range(g.n):
            if v in a1:
                continue
            degree = hs.hopset.degree(v)
            # v's own bunch plus edges other vertices added towards v.
            assert degree <= 3 * k

    def test_a1_pairs_connected_within_t(self, rng):
        """After the level iterations, A_1 pairs within distance t have a
        direct hopset edge (the A_1 x A_1 stage adds them)."""
        g = gen.path_graph(100)
        t = 32
        hs = build_bounded_hopset(g, eps=0.5, t=t, rng=rng)
        exact = all_pairs_distances(g)
        a1 = [int(x) for x in hs.hitting_set]
        for i, a in enumerate(a1):
            for b in a1[i + 1:]:
                if exact[a, b] <= t:
                    assert np.isfinite(hs.hopset.weight(a, b))

    def test_beta_grows_with_smaller_eps(self):
        from repro.toolkit import hopset_beta

        assert hopset_beta(16, 0.25) > hopset_beta(16, 0.5)


class TestSoundness:
    def test_hopset_weights_never_below_true_distance(self, rng):
        """Structural soundness: every hopset edge weight >= d_G."""
        g = gen.connected_erdos_renyi(80, 3.0, rng)
        hs = build_bounded_hopset(g, eps=0.5, t=10, rng=rng)
        exact = all_pairs_distances(g)
        for u, v, w in hs.hopset.edges():
            assert w >= exact[u, v] - 1e-9


# ----------------------------------------------------------------------
# Fixpoint exit of the level loop
# ----------------------------------------------------------------------

def full_level_hopset(g, eps, t, a1):
    """The bunch hopset rebuilt from the same parts, then *every* one of
    the ``ceil(log2 t)`` levels run (no fixpoint exit).  Returns the
    hopset and, per level, whether that level changed its edge arrays."""
    n = g.n
    k = min(n, max(1, math.ceil(math.sqrt(n) * max(1.0, math.log2(max(n, 2))))))
    nearest, _ = kd_nearest_bfs(g, k, t)
    a1_mask = np.zeros(n, dtype=bool)
    a1_mask[a1] = True
    hopset = WeightedGraph(n)
    _bunch_edges_batched(hopset, nearest, a1_mask)
    beta = hopset_beta(t, eps)
    changed = []
    for _ in range(max(1, math.ceil(math.log2(max(t, 2))))):
        union = g.to_weighted()
        union.union_update(hopset)
        sub = hop_limited_bellman_ford(union, a1.tolist(), 4 * beta)[:, a1]
        rows, cols = np.nonzero(np.isfinite(sub))
        keep = a1[rows] != a1[cols]
        before = hopset.edge_arrays()
        hopset.add_edges_arrays(
            a1[rows[keep]], a1[cols[keep]], sub[rows[keep], cols[keep]]
        )
        after = hopset.edge_arrays()
        changed.append(not all(map(np.array_equal, before, after)))
    return hopset, changed


def assert_same_hopset(hs, reference):
    for got, want in zip(hs.hopset.edge_arrays(), reference.edge_arrays()):
        assert np.array_equal(got, want)
    assert hs.num_edges == reference.m


def assert_equals_full_level_loop(g, eps, t, deterministic, seed):
    hs = build_bounded_hopset(
        g, eps=eps, t=t, rng=np.random.default_rng(seed),
        deterministic=deterministic,
    )
    reference, _ = full_level_hopset(g, eps, t, hs.hitting_set)
    assert_same_hopset(hs, reference)


def levels_run(g, **kwargs):
    with profile_build() as prof:
        hs = build_bounded_hopset(g, **kwargs)
    return hs, prof.phases["hopset:level-source-detection"]["charges"]


@st.composite
def hopset_graphs(draw):
    family = draw(st.sampled_from(["er", "path", "grid"]))
    if family == "er":
        seed = draw(st.integers(0, 2**32 - 1))
        n = draw(st.integers(2, 150))
        degree = draw(st.floats(1.0, 5.0))
        return gen.connected_erdos_renyi(n, degree, np.random.default_rng(seed))
    if family == "path":
        return gen.path_graph(draw(st.integers(2, 200)))
    return gen.grid_graph(draw(st.integers(1, 12)), draw(st.integers(2, 12)))


class TestFixpointExit:
    @settings(max_examples=150, deadline=None)
    @given(
        g=hopset_graphs(),
        eps=st.floats(0.1, 0.95),
        t=st.one_of(st.integers(1, 8), st.integers(1, 70)),
        deterministic=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_full_level_loop(self, g, eps, t, deterministic, seed):
        assert_equals_full_level_loop(g, eps, t, deterministic, seed)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(60, 200),
        eps=st.floats(0.4, 0.95),
        t=st.integers(2, 8),
        deterministic=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_long_paths_equal_full_level_loop(self, n, eps, t, deterministic, seed):
        """Long paths at small ``t`` are where a hopset still changes
        after level 1, so the level loop runs past its first exit check."""
        assert_equals_full_level_loop(gen.path_graph(n), eps, t, deterministic, seed)

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_early_exit_runs_fewer_levels(self, deterministic):
        g, eps, t = gen.path_graph(40), 0.5, 64
        hs, ran = levels_run(
            g, eps=eps, t=t, rng=np.random.default_rng(0),
            deterministic=deterministic,
        )
        reference, changed = full_level_hopset(g, eps, t, hs.hitting_set)
        assert ran < len(changed) and not any(changed[ran - 1:])
        assert_same_hopset(hs, reference)

    def test_last_level_still_changing_runs_every_level(self):
        g, eps, t = gen.path_graph(120), 0.5, 4
        hs, ran = levels_run(g, eps=eps, t=t, rng=np.random.default_rng(0))
        reference, changed = full_level_hopset(g, eps, t, hs.hitting_set)
        assert changed == [True, True] and ran == 2
        assert_same_hopset(hs, reference)

    def test_rounds_charge_every_level(self):
        """The ledger charge is the closed form for all levels, whether
        or not the loop stopped early."""
        g = gen.path_graph(40)
        ledger = RoundLedger()
        hs, ran = levels_run(
            g, eps=0.5, t=64, rng=np.random.default_rng(0), ledger=ledger
        )
        assert ran < 6
        assert [r.phase for r in ledger] == ["hopset:total(theorem-12)"]
        assert ledger.total == hs.rounds
