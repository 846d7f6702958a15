"""Hypothesis property tests of the paper's core invariants on random
graphs — the strongest form of the reproduction: the theorem statements as
executable properties."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.emulator import build_emulator, cc_stretch_bound, build_emulator_cc
from repro.graph import Graph
from repro.graph.distances import (
    all_pairs_distances,
    hop_limited_bellman_ford,
    weighted_all_pairs,
)
from repro.toolkit import build_bounded_hopset, kd_nearest_bfs, kd_nearest_matrix


@st.composite
def graphs(draw, min_n=4, max_n=24):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    num_pairs = n * (n - 1) // 2
    bits = draw(
        st.lists(st.booleans(), min_size=num_pairs, max_size=num_pairs)
    )
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p, b in zip(pairs, bits) if b]
    return Graph(n, edges)


@settings(max_examples=30, deadline=None)
@given(g=graphs(), seed=st.integers(min_value=0, max_value=1000))
def test_emulator_theorem_24_stretch(g, seed):
    """Theorem 24: the ideal emulator satisfies
    d <= d_H <= (1 + 20 eps r) d + beta_r for every pair."""
    rng = np.random.default_rng(seed)
    exact = all_pairs_distances(g)
    res = build_emulator(g, eps=0.5, r=2, rng=rng)
    emu = weighted_all_pairs(res.emulator)
    finite = np.isfinite(exact)
    assert (emu[finite] >= exact[finite] - 1e-9).all()
    bound = res.params.multiplicative * exact + res.params.beta
    assert (emu[finite] <= bound[finite] + 1e-9).all()


@settings(max_examples=20, deadline=None)
@given(g=graphs(), seed=st.integers(min_value=0, max_value=1000))
def test_emulator_cc_appendix_c3_stretch(g, seed):
    """Appendix C.3: the clique build satisfies the (1+4eps', 2beta)
    stretch."""
    rng = np.random.default_rng(seed)
    exact = all_pairs_distances(g)
    res = build_emulator_cc(g, eps=0.5, r=2, rng=rng)
    emu = weighted_all_pairs(res.emulator)
    finite = np.isfinite(exact)
    assert (emu[finite] >= exact[finite] - 1e-9).all()
    bound = cc_stretch_bound(res.params, exact)
    assert (emu[finite] <= bound[finite] + 1e-9).all()


@settings(max_examples=20, deadline=None)
@given(
    g=graphs(min_n=4, max_n=18),
    k=st.integers(min_value=1, max_value=8),
    d=st.integers(min_value=1, max_value=8),
)
def test_kd_nearest_theorem_10_semantics(g, k, d):
    """Theorem 10 / Claim 59: the filtered-squaring algorithm computes
    exactly the (k, d)-nearest with deterministic tie-breaking."""
    m, _ = kd_nearest_matrix(g, k, d)
    b, _ = kd_nearest_bfs(g, k, d)
    assert np.array_equal(m, b.dense())


@settings(max_examples=15, deadline=None)
@given(g=graphs(min_n=6, max_n=20), seed=st.integers(min_value=0, max_value=100))
def test_hopset_theorem_12_property(g, seed):
    """Theorem 12: beta hops in G ∪ H give (1+eps)-approximations for all
    pairs within distance t."""
    rng = np.random.default_rng(seed)
    eps, t = 0.5, 8
    hs = build_bounded_hopset(g, eps=eps, t=t, rng=rng)
    union = hs.union_with(g)
    sources = list(range(g.n))
    exact = all_pairs_distances(g)
    approx = hop_limited_bellman_ford(union, sources, max_hops=hs.beta)
    mask = np.isfinite(exact) & (exact <= t) & (exact > 0)
    assert (approx[mask] >= exact[mask] - 1e-9).all()
    if mask.any():
        assert (approx[mask] <= (1 + eps) * exact[mask] + 1e-9).all()


@settings(max_examples=15, deadline=None)
@given(g=graphs(min_n=4, max_n=16), seed=st.integers(min_value=0, max_value=100))
def test_applications_sound_on_random_graphs(g, seed):
    """All three APSP applications produce sound (never-underestimating)
    outputs on arbitrary (possibly disconnected) graphs."""
    from repro.apsp import apsp_near_additive, apsp_three_plus_eps, apsp_two_plus_eps

    rng = np.random.default_rng(seed)
    exact = all_pairs_distances(g)
    for fn in (apsp_near_additive, apsp_two_plus_eps, apsp_three_plus_eps):
        res = fn(g, eps=0.5, r=2, rng=rng)
        assert res.check_sound(exact), fn.__name__
