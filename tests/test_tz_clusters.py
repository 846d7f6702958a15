"""Property test: the TZ cluster pass against the per-vertex reference.

``build_tz_bunches`` and ``build_tz_emulator`` grow pruned clusters by
default and run one BFS / Dijkstra per vertex under
``force_backend("reference")``.  On unweighted and integer-weighted
graphs every path sum is exact in float64, so the two must agree bit
for bit — on disconnected graphs, for r in {1, 2, 3}, and on
hierarchies whose middle levels are empty.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.emulator import (
    build_tz_bunches,
    build_tz_emulator,
    sample_hierarchy,
)
from repro.emulator import thorup_zwick as tz
from repro.emulator.sampling import Hierarchy
from repro.graph import Graph, WeightedGraph
from repro.graph import generators as gen


@st.composite
def tz_instances(draw):
    """``(graph, hierarchy)``: a random sparse (often disconnected) graph,
    unweighted or with integer weights in ``[0, 6]``, and a hierarchy
    drawn from per-vertex levels with one middle level possibly
    emptied."""
    n = draw(st.integers(1, 28))
    r = draw(st.sampled_from([1, 2, 3]))
    raw = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=2 * n,
    ))
    pairs = sorted({(min(u, v), max(u, v)) for u, v in raw if u != v})
    if draw(st.booleans()):
        g = WeightedGraph(n)
        for u, v in pairs:
            g.add_edge(u, v, float(draw(st.integers(0, 6))))
    else:
        g = Graph(n, pairs)
    levels = np.array(draw(st.lists(
        st.integers(0, r), min_size=n, max_size=n,
    )))
    hole = draw(st.integers(1, r))
    if hole < r:
        # Nobody stops at the hole: S_hole == S_{hole+1}.
        levels[levels == hole] = hole - 1
    masks = np.vstack([levels >= i for i in range(r + 1)])
    return g, Hierarchy.from_masks(masks)


@settings(max_examples=200, deadline=None)
@given(tz_instances())
def test_bunches_match_reference(instance):
    g, h = instance
    fast = build_tz_bunches(g, h.r, hierarchy=h)
    with kernels.force_backend("reference"):
        slow = build_tz_bunches(g, h.r, hierarchy=h)
    assert np.array_equal(fast.srcs, slow.srcs)
    assert np.array_equal(fast.dsts, slow.dsts)
    assert np.array_equal(fast.dists, slow.dists)


@settings(max_examples=200, deadline=None)
@given(tz_instances())
def test_emulator_matches_reference(instance):
    g, h = instance
    fast = build_tz_emulator(g, h.r, hierarchy=h)
    with kernels.force_backend("reference"):
        slow = build_tz_emulator(g, h.r, hierarchy=h)
    for a, b in zip(fast.emulator.edge_arrays(), slow.emulator.edge_arrays()):
        assert np.array_equal(a, b)


def test_empty_middle_levels_are_exercised():
    """A hierarchy with an empty middle level and an empty top level
    (all pivots above level 1 missing) still matches the reference."""
    g = gen.make_family("grid", 36, seed=0)
    levels = np.zeros(g.n, dtype=np.int64)
    levels[[3, 17, 29]] = 1
    masks = np.vstack([levels >= i for i in range(4)])
    h = Hierarchy.from_masks(masks)
    assert h.sizes() == [36, 3, 0, 0]
    fast = build_tz_bunches(g, h.r, hierarchy=h)
    with kernels.force_backend("reference"):
        slow = build_tz_bunches(g, h.r, hierarchy=h)
    assert np.array_equal(fast.dists, slow.dists)
    assert np.array_equal(fast.dsts, slow.dsts)


def _spill_dirs(root):
    return [d for d in os.listdir(root) if d.startswith("repro-tz-arcs-")]


class TestArcSpill:
    def test_blocks_cover_ascending_disjoint_ranges(self):
        g = gen.make_family("er_sparse", 300, seed=3)
        h = sample_hierarchy(g.n, 2, np.random.default_rng(1))
        blocks = list(tz.iter_tz_bunch_arc_blocks(g, h))
        assert blocks[0][0] == 0 and blocks[-1][1] == g.n
        for (lo, hi, srcs, dsts, _), nxt in zip(blocks, blocks[1:] + [None]):
            assert ((srcs >= lo) & (srcs < hi)).all()
            assert (np.diff(srcs * g.n + dsts) > 0).all()
            if nxt is not None:
                assert nxt[0] == hi

    def test_spill_directory_removed_on_success(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        g = gen.make_family("er_sparse", 200, seed=4)
        h = sample_hierarchy(g.n, 2, np.random.default_rng(2))
        it = tz.iter_tz_bunch_arc_blocks(g, h)
        next(it)
        assert len(_spill_dirs(tmp_path)) == 1
        for _ in it:
            pass
        assert _spill_dirs(tmp_path) == []

    def test_spill_directory_removed_on_failure(self, monkeypatch, tmp_path):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        g = gen.make_family("er_sparse", 200, seed=4)
        h = sample_hierarchy(g.n, 2, np.random.default_rng(2))

        # Fails inside the cluster pass, after arcs have been spilled.
        calls = {"n": 0}
        real_write = tz._ArcSpill.write

        def write_then_fail(self, *args):
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("spill write failed")
            real_write(self, *args)

        monkeypatch.setattr(tz._ArcSpill, "write", write_then_fail)
        with pytest.raises(RuntimeError, match="spill write failed"):
            list(tz.iter_tz_bunch_arc_blocks(g, h))
        assert _spill_dirs(tmp_path) == []

    def test_spill_directory_removed_when_consumer_stops(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        g = gen.make_family("er_sparse", 200, seed=4)
        h = sample_hierarchy(g.n, 2, np.random.default_rng(2))
        it = tz.iter_tz_bunch_arc_blocks(g, h)
        next(it)
        it.close()
        assert _spill_dirs(tmp_path) == []
