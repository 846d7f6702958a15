"""Tests for the (k, d)-nearest problem (Theorem 10)."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import kernels
from repro.cliquesim import RoundLedger
from repro.graph import Graph, generators as gen
from repro.graph.distances import all_pairs_distances
from repro.toolkit import kd_nearest_bfs, kd_nearest_matrix


class TestEquivalence:
    @pytest.mark.parametrize("k,d", [(1, 1), (3, 2), (5, 4), (10, 8), (60, 16)])
    def test_matrix_equals_bfs(self, small_er, k, d):
        m, _ = kd_nearest_matrix(small_er, k, d)
        b, _ = kd_nearest_bfs(small_er, k, d)
        assert np.array_equal(m, b.dense())

    def test_matrix_equals_bfs_on_families(self, family_graph):
        m, _ = kd_nearest_matrix(family_graph, 6, 5)
        b, _ = kd_nearest_bfs(family_graph, 6, 5)
        assert np.array_equal(m, b.dense())


class TestSemantics:
    def test_row_contains_self(self, small_er):
        out = kd_nearest_bfs(small_er, 4, 3)[0].dense()
        for v in range(small_er.n):
            assert out[v, v] == 0

    def test_distances_correct(self, small_grid):
        out = kd_nearest_bfs(small_grid, 8, 4)[0].dense()
        exact = all_pairs_distances(small_grid)
        finite = np.isfinite(out)
        assert np.array_equal(out[finite], exact[finite])

    def test_row_has_at_most_k_entries(self, small_er):
        out = kd_nearest_bfs(small_er, 7, 10)[0].dense()
        assert (np.isfinite(out).sum(axis=1) <= 7).all()

    def test_entries_within_d(self, small_er):
        out = kd_nearest_bfs(small_er, 50, 2)[0].dense()
        assert (out[np.isfinite(out)] <= 2).all()

    def test_takes_closest_k(self, small_path):
        # On a path, the 3 nearest of vertex 10 within distance 5 are
        # {10, 9, 11} (ties at distance 1 and the self at 0).
        out = kd_nearest_bfs(small_path, 3, 5)[0].dense()
        members = np.flatnonzero(np.isfinite(out[10]))
        assert set(members.tolist()) == {9, 10, 11}

    def test_fewer_than_k_available(self):
        g = Graph(4, [(0, 1)])
        out = kd_nearest_bfs(g, 10, 5)[0].dense()
        assert np.isfinite(out[0]).sum() == 2  # 0 and 1

    def test_invalid_arguments(self, triangle):
        with pytest.raises(ValueError):
            kd_nearest_matrix(triangle, 0, 1)
        with pytest.raises(ValueError):
            kd_nearest_matrix(triangle, 1, 0)

    @pytest.mark.parametrize("k,d", [(0, 3), (3, 0), (3, 0.5)])
    def test_bfs_rejects_what_the_matrix_rejects(self, k, d):
        g = gen.make_family("er_sparse", 30, seed=0)
        with pytest.raises(ValueError) as matrix_error:
            kd_nearest_matrix(g, k, d)
        with pytest.raises(ValueError) as bfs_error:
            kd_nearest_bfs(g, k, d)
        assert str(bfs_error.value) == str(matrix_error.value)

    def test_rows_sorted_by_distance_then_id(self, small_er):
        rows, _ = kd_nearest_bfs(small_er, 9, 4)
        for v in range(small_er.n):
            lo, hi = rows.indptr[v], rows.indptr[v + 1]
            order = np.lexsort((rows.cols[lo:hi], rows.dists[lo:hi]))
            assert (order == np.arange(hi - lo)).all()
            assert rows.cols[lo] == v and rows.dists[lo] == 0

    def test_peak_memory_below_one_dense_block(self):
        """The emulator-sized call at n = 4000 never holds an (n, n)
        float64 block (128 MB)."""
        n = 4000
        g = gen.make_family("er_sparse", n, seed=0)
        k = math.ceil(n ** (2 / 3))
        tracemalloc.start()
        try:
            rows, _ = kd_nearest_bfs(g, k, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rows.lengths() == k).all()
        assert peak < n * n * 8, f"peak {peak / 2**20:.0f} MiB"


class TestDispatchAndRounds:
    def test_rounds_charged_equally(self, small_er):
        la, lb = RoundLedger(), RoundLedger()
        _, ra = kd_nearest_matrix(small_er, 4, 4, ledger=la)
        _, rb = kd_nearest_bfs(small_er, 4, 4, ledger=lb)
        assert ra == rb == la.total == lb.total

    def test_rounds_grow_with_d(self, small_er):
        _, r1 = kd_nearest_bfs(small_er, 4, 2)
        _, r2 = kd_nearest_bfs(small_er, 4, 32)
        assert r2 > r1


# ----------------------------------------------------------------------
# CSR answer == the matrix algorithm == the reference loops
# ----------------------------------------------------------------------


def _disconnected(n, seed):
    """An er_sparse component, a path component and an isolated vertex."""
    a = max(1, n // 2)
    b = max(1, n - a - 1)
    left = gen.make_family("er_sparse", a, seed=seed)
    edges = [tuple(e) for e in left.edges().tolist()]
    edges += [(a + i, a + i + 1) for i in range(b - 1)]
    return Graph(a + b + 1, edges)


def _graph(family, n, seed):
    if family == "disconnected":
        return _disconnected(n, seed)
    return gen.make_family(family, n, seed=seed)


def _k_for(choice, g, d):
    """k = 1, a small k, k >= every d-ball, or k = n."""
    if choice == "one":
        return 1
    if choice == "small":
        return min(g.n, 3)
    if choice == "ball":
        dist = all_pairs_distances(g)
        return max(1, int((dist <= d).sum(axis=1).max()))
    return g.n


def _last_level_ties(dense, exact, k):
    """Rows whose k-th kept vertex ties with an unkept vertex at the
    same distance (the cut falls inside the last level)."""
    ties = 0
    for v in range(dense.shape[0]):
        kept = np.isfinite(dense[v])
        if kept.sum() < k:
            continue
        last = dense[v][kept].max()
        ties += int(((exact[v] == last) & ~kept).any())
    return ties


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["er_sparse", "grid", "path", "disconnected"]),
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=50),
    k_choice=st.sampled_from(["one", "small", "ball", "n"]),
    d=st.sampled_from([1, 2, 1000]),
)
@example(family="grid", n=36, seed=0, k_choice="small", d=1000)
@example(family="path", n=20, seed=0, k_choice="small", d=2)
@example(family="er_sparse", n=40, seed=3, k_choice="small", d=1000)
def test_csr_equals_matrix_and_reference(family, n, seed, k_choice, d):
    """Densified, the CSR answer equals Theorem 10's filtered squaring and
    the per-source reference loop, entry for entry."""
    g = _graph(family, n, seed)
    k = _k_for(k_choice, g, d)
    rows, rounds = kd_nearest_bfs(g, k, d)
    matrix, matrix_rounds = kd_nearest_matrix(g, k, d)
    with kernels.force_backend("reference"):
        reference, reference_rounds = kd_nearest_bfs(g, k, d)
    assert np.array_equal(rows.dense(), matrix)
    assert np.array_equal(rows.dense(), reference.dense())
    assert all(map(np.array_equal, rows, reference))
    assert rounds == matrix_rounds == reference_rounds


@pytest.mark.parametrize(
    "family,n,k,d", [("grid", 36, 2, 3), ("path", 20, 2, 5), ("er_sparse", 60, 4, 1000)]
)
def test_ties_on_the_last_level_break_by_id(family, n, k, d):
    """The cut inside the k-th vertex's level keeps the smallest ids, as
    the matrix algorithm's filter does; the cases really cut a level."""
    g = gen.make_family(family, n, seed=0)
    rows, _ = kd_nearest_bfs(g, k, d)
    matrix, _ = kd_nearest_matrix(g, k, d)
    assert _last_level_ties(matrix, all_pairs_distances(g), k) > 0
    assert np.array_equal(rows.dense(), matrix)
