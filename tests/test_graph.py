"""Unit tests for repro.graph.graph."""

import numpy as np
import pytest

from repro.graph import Graph, WeightedGraph


class TestGraphConstruction:
    def test_empty_graph(self):
        g = Graph.empty(5)
        assert g.n == 5
        assert g.m == 0
        assert g.degrees().tolist() == [0] * 5

    def test_zero_vertices(self):
        g = Graph(0, [])
        assert g.n == 0
        assert g.m == 0

    def test_basic_edges(self, triangle):
        assert triangle.n == 3
        assert triangle.m == 3
        assert triangle.degree(0) == 2

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self loop"):
            Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            Graph(3, [(0, 3)])
        with pytest.raises(IndexError):
            Graph(3, [(-1, 0)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1, [])

    def test_malformed_edges_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1, 2)])

    def test_from_adjacency(self):
        g = Graph.from_adjacency({0: [1, 2], 1: [2]})
        assert g.n == 3
        assert g.m == 3

    def test_edges_canonical_order(self):
        g = Graph(4, [(3, 1), (2, 0)])
        e = g.edges()
        assert (e[:, 0] < e[:, 1]).all()


class TestGraphQueries:
    def test_neighbors_sorted(self):
        g = Graph(5, [(0, 4), (0, 2), (0, 1)])
        assert g.neighbors(0).tolist() == [1, 2, 4]

    def test_degrees_match_neighbors(self, small_er):
        degs = small_er.degrees()
        for v in range(small_er.n):
            assert degs[v] == len(small_er.neighbors(v))
            assert small_er.degree(v) == degs[v]

    def test_has_edge(self, triangle):
        assert triangle.has_edge(0, 1)
        assert triangle.has_edge(1, 0)
        assert not triangle.has_edge(0, 0)

    def test_has_edge_absent(self):
        g = Graph(4, [(0, 1)])
        assert not g.has_edge(2, 3)
        assert not g.has_edge(0, 2)

    def test_adjacency_matrix(self, triangle):
        a = triangle.adjacency_matrix()
        assert a[0, 0] == 0
        assert a[0, 1] == 1
        assert a.shape == (3, 3)

    def test_adjacency_matrix_no_edge_is_inf(self):
        g = Graph(3, [(0, 1)])
        a = g.adjacency_matrix()
        assert np.isinf(a[0, 2])

    def test_len_and_iter(self, triangle):
        assert len(triangle) == 3
        assert list(triangle) == [0, 1, 2]

    def test_repr(self, triangle):
        assert "n=3" in repr(triangle)

    def test_sum_of_degrees_is_twice_edges(self, small_er):
        assert small_er.degrees().sum() == 2 * small_er.m


class TestSubgraphMaxDegree:
    def test_keeps_low_degree_incident_edges(self):
        # Star with centre 0: all edges incident to a degree-1 leaf.
        g = Graph(5, [(0, i) for i in range(1, 5)])
        sub = g.subgraph_with_max_degree(1)
        assert sub.m == 4

    def test_drops_edges_between_high_degree(self):
        # Two hubs connected to each other and to leaves.
        edges = [(0, 1)] + [(0, i) for i in range(2, 6)] + [(1, i) for i in range(6, 10)]
        g = Graph(10, edges)
        sub = g.subgraph_with_max_degree(3)
        assert not sub.has_edge(0, 1)
        assert sub.has_edge(0, 2)

    def test_empty(self):
        assert Graph.empty(4).subgraph_with_max_degree(2).m == 0


class TestToWeighted:
    def test_unit_weights(self, triangle):
        w = triangle.to_weighted()
        assert w.m == 3
        assert w.weight(0, 1) == 1.0


class TestWeightedGraph:
    def test_add_and_query(self):
        w = WeightedGraph(4)
        w.add_edge(0, 1, 2.5)
        assert w.weight(0, 1) == 2.5
        assert w.weight(1, 0) == 2.5
        assert np.isinf(w.weight(0, 2))

    def test_min_combining(self):
        w = WeightedGraph(3)
        w.add_edge(0, 1, 5.0)
        w.add_edge(0, 1, 3.0)
        w.add_edge(0, 1, 4.0)
        assert w.weight(0, 1) == 3.0
        assert w.m == 1

    def test_self_loop_ignored(self):
        w = WeightedGraph(3)
        w.add_edge(1, 1, 1.0)
        assert w.m == 0

    def test_negative_weight_rejected(self):
        w = WeightedGraph(3)
        with pytest.raises(ValueError):
            w.add_edge(0, 1, -1.0)

    def test_out_of_range_rejected(self):
        w = WeightedGraph(3)
        with pytest.raises(IndexError):
            w.add_edge(0, 5, 1.0)

    def test_add_edges_from(self):
        w = WeightedGraph(4)
        w.add_edges_from([(0, 1, 1.0), (1, 2, 2.0)])
        assert w.m == 2

    def test_edges_iteration_canonical(self):
        w = WeightedGraph(4)
        w.add_edge(3, 0, 1.0)
        edges = list(w.edges())
        assert edges == [(0, 3, 1.0)]

    def test_edge_arrays(self):
        w = WeightedGraph(4)
        w.add_edge(0, 1, 1.5)
        w.add_edge(2, 3, 2.5)
        us, vs, ws = w.edge_arrays()
        assert us.tolist() == [0, 2]
        assert vs.tolist() == [1, 3]
        assert ws.tolist() == [1.5, 2.5]

    def test_edge_arrays_cache_survives_a_no_op_bulk_insert(self):
        w = WeightedGraph(5)
        w.add_edges_arrays([0, 1, 3], [1, 2, 4], [1.5, 2.5, 3.0])
        arrays = w.edge_arrays()
        # Re-inserting the same edges (and a heavier duplicate, and a
        # self loop) adds nothing and lowers nothing.
        assert w.add_edges_arrays(*arrays) == 0
        assert w.add_edges_arrays([1, 2], [0, 2], [9.0, 1.0]) == 0
        assert w.edge_arrays() is arrays
        # Lowering one weight rebuilds the arrays.
        assert w.add_edges_arrays([2], [1], [0.5]) == 0
        us, vs, ws = w.edge_arrays()
        assert us.tolist() == [0, 1, 3]
        assert vs.tolist() == [1, 2, 4]
        assert ws.tolist() == [1.5, 0.5, 3.0]
        # Adding an edge rebuilds them too.
        assert w.add_edges_arrays([4], [0], [7.0]) == 1
        assert w.edge_arrays()[0].tolist() == [0, 0, 1, 3]

    def test_union_update_takes_min(self):
        a = WeightedGraph(3)
        a.add_edge(0, 1, 5.0)
        b = WeightedGraph(3)
        b.add_edge(0, 1, 2.0)
        b.add_edge(1, 2, 7.0)
        a.union_update(b)
        assert a.weight(0, 1) == 2.0
        assert a.weight(1, 2) == 7.0

    def test_union_classmethod_does_not_mutate(self):
        a = WeightedGraph(3)
        a.add_edge(0, 1, 5.0)
        b = WeightedGraph(3)
        b.add_edge(0, 1, 2.0)
        c = WeightedGraph.union(a, b)
        assert c.weight(0, 1) == 2.0
        assert a.weight(0, 1) == 5.0

    def test_union_size_mismatch(self):
        with pytest.raises(ValueError):
            WeightedGraph(3).union_update(WeightedGraph(4))

    def test_copy_independent(self):
        a = WeightedGraph(3)
        a.add_edge(0, 1, 1.0)
        b = a.copy()
        b.add_edge(1, 2, 1.0)
        assert a.m == 1
        assert b.m == 2

    def test_degree(self):
        w = WeightedGraph(4)
        w.add_edge(0, 1, 1.0)
        w.add_edge(0, 2, 1.0)
        assert w.degree(0) == 2
        assert w.degree(3) == 0
