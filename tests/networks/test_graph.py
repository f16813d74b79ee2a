"""Unit tests for repro.networks.graph.Graph."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import EdgeError, GraphError, NodeNotFoundError
from repro.networks import Graph


class TestConstruction:
    def test_from_edges_basic(self, triangle):
        assert triangle.n_nodes == 3
        assert triangle.n_edges == 3
        assert not triangle.directed

    def test_from_edges_weighted(self):
        g = Graph.from_edges(2, [(0, 1, 2.5)])
        assert g.edge_weight(0, 1) == 2.5
        assert g.edge_weight(1, 0) == 2.5  # undirected mirror

    def test_duplicate_edges_accumulate(self):
        g = Graph.from_edges(2, [(0, 1), (0, 1)])
        assert g.edge_weight(0, 1) == 2.0
        assert g.n_edges == 1

    def test_directed(self, directed_cycle):
        assert directed_cycle.directed
        assert directed_cycle.n_edges == 4
        assert directed_cycle.has_edge(0, 1)
        assert not directed_cycle.has_edge(1, 0)

    def test_empty(self):
        g = Graph.empty(5)
        assert g.n_nodes == 5 and g.n_edges == 0

    def test_zero_nodes(self):
        g = Graph.empty(0)
        assert g.n_nodes == 0 and g.n_edges == 0

    def test_self_loop_counted_once(self):
        g = Graph.from_edges(2, [(0, 0), (0, 1)])
        assert g.n_edges == 2

    def test_rejects_nonsquare(self):
        with pytest.raises(GraphError, match="square"):
            Graph(np.ones((2, 3)))

    def test_rejects_negative_weight(self):
        with pytest.raises(EdgeError):
            Graph.from_edges(2, [(0, 1, -1.0)])
        with pytest.raises(EdgeError):
            Graph(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_asymmetric_undirected(self):
        with pytest.raises(GraphError, match="symmetric"):
            Graph(np.array([[0.0, 1.0], [0.0, 0.0]]), directed=False)

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(EdgeError, match="out of range"):
            Graph.from_edges(2, [(0, 5)])

    def test_rejects_bad_edge_arity(self):
        with pytest.raises(EdgeError):
            Graph.from_edges(3, [(0, 1, 1.0, 9)])

    def test_rejects_negative_node_count(self):
        with pytest.raises(GraphError):
            Graph.from_edges(-1, [])


class TestNames:
    def test_name_round_trip(self):
        g = Graph.from_edges(2, [(0, 1)], node_names=["x", "y"])
        assert g.index_of("y") == 1
        assert g.name_of(0) == "x"
        assert g.node_names == ["x", "y"]

    def test_anonymous_name_of_is_index(self, triangle):
        assert triangle.name_of(2) == 2
        assert triangle.node_names is None

    def test_unknown_name_raises(self):
        g = Graph.from_edges(2, [(0, 1)], node_names=["x", "y"])
        with pytest.raises(NodeNotFoundError):
            g.index_of("z")

    def test_index_of_without_names_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.index_of("x")

    def test_duplicate_names_rejected(self):
        with pytest.raises(GraphError, match="unique"):
            Graph.from_edges(2, [(0, 1)], node_names=["x", "x"])

    def test_wrong_name_count_rejected(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 1)], node_names=["x"])

    def test_contains(self):
        g = Graph.from_edges(2, [(0, 1)], node_names=["x", "y"])
        assert 1 in g and 2 not in g
        assert "x" in g and "z" not in g


class TestQueries:
    def test_neighbors_undirected(self, path_graph):
        assert sorted(path_graph.neighbors(1)) == [0, 2]
        assert sorted(path_graph.neighbors(0)) == [1]

    def test_neighbors_directed(self, directed_cycle):
        assert list(directed_cycle.neighbors(0)) == [1]

    def test_degree_vector(self, path_graph):
        assert np.allclose(path_graph.degree(), [1, 2, 2, 2, 1])

    def test_degree_weighted(self):
        g = Graph.from_edges(2, [(0, 1, 3.0)])
        assert g.degree(0, weighted=True) == 3.0
        assert g.degree(0) == 1.0

    def test_out_of_range_raises(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.neighbors(7)
        with pytest.raises(NodeNotFoundError):
            triangle.degree(-1)

    def test_edges_iteration_undirected_once(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        assert all(u <= v for u, v, _ in edges)

    def test_edges_iteration_directed(self, directed_cycle):
        assert len(list(directed_cycle.edges())) == 4

    def test_len(self, triangle):
        assert len(triangle) == 3


class TestDerivedGraphs:
    def test_subgraph(self, path_graph):
        sub = path_graph.subgraph([1, 2, 3])
        assert sub.n_nodes == 3
        assert sub.n_edges == 2
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2)

    def test_subgraph_preserves_names(self):
        g = Graph.from_edges(3, [(0, 1)], node_names=["a", "b", "c"])
        sub = g.subgraph([2, 0])
        assert sub.node_names == ["c", "a"]

    def test_subgraph_rejects_duplicates(self, triangle):
        with pytest.raises(GraphError):
            triangle.subgraph([0, 0])

    def test_subgraph_rejects_out_of_range(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.subgraph([0, 9])

    def test_to_undirected(self, directed_cycle):
        und = directed_cycle.to_undirected()
        assert not und.directed
        assert und.has_edge(1, 0)

    def test_to_undirected_noop(self, triangle):
        assert triangle.to_undirected() is triangle

    def test_reverse(self, directed_cycle):
        rev = directed_cycle.reverse()
        assert rev.has_edge(1, 0)
        assert not rev.has_edge(0, 1)

    def test_without_self_loops(self):
        g = Graph.from_edges(2, [(0, 0), (0, 1)])
        clean = g.without_self_loops()
        assert not clean.has_edge(0, 0)
        assert clean.has_edge(0, 1)


class TestEquality:
    def test_equal_graphs(self):
        a = Graph.from_edges(3, [(0, 1), (1, 2)])
        b = Graph.from_edges(3, [(1, 2), (0, 1)])
        assert a == b

    def test_unequal_weights(self):
        a = Graph.from_edges(2, [(0, 1, 1.0)])
        b = Graph.from_edges(2, [(0, 1, 2.0)])
        assert a != b

    def test_repr(self, triangle):
        assert "n_nodes=3" in repr(triangle)
