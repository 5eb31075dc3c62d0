"""Unit tests for the conflict-graph value type and induced subgraphs."""

import numpy as np
import pytest

from repro.graphs import Graph, all_maximum_independent_sets, independence_number

from conftest import graph_from_edges as graph


class TestConstruction:
    def test_empty(self):
        g = graph(0)
        assert g.adjacency.shape == (0, 0)
        assert g.number_of_edges() == 0

    def test_vertices_only(self):
        g = graph(3)
        assert g.adjacency.shape == (3, 3)
        assert g.edges == frozenset()
        assert g.number_of_edges() == 0

    def test_self_loop_rejected(self):
        adjacency = np.zeros((4, 4), dtype=bool)
        adjacency[3, 3] = True
        with pytest.raises(ValueError, match="self-loop"):
            Graph(adjacency)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            Graph(np.zeros((2, 3), dtype=bool))

    def test_adjacency_is_a_frozen_copy(self):
        adjacency = np.zeros((2, 2), dtype=bool)
        g = Graph(adjacency)
        adjacency[0, 1] = adjacency[1, 0] = True
        assert g.number_of_edges() == 0
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = True


class TestQueries:
    def test_has_edge_symmetry(self):
        g = graph(3, [(0, 1)])
        assert g.adjacency[0, 1] and g.adjacency[1, 0]
        assert not g.adjacency[0, 2]
        assert g.edges == frozenset({frozenset({0, 1})})
        one_way = np.zeros((2, 2), dtype=bool)
        one_way[0, 1] = True
        with pytest.raises(ValueError, match="symmetric"):
            Graph(one_way)

    def test_neighbors(self):
        g = graph(3, [(0, 1), (0, 2)])
        assert np.flatnonzero(g.adjacency[0]).tolist() == [1, 2]
        assert np.flatnonzero(g.adjacency[1]).tolist() == [0]

    def test_degree(self):
        g = graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.adjacency.sum(axis=1).tolist() == [3, 1, 1, 1]

    def test_equality(self):
        a = graph(4, [(0, 1), (2, 3)])
        b = graph(4, [(2, 3), (1, 0)])
        assert a == b
        assert (a != b) is False
        assert a != graph(4, [(0, 1), (2, 3), (0, 2)])
        assert a != graph(5, [(0, 1), (2, 3)])

    def test_equality_other_type(self):
        assert graph(0) != 42


class TestDerived:
    """``G[W']`` is the solver's ``available`` argument."""

    def test_subgraph_keeps_internal_edges(self):
        g = graph(4, [(0, 1), (1, 2), (2, 3)])
        assert independence_number(g, [1, 2]) == 1
        assert all_maximum_independent_sets(g, [1, 2]) == [
            frozenset({1}), frozenset({2}),
        ]
        assert independence_number(g, [0, 2, 3]) == 2

    def test_subgraph_missing_vertex_raises(self):
        g = graph(2)
        with pytest.raises(ValueError, match="0..1"):
            independence_number(g, [0, 9])
        with pytest.raises(ValueError, match="0..1"):
            all_maximum_independent_sets(g, [-1])

    def test_independent_set_unknown_vertex(self):
        with pytest.raises(ValueError, match="0..0"):
            all_maximum_independent_sets(graph(1), {42})

    def test_subgraph_empty(self):
        g = graph(2, [(0, 1)])
        assert independence_number(g, []) == 0
        assert all_maximum_independent_sets(g, []) == [frozenset()]
