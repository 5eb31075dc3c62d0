"""Tests for the exact maximum-independent-set solver."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import Graph, all_maximum_independent_sets, independence_number

from conftest import graph_from_edges as graph


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return Graph(upper | upper.T)


def is_independent(g: Graph, vertices) -> bool:
    members = sorted(vertices)
    return not g.adjacency[np.ix_(members, members)].any()


def complement(g: Graph) -> nx.Graph:
    n = g.adjacency.shape[0]
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(tuple(e) for e in g.edges)
    return nx.complement(nxg)


def alpha(g: Graph) -> int:
    return independence_number(g, range(g.adjacency.shape[0]))


def optima(g: Graph):
    return all_maximum_independent_sets(g, range(g.adjacency.shape[0]))


class TestExact:
    def test_empty(self):
        assert optima(graph(0)) == [frozenset()]

    def test_single_vertex(self):
        assert optima(graph(1)) == [frozenset({0})]

    def test_path_graph(self):
        g = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert optima(g) == [frozenset({0, 2, 4})]

    def test_cycle_graph_alpha(self):
        for n in range(3, 12):
            g = graph(n, [(i, (i + 1) % n) for i in range(n)])
            assert alpha(g) == n // 2

    def test_star_graph(self):
        g = graph(6, [(0, i) for i in range(1, 6)])
        assert optima(g) == [frozenset(range(1, 6))]

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_networkx_complement_clique(self, seed):
        """α(G) equals the max clique of the complement — cross-check."""
        g = random_graph(11, 0.45, seed=seed)
        expected = max(
            (len(c) for c in nx.find_cliques(complement(g))), default=0
        )
        assert alpha(g) == expected

    def test_result_is_independent(self):
        g = random_graph(14, 0.35, seed=3)
        assert all(is_independent(g, s) for s in optima(g))


class TestEnumeration:
    def test_all_optima_on_square(self):
        # 4-cycle has exactly two maximum independent sets.
        g = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert optima(g) == [frozenset({0, 2}), frozenset({1, 3})]

    def test_all_optima_sizes_match_alpha(self):
        g = random_graph(10, 0.4, seed=7)
        found = optima(g)
        assert found
        assert all(len(s) == alpha(g) for s in found)
        assert all(is_independent(g, s) for s in found)

    def test_all_optima_distinct(self):
        g = random_graph(9, 0.3, seed=8)
        found = optima(g)
        assert len(found) == len(set(found))

    def test_edgeless_graph_single_optimum(self):
        assert optima(graph(4)) == [frozenset(range(4))]

    def test_canonical_order_branches_in_repr_order(self):
        # Worker 10 sorts before worker 2 in repr order, so it is taken
        # first: {0, 10} precedes {0, 2}.
        g = graph(11, [(2, 10)])
        found = all_maximum_independent_sets(g, [0, 2, 10])
        assert found == [frozenset({0, 10}), frozenset({0, 2})]


def canonical_key(n):
    """Sort key of an optimum in the canonical order: depth first over
    the vertices in repr order, taking a vertex before skipping it."""
    order = sorted(range(n), key=repr)
    return lambda s: tuple(v not in s for v in order)


@st.composite
def graphs_and_masks(draw):
    """A random graph on ``n <= 14`` vertices and an available subset."""
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    available = draw(st.sets(st.sampled_from(range(n))))
    edges = [pair for pair, bit in zip(pairs, bits) if bit]
    return graph(n, edges), sorted(available)


class TestAgainstNetworkx:
    """α is the complement's clique number and the optima are its
    maximum cliques, listed once each in canonical order."""

    @settings(max_examples=150, deadline=None)
    @given(graphs_and_masks())
    def test_alpha_and_optima_are_the_complements_maximum_cliques(self, case):
        g, available = case
        cliques = [
            frozenset(c)
            for c in nx.find_cliques(complement(g).subgraph(available))
        ]
        size = max((len(c) for c in cliques), default=0)
        expected = {c for c in cliques if len(c) == size} or {frozenset()}

        found = all_maximum_independent_sets(g, available)
        assert independence_number(g, available) == size
        assert len(found) == len(set(found))
        assert set(found) == expected
        assert found == sorted(found, key=canonical_key(g.adjacency.shape[0]))
