"""Tests for conflict-graph construction (Sec. V-A, Theorems 1 and 4)."""

import networkx as nx
import numpy as np
import pytest

from repro.core import (
    CyclicRepetition,
    FractionalRepetition,
    HybridRepetition,
    circulant_adjacency,
    conflict_graph,
    edge_subset,
)
from repro.graphs import Graph, circular_distance

from conftest import all_cr_params, all_fr_params, all_hr_params


def cr_graph(n, c):
    """Theorem 1's closed form as a graph."""
    return Graph(circulant_adjacency(n, c))


def fr_graph(n, c):
    return conflict_graph(FractionalRepetition(n, c))


class TestGroundTruth:
    def test_fig4a_fr_conflict_graph(self):
        """Fig. 4(a): FR n=4, c=2 → two disjoint edges (2-cliques)."""
        g = conflict_graph(FractionalRepetition(4, 2))
        assert g.edges == frozenset({
            frozenset({0, 1}), frozenset({2, 3}),
        })

    def test_fig4b_cr_conflict_graph(self):
        """Fig. 4(b): CR n=4, c=2 → the 4-cycle C_4^1."""
        g = conflict_graph(CyclicRepetition(4, 2))
        assert g.edges == frozenset({
            frozenset({0, 1}), frozenset({1, 2}),
            frozenset({2, 3}), frozenset({3, 0}),
        })

    def test_c_one_no_conflicts(self):
        for pl in (CyclicRepetition(6, 1), FractionalRepetition(6, 1)):
            assert conflict_graph(pl).number_of_edges() == 0

    def test_c_n_complete(self):
        g = conflict_graph(CyclicRepetition(5, 5))
        assert g.number_of_edges() == 10


class TestTheorem1:
    """The CR conflict graph is the circulant C_n^{1..c-1}."""

    @pytest.mark.parametrize("n,c", [(n, c) for n, c in all_cr_params(14) if c >= 2])
    def test_cr_is_circulant(self, n, c):
        gt = conflict_graph(CyclicRepetition(n, c)).adjacency
        for x in range(n):
            for y in range(n):
                assert gt[x, y] == (0 < circular_distance(x, y, n) < c)

    @pytest.mark.parametrize("n,c", list(all_cr_params(12)))
    def test_fast_construction_matches_ground_truth(self, n, c):
        assert cr_graph(n, c) == conflict_graph(CyclicRepetition(n, c))


class TestFastConstructions:
    @pytest.mark.parametrize("n,c", list(all_fr_params(12)))
    def test_fr_fast_matches_ground_truth(self, n, c):
        # Fig. 4(a)'s clique union: conflict iff same group.
        group = np.arange(n) // c
        same = (group[:, None] == group[None, :]) & ~np.eye(n, dtype=bool)
        assert Graph(same) == fr_graph(n, c)

    @pytest.mark.parametrize("n,c1,c2,g", list(all_hr_params(ns=(4, 6, 8, 12))))
    def test_hr_fast_matches_ground_truth(self, n, c1, c2, g):
        # Alg. 4's O(1) predicate, tabulated, is the ground truth.
        placement = HybridRepetition(n, c1, c2, g)
        adjacency = conflict_graph(placement).adjacency
        for a in range(n):
            for b in range(n):
                if a != b:
                    assert placement.conflicts_fast(a, b) == adjacency[a, b]

    def test_fr_is_clique_union(self):
        g = nx.from_numpy_array(fr_graph(9, 3).adjacency)
        comps = list(nx.connected_components(g))
        assert len(comps) == 3
        for comp in comps:
            sub = g.subgraph(comp)
            assert sub.number_of_edges() == len(comp) * (len(comp) - 1) // 2


class TestTheorem4:
    """E_FR(n,c) ⊂ E_CR(n,c) ⊂ … ⊂ E_CR(n,n)."""

    @pytest.mark.parametrize("n", [4, 6, 8, 12])
    def test_fr_subset_cr(self, n):
        for c in range(2, n + 1):
            if n % c == 0:
                assert edge_subset(fr_graph(n, c), cr_graph(n, c))

    @pytest.mark.parametrize("n", [4, 5, 7, 8, 12])
    def test_cr_chain_is_nested(self, n):
        prev = cr_graph(n, 1)
        for c in range(2, n + 1):
            cur = cr_graph(n, c)
            assert edge_subset(prev, cur), f"c={c}"
            prev = cur

    def test_fr_strictly_smaller_when_c_between_2_and_n(self):
        """The inclusion is strict for 1 < c < n (paper uses ⊂)."""
        assert fr_graph(8, 2).edges < cr_graph(8, 2).edges

    def test_chain_top_is_complete(self):
        n = 6
        assert cr_graph(n, n).number_of_edges() == n * (n - 1) // 2


class TestEdgeSubsetHelper:
    def test_reflexive(self):
        g = cr_graph(6, 3)
        assert edge_subset(g, g)

    def test_not_subset(self):
        assert not edge_subset(cr_graph(6, 3), cr_graph(6, 2))
