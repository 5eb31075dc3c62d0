"""Tests for circular distance and Theorem 1's circulant adjacency."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.batch import circulant_adjacency
from repro.graphs import circular_distance


class TestCircularDistance:
    def test_adjacent(self):
        assert circular_distance(0, 1, 8) == 1

    def test_wraparound(self):
        assert circular_distance(0, 7, 8) == 1

    def test_opposite(self):
        assert circular_distance(0, 4, 8) == 4

    def test_same(self):
        assert circular_distance(3, 3, 8) == 0

    def test_symmetry_examples(self):
        for n in (3, 5, 8, 13):
            for x in range(n):
                for y in range(n):
                    assert circular_distance(x, y, n) == circular_distance(y, x, n)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            circular_distance(0, 1, 0)

    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=-100, max_value=100),
        st.integers(min_value=-100, max_value=100),
    )
    def test_bounded_by_half_n(self, n, x, y):
        d = circular_distance(x, y, n)
        assert 0 <= d <= n // 2

    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=-3, max_value=3),
    )
    def test_rotation_invariance(self, n, x, y, shift):
        assert circular_distance(x, y, n) == circular_distance(
            x + shift * n + 1, y + shift * n + 1, n
        )


class TestCirculantGraph:
    """``circulant_adjacency(n, c)`` is ``C_n^{1..c-1}``."""

    def test_cycle(self):
        adjacency = circulant_adjacency(5, 2)
        assert np.count_nonzero(adjacency) // 2 == 5
        assert (adjacency.sum(axis=1) == 2).all()

    def test_complete_when_all_offsets(self):
        n = 6
        adjacency = circulant_adjacency(n, n // 2 + 1)
        assert (adjacency == ~np.eye(n, dtype=bool)).all()

    @pytest.mark.parametrize("n,offsets", [
        (4, [1]), (6, [1, 2]), (8, [1, 2, 3]), (9, [1]), (10, [1, 2, 3]),
    ])
    def test_matches_networkx(self, n, offsets):
        theirs = nx.to_numpy_array(
            nx.circulant_graph(n, offsets), nodelist=range(n), dtype=bool
        )
        assert (circulant_adjacency(n, len(offsets) + 1) == theirs).all()
