"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CyclicRepetition, FractionalRepetition, HybridRepetition
from repro.engine import FlatBackend, RoundEngine, SyncUpdate
from repro.graphs import Graph


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


def sync_engine(
    model, streams, strategy, cluster, optimizer, eval_data=None, **rule_kw
):
    """The paper's loop: sync updates over a flat cluster simulator."""
    return RoundEngine(
        model, streams, strategy, FlatBackend(cluster),
        SyncUpdate(optimizer, **rule_kw), eval_data=eval_data,
    )


def graph_from_edges(n: int, edges=()) -> Graph:
    """The graph on ``0..n-1`` with the given undirected edges."""
    adjacency = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adjacency[u, v] = adjacency[v, u] = True
    return Graph(adjacency)


def all_fr_params(max_n: int = 12):
    """Every valid (n, c) for FR up to max_n."""
    for n in range(1, max_n + 1):
        for c in range(1, n + 1):
            if n % c == 0:
                yield n, c


def all_cr_params(max_n: int = 12):
    """Every valid (n, c) for CR up to max_n."""
    for n in range(1, max_n + 1):
        for c in range(1, n + 1):
            yield n, c


def all_hr_params(ns=(4, 6, 8, 10, 12)):
    """Every constructible (n, c1, c2, g) for HR over the given n."""
    for n in ns:
        for g in (x for x in range(1, n + 1) if n % x == 0):
            n0 = n // g
            for c in range(1, n + 1):
                for c1 in range(0, c + 1):
                    c2 = c - c1
                    try:
                        HybridRepetition(n, c1, c2, g)
                    except Exception:
                        continue
                    yield n, c1, c2, g


def make_placement(kind: str, n: int, c: int, g: int | None = None):
    """Factory used by parametrised cross-scheme tests."""
    if kind == "fr":
        return FractionalRepetition(n, c)
    if kind == "cr":
        return CyclicRepetition(n, c)
    if kind == "hr":
        assert g is not None
        return HybridRepetition(n, c - 1, 1, g)
    raise ValueError(kind)
