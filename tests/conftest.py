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


#: ``(id, spec fields, message)``: environment values that spec
#: admission refuses with ``message``, its section named first.  Each
#: builds its section the way the run would, so none reaches a job.
BAD_ENVIRONMENT_VALUES = [
    ("mean-negative", {"delay": {"kind": "exponential", "mean": -1.0}},
     "delay: mean delay must be >= 0, got -1.0"),
    ("mean-string", {"delay": {"kind": "exponential", "mean": "slow"}},
     "delay: delay model 'exponential': '<' not supported"),
    ("mean-nan", {"delay": {"kind": "exponential", "mean": float("nan")}},
     "delay: delay model 'exponential' parameter 'mean' must hold finite "
     "numbers, not NaN or infinities"),
    ("bandwidth-infinite", {"network": {"bandwidth": float("inf")}},
     "network: network model 'uniform' parameter 'bandwidth' must hold "
     "finite numbers"),
    ("trace-nan",
     {"delay": {"kind": "trace-replay", "delays": [[0.0, float("nan")]]}},
     "delay: delay model 'trace-replay' parameter 'delays' must hold "
     "finite numbers"),
    ("dropout-probability",
     {"failure": {"kind": "transient-dropouts", "probability": 2.0}},
     "failure: probability must be in [0, 1), got 2.0"),
    ("bandwidth-negative", {"network": {"bandwidth": -5}},
     "network: bandwidth must be > 0, got -5"),
    ("speed-factor-negative",
     {"compute": {"kind": "heterogeneous", "speed_factors": {"0": -1}}},
     "compute: worker 0 has non-positive speed factor -1.0"),
    ("speed-factors-list",
     {"compute": {"kind": "heterogeneous", "speed_factors": [1, 2]}},
     "compute: heterogeneous compute needs speed_factors= as a "
     "{worker: factor} mapping, got [1, 2]"),
    ("mixture-empty",
     {"delay": {"kind": "mixture", "models": [], "weights": []}},
     "delay: models and weights must be equal-length and non-empty"),
    ("trace-ragged",
     {"delay": {"kind": "trace-replay", "delays": [[1, 2], [3]]}},
     "delay: delay model 'trace-replay': "),
    ("trace-missing",
     {"delay": {"kind": "trace-replay", "path": "no/such/trace.json"}},
     "delay: trace file not found: no/such/trace.json"),
    ("trace-not-regular",
     {"delay": {"kind": "trace-replay", "path": "."}},
     "delay: trace file . is not a regular file"),
    ("mixture-model-0",
     {"delay": {"kind": "mixture", "weights": [1.0],
                "models": [{"kind": "exponential", "mean": -1.0}]}},
     "delay: models[0]: mean delay must be >= 0, got -1.0"),
]
