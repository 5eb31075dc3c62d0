"""Heterogeneous clusters: per-worker speed factors.

The paper's experiments assume homogeneous hardware with injected
delays, but its discussion (and cited work on heterogeneity-aware GC,
[21]) motivates clusters where some machines are simply slower.  This
module provides a per-worker compute model: pass it as a
simulator's ``compute`` (or a spec's ``compute: heterogeneous``
section) and every backend charges each worker its own step time.
"""

from __future__ import annotations

from typing import Dict, Mapping

from ..exceptions import ConfigurationError
from .cluster import ComputeModel


class HeterogeneousComputeModel:
    """Per-worker compute cost: base model scaled by a speed factor.

    A factor of 2.0 means the worker takes twice as long per step.
    Exposes ``step_time_for(worker, partitions)``.
    """

    def __init__(self, base: ComputeModel, speed_factors: Mapping[int, float]):
        for worker, factor in speed_factors.items():
            if factor <= 0:
                raise ConfigurationError(
                    f"worker {worker} has non-positive speed factor {factor}"
                )
        self._base = base
        self._factors = dict(speed_factors)

    @property
    def speed_factors(self) -> Dict[int, float]:
        return dict(self._factors)

    def factor(self, worker: int) -> float:
        """Speed factor of ``worker`` (1.0 when unlisted)."""
        return self._factors.get(worker, 1.0)

    def step_time_for(self, worker: int, partitions: int) -> float:
        """Per-step compute seconds for ``worker``."""
        return self._base.step_time(partitions) * self.factor(worker)
