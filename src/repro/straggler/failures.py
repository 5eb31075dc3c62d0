"""Worker failures: crashes and transient dropouts.

A straggler that never answers is a *failure* — and arbitrary-ignorance
decoding is exactly what keeps training alive through them (IS-GC's
``w`` can simply stay below the number of live workers).  These models
decide per (worker, step) whether an upload happens at all; the
cluster simulator drops the arrivals of dead workers.
"""

from __future__ import annotations

import abc
from typing import FrozenSet, Iterable, List

import numpy as np

from ..exceptions import ConfigurationError


class FailureModel(abc.ABC):
    """Decides whether a worker's upload materialises this step."""

    @abc.abstractmethod
    def is_alive(self, worker: int, step: int, rng: np.random.Generator) -> bool:
        """Whether ``worker``'s upload happens at ``step``."""

    def alive_round(
        self, num_workers: int, step: int, rng: np.random.Generator
    ) -> List[int]:
        """The workers in ``range(num_workers)`` alive at ``step``,
        ascending.

        Contract: consumes ``rng`` exactly as :meth:`is_alive` called
        for each worker in order would.  The default is that loop;
        overrides answer it in one call.
        """
        return [
            worker
            for worker in range(num_workers)
            if self.is_alive(worker, step, rng)
        ]

    def reset(self) -> None:
        """Forget any internal state so a replay reproduces the run.

        The built-in models are stateless given the caller's RNG, so
        the default is a no-op; stateful subclasses must override.
        Called by :meth:`ClusterSimulator.reset`.
        """


class NoFailures(FailureModel):
    """Everything always arrives (the default)."""

    def is_alive(self, worker: int, step: int, rng: np.random.Generator) -> bool:
        """Always ``True``."""
        return True

    def alive_round(
        self, num_workers: int, step: int, rng: np.random.Generator
    ) -> List[int]:
        """Every worker."""
        return list(range(num_workers))


class PermanentCrashes(FailureModel):
    """Listed workers crash at a given step and never return."""

    def __init__(self, crashed_workers: Iterable[int], at_step: int = 0):
        if at_step < 0:
            raise ConfigurationError(f"at_step must be >= 0, got {at_step}")
        self._crashed = frozenset(crashed_workers)
        self._at_step = at_step

    @property
    def crashed_workers(self) -> FrozenSet[int]:
        return self._crashed

    @property
    def at_step(self) -> int:
        return self._at_step

    def is_alive(self, worker: int, step: int, rng: np.random.Generator) -> bool:
        """Alive unless crashed and the crash step has passed."""
        return worker not in self._crashed or step < self._at_step


class TransientDropouts(FailureModel):
    """Each upload is independently lost with probability ``p``
    (packet loss, preemption, OOM-kill-and-restart)."""

    def __init__(self, probability: float):
        if not 0.0 <= probability < 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1), got {probability}"
            )
        self._p = probability

    @property
    def probability(self) -> float:
        return self._p

    def is_alive(self, worker: int, step: int, rng: np.random.Generator) -> bool:
        """Independently drop this upload with probability ``p``."""
        return rng.random() >= self._p


class CompositeFailures(FailureModel):
    """Alive only if alive under *every* constituent model.

    Keeps the default :meth:`FailureModel.alive_round` loop: the
    ``all()`` short-circuit skips later models' draws for a worker an
    earlier model already killed, and that skip is part of the stream.
    """

    def __init__(self, models: Iterable[FailureModel]):
        self._models = list(models)
        if not self._models:
            raise ConfigurationError("need at least one failure model")

    def is_alive(self, worker: int, step: int, rng: np.random.Generator) -> bool:
        """Alive iff every constituent model says alive."""
        return all(m.is_alive(worker, step, rng) for m in self._models)

    def reset(self) -> None:
        """Reset every constituent model."""
        for model in self._models:
            model.reset()
