"""Straggler delay models.

The paper simulates stragglers by adding a random delay (exponential,
parameterised from real cloud measurements) before a worker's upload
(Sec. VIII-B), and observes an "enduring straggler" effect in the cloud
runs (Sec. VIII-C).  This module provides those models plus common
alternatives used in the straggler literature, all behind one interface:

``DelayModel.sample(worker, step, rng) -> float`` — extra seconds of
delay for ``worker`` at ``step``.

Models take no global state; randomness flows through the caller's
:class:`numpy.random.Generator` so experiments are reproducible and
schemes can be compared on *identical* delay realisations.
"""

from __future__ import annotations

import abc
import bisect
from collections.abc import Iterable, Sequence
from typing import FrozenSet

import numpy as np

from ..exceptions import ConfigurationError


class DelayModel(abc.ABC):
    """Base class: per-(worker, step) additive delay in seconds."""

    @abc.abstractmethod
    def sample(self, worker: int, step: int, rng: np.random.Generator) -> float:
        """Extra delay for ``worker`` at ``step`` (non-negative seconds)."""

    def reset(self) -> None:
        """Forget any internal state so a replay reproduces the run.

        The built-in models are stateless (randomness flows through the
        caller's RNG), so the default is a no-op; stateful subclasses
        must override.  Called by :meth:`ClusterSimulator.reset`.
        """

    def snapshot_state(self) -> dict:
        """JSON-safe mutable state (checkpointing).

        Mirrors :meth:`reset`: the default is stateless (``{}``);
        stateful subclasses override, and wrapper models recurse into
        their inner models.
        """
        return {}

    def restore_state(self, state) -> None:
        """Restore state captured by :meth:`snapshot_state`."""

    def sample_round(
        self, workers: Sequence[int], step: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Delays for a whole round as an array aligned with ``workers``.

        Contract: consumes ``rng`` exactly as per-worker :meth:`sample`
        calls in ``workers`` order would — bit-for-bit.  Vectorized
        overrides (exponential & co.) preserve this because numpy's
        ``Generator`` fills a size-``k`` request by applying the scalar
        routine ``k`` times, so batched and looped simulation produce
        identical delay streams.

        The compound families — :class:`BernoulliStraggler`,
        :class:`PersistentStragglers` and :class:`MixtureDelay` — keep
        this default loop, and the stream definition forbids otherwise:
        per worker they draw a gate or component first and then the
        inner model's delay, and numpy's exponential and pareto use a
        ziggurat that consumes a variable number of 64-bit words, so no
        sized draw can reproduce that interleaving.
        """
        return np.array(
            [self.sample(w, step, rng) for w in workers], dtype=float
        )


class NoDelay(DelayModel):
    """The ideal cluster: nobody straggles."""

    def sample(self, worker: int, step: int, rng: np.random.Generator) -> float:
        return 0.0

    def sample_round(
        self, workers: Sequence[int], step: int, rng: np.random.Generator
    ) -> np.ndarray:
        return np.zeros(len(list(workers)))


class ExponentialDelay(DelayModel):
    """Exponential delay on a chosen subset of workers (paper, Fig. 11).

    ``affected`` selects which workers can straggle (the paper injects
    delays on 12 or on all 24 of its workers); ``None`` affects all.
    """

    def __init__(self, mean: float = 1.0, affected: Iterable[int] | None = None):
        if mean < 0:
            raise ConfigurationError(f"mean delay must be >= 0, got {mean}")
        self._mean = float(mean)
        self._affected: FrozenSet[int] | None = (
            frozenset(affected) if affected is not None else None
        )

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def affected(self) -> FrozenSet[int] | None:
        return self._affected

    def sample(self, worker: int, step: int, rng: np.random.Generator) -> float:
        if self._affected is not None and worker not in self._affected:
            return 0.0
        if self._mean == 0.0:
            return 0.0
        return float(rng.exponential(self._mean))

    def sample_round(
        self, workers: Sequence[int], step: int, rng: np.random.Generator
    ) -> np.ndarray:
        ordered = list(workers)
        out = np.zeros(len(ordered))
        if self._mean == 0.0:
            return out
        if self._affected is None:
            hit = np.arange(len(ordered))
        else:
            hit = np.array(
                [i for i, w in enumerate(ordered) if w in self._affected],
                dtype=int,
            )
        if hit.size:
            out[hit] = rng.exponential(self._mean, size=hit.size)
        return out


class ShiftedExponentialDelay(DelayModel):
    """Constant floor plus exponential tail — the classic latency model."""

    def __init__(self, shift: float, mean: float):
        if shift < 0 or mean < 0:
            raise ConfigurationError(
                f"shift and mean must be >= 0, got shift={shift}, mean={mean}"
            )
        self._shift = float(shift)
        self._mean = float(mean)

    def sample(self, worker: int, step: int, rng: np.random.Generator) -> float:
        tail = float(rng.exponential(self._mean)) if self._mean > 0 else 0.0
        return self._shift + tail

    def sample_round(
        self, workers: Sequence[int], step: int, rng: np.random.Generator
    ) -> np.ndarray:
        count = len(list(workers))
        out = np.full(count, self._shift)
        if self._mean > 0 and count:
            out += rng.exponential(self._mean, size=count)
        return out


class ParetoDelay(DelayModel):
    """Heavy-tailed delays: ``scale · (Pareto(alpha))`` seconds.

    Used by the ablation tables to probe sensitivity to tail weight.
    """

    def __init__(self, alpha: float, scale: float):
        if alpha <= 0 or scale < 0:
            raise ConfigurationError(
                f"need alpha > 0 and scale >= 0, got alpha={alpha}, scale={scale}"
            )
        self._alpha = float(alpha)
        self._scale = float(scale)

    def sample(self, worker: int, step: int, rng: np.random.Generator) -> float:
        return self._scale * float(rng.pareto(self._alpha))

    def sample_round(
        self, workers: Sequence[int], step: int, rng: np.random.Generator
    ) -> np.ndarray:
        count = len(list(workers))
        if not count:
            return np.zeros(0)
        return self._scale * rng.pareto(self._alpha, size=count)


class BernoulliStraggler(DelayModel):
    """Each worker independently straggles with probability ``p`` per step.

    When it does, the delay is drawn from ``delay``; otherwise 0.
    """

    def __init__(self, probability: float, delay: DelayModel):
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {probability}"
            )
        self._p = float(probability)
        self._inner = delay

    def sample(self, worker: int, step: int, rng: np.random.Generator) -> float:
        if rng.random() >= self._p:
            return 0.0
        return self._inner.sample(worker, step, rng)

    def reset(self) -> None:
        self._inner.reset()

    def snapshot_state(self) -> dict:
        return {"inner": self._inner.snapshot_state()}

    def restore_state(self, state) -> None:
        self._inner.restore_state(state["inner"])


class PersistentStragglers(DelayModel):
    """A fixed set of chronically slow workers (the "enduring straggler").

    Reproduces the Sec. VIII-C observation that a persistently slow
    worker makes IS-GC's recovered fraction *higher* than the i.i.d.
    expectation (the same worker is always the one ignored).
    """

    def __init__(
        self,
        straggler_workers: Iterable[int],
        straggler_delay: DelayModel,
        background_delay: DelayModel | None = None,
    ):
        self._stragglers = frozenset(straggler_workers)
        self._slow = straggler_delay
        self._fast = background_delay if background_delay is not None else NoDelay()

    @property
    def straggler_workers(self) -> FrozenSet[int]:
        return self._stragglers

    def sample(self, worker: int, step: int, rng: np.random.Generator) -> float:
        if worker in self._stragglers:
            return self._slow.sample(worker, step, rng)
        return self._fast.sample(worker, step, rng)

    def reset(self) -> None:
        self._slow.reset()
        self._fast.reset()

    def snapshot_state(self) -> dict:
        return {
            "slow": self._slow.snapshot_state(),
            "fast": self._fast.snapshot_state(),
        }

    def restore_state(self, state) -> None:
        self._slow.restore_state(state["slow"])
        self._fast.restore_state(state["fast"])


class DiurnalDelay(DelayModel):
    """Load-dependent delays following a daily (or any-period) cycle.

    Cloud measurements show straggling intensity tracks datacenter
    load; this model scales a base delay by
    ``1 + amplitude · sin(2π · step / period)`` (clamped at 0), so
    experiments can probe schedulers against predictable load waves.
    """

    def __init__(self, base: DelayModel, period_steps: int, amplitude: float = 0.5):
        if period_steps <= 0:
            raise ConfigurationError(
                f"period_steps must be positive, got {period_steps}"
            )
        if amplitude < 0:
            raise ConfigurationError(
                f"amplitude must be >= 0, got {amplitude}"
            )
        self._base = base
        self._period = period_steps
        self._amplitude = amplitude

    def scale_at(self, step: int) -> float:
        """The sinusoidal load multiplier at ``step`` (clamped at 0)."""
        phase = 2.0 * np.pi * (step % self._period) / self._period
        return max(0.0, 1.0 + self._amplitude * np.sin(phase))

    def sample(self, worker: int, step: int, rng: np.random.Generator) -> float:
        return self.scale_at(step) * self._base.sample(worker, step, rng)

    def sample_round(
        self, workers: Sequence[int], step: int, rng: np.random.Generator
    ) -> np.ndarray:
        return self.scale_at(step) * self._base.sample_round(workers, step, rng)

    def reset(self) -> None:
        self._base.reset()

    def snapshot_state(self) -> dict:
        return {"base": self._base.snapshot_state()}

    def restore_state(self, state) -> None:
        self._base.restore_state(state["base"])


class BurstyDelay(DelayModel):
    """Two-state Markov (Gilbert) model: calm ↔ bursty per worker.

    Each worker independently alternates between a calm state (no extra
    delay) and a burst state (delays from ``burst``), with the
    given per-step transition probabilities — the on/off pattern of
    co-located noisy neighbours.

    State is per-instance; :meth:`reset` returns every worker to the
    calm state, so a reset simulator replay reproduces the run (pair
    it with the same rng seed, or record a
    :class:`~repro.straggler.DelayTrace`).
    """

    def __init__(
        self,
        burst: DelayModel,
        enter_burst: float = 0.05,
        exit_burst: float = 0.25,
    ):
        for name, p in (("enter_burst", enter_burst), ("exit_burst", exit_burst)):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {p}")
        self._burst = burst
        self._enter = enter_burst
        self._exit = exit_burst
        self._in_burst: dict[int, bool] = {}

    def in_burst(self, worker: int) -> bool:
        """Whether ``worker`` is currently in the burst state."""
        return self._in_burst.get(worker, False)

    def sample(self, worker: int, step: int, rng: np.random.Generator) -> float:
        bursting = self._in_burst.get(worker, False)
        if bursting:
            if rng.random() < self._exit:
                bursting = False
        else:
            if rng.random() < self._enter:
                bursting = True
        self._in_burst[worker] = bursting
        if not bursting:
            return 0.0
        return self._burst.sample(worker, step, rng)

    def reset(self) -> None:
        """Return every worker to the calm state."""
        self._in_burst.clear()
        self._burst.reset()

    def snapshot_state(self) -> dict:
        # JSON object keys are strings; worker ids round-trip via str().
        return {
            "in_burst": {
                str(worker): bursting
                for worker, bursting in sorted(self._in_burst.items())
            },
            "burst": self._burst.snapshot_state(),
        }

    def restore_state(self, state) -> None:
        self._in_burst = {
            int(worker): bool(bursting)
            for worker, bursting in state["in_burst"].items()
        }
        self._burst.restore_state(state["burst"])


class MixtureDelay(DelayModel):
    """Per-step mixture: with probability ``weights[k]`` use model ``k``."""

    def __init__(self, models: Sequence[DelayModel], weights: Sequence[float]):
        if len(models) != len(weights) or not models:
            raise ConfigurationError(
                "models and weights must be equal-length and non-empty"
            )
        total = float(sum(weights))
        if total <= 0 or any(w < 0 for w in weights):
            raise ConfigurationError("weights must be non-negative and sum > 0")
        self._models = list(models)
        # Generator.choice(p=weights / total) inverts this cdf against
        # one uniform; doing it directly draws the same component from
        # the same stream without choice's per-call validation.  The
        # cdf is kept as Python floats so ``bisect_right`` finds the
        # index ``searchsorted(side="right")`` would, without numpy's
        # per-call overhead.
        cdf = (np.asarray(weights, dtype=float) / total).cumsum()
        cdf /= cdf[-1]
        self._cdf = tuple(cdf.tolist())

    def sample(self, worker: int, step: int, rng: np.random.Generator) -> float:
        idx = bisect.bisect_right(self._cdf, rng.random())
        return self._models[idx].sample(worker, step, rng)

    def reset(self) -> None:
        for model in self._models:
            model.reset()

    def snapshot_state(self) -> dict:
        return {
            "models": [model.snapshot_state() for model in self._models]
        }

    def restore_state(self, state) -> None:
        for model, inner in zip(self._models, state["models"]):
            model.restore_state(inner)
