"""Execution backends: how one training round is physically executed.

The :class:`~repro.engine.core.RoundEngine` owns the *semantics* of a
step (decode → unbiased update → eval → record); a backend owns its
*mechanics* — where gradients are computed, how arrivals are produced,
and which clock advances:

* :class:`FlatBackend` — the synchronous path over
  :class:`~repro.simulation.cluster.ClusterSimulator`: gradients are
  computed in-process by the engine's update rule, then one call to
  ``run_round`` yields arrivals and the wait-policy outcome.  Specs
  select it as ``flat`` (10 000-element messages) or as ``actor``, the
  paper's Ray round (Sec. VIII-A), whose broadcasts and uploads are
  the model's parameter count; in every scheme comparison Ray's role
  is ``ray.wait(w)``, i.e. which workers arrive when, and that is the
  simulator's wait policy.
* :class:`AsyncArrivalBackend` — no synchronous rounds at all: a
  per-worker fetch/compute/upload pipeline whose arrivals the engine
  consumes one at a time (:meth:`RoundEngine.run_updates`).

This module imports nothing from ``repro.training``, so the backends
stay a leaf under it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..env import make_compute_model, make_delay_model, make_network_model
from ..exceptions import ConfigurationError, TrainingError
from ..obs.registry import MetricsRegistry, NULL_REGISTRY
from ..simulation.cluster import ClusterSimulator, ComputeModel
from ..simulation.events import Event, EventQueue
from ..simulation.network import NetworkModel
from ..simulation.policies import WaitOutcome, WaitPolicy
from ..straggler.models import DelayModel

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.tracer import RoundTracer
    from .core import RoundEngine


@dataclass(frozen=True)
class RoundExecution:
    """Everything one synchronous round produced, pre-decode.

    ``accepted`` is the wait policy's accepted-worker set, as passed to
    ``strategy.decode``; ``batch_losses`` are the pre-update
    per-partition batch losses, the loss fallback when the engine has
    no eval set.
    """

    payloads: Mapping[int, np.ndarray]
    accepted: Sequence[int]
    arrivals: Mapping[int, float]
    outcome: WaitOutcome
    step_start: float
    step_end: float
    batch_losses: Tuple[float, ...]


class ExecutionBackend(abc.ABC):
    """One way of turning encoded payloads into arrivals and a clock."""

    def bind(self, engine: "RoundEngine") -> None:
        """Called once by the engine; backends may cache derived state."""

    @property
    @abc.abstractmethod
    def clock(self) -> float:
        """Current simulated time in seconds."""

    @property
    def tracer(self) -> "RoundTracer | None":
        """The round tracer riding on this backend, if any."""
        return None

    def attach_tracer(self, tracer: "RoundTracer") -> None:
        """Route this backend's round events to ``tracer``.

        Called by the engine when it is given a tracer.  Only backends
        that record rounds override this; the rest reject tracing.
        """
        raise ConfigurationError(
            f"tracing requires a cluster-backed backend "
            f"(round events come from ClusterSimulator); "
            f"backend {type(self).__name__!r} does not record rounds"
        )

    @abc.abstractmethod
    def execute_round(
        self, engine: "RoundEngine", step: int, policy: WaitPolicy
    ) -> RoundExecution:
        """Run one full round at ``step`` under ``policy``."""

    def snapshot_state(self) -> Dict:
        """JSON-safe mutable backend state (checkpointing)."""
        return {}

    def restore_state(self, engine: "RoundEngine", state) -> None:
        """Restore state captured by :meth:`snapshot_state`."""


class FlatBackend(ExecutionBackend):
    """The :class:`ClusterSimulator` path: in-process gradients, one
    ``run_round`` call per step."""

    def __init__(self, cluster: ClusterSimulator):
        self._cluster = cluster

    def bind(self, engine: "RoundEngine") -> None:
        expected = engine.strategy.placement.num_workers
        if self._cluster.num_workers != expected:
            raise TrainingError(
                f"cluster has {self._cluster.num_workers} workers but "
                f"placement expects {expected}"
            )

    @property
    def cluster(self) -> ClusterSimulator:
        return self._cluster

    @property
    def clock(self) -> float:
        return self._cluster.clock

    @property
    def tracer(self) -> "RoundTracer | None":
        return self._cluster.tracer

    def attach_tracer(self, tracer: "RoundTracer") -> None:
        self._cluster.tracer = tracer

    def execute_round(self, engine, step, policy):
        partition_gradients, batch_losses = engine.rule.compute_partitions(
            engine, step
        )
        payloads = engine.strategy.encode(partition_gradients)
        result = self._cluster.run_round(step, policy)
        return RoundExecution(
            payloads=payloads,
            accepted=result.outcome.accepted_workers,
            arrivals=result.arrivals,
            outcome=result.outcome,
            step_start=result.step_start,
            step_end=result.step_end,
            batch_losses=tuple(batch_losses),
        )

    def snapshot_state(self):
        return self._cluster.snapshot_state()

    def restore_state(self, engine, state):
        self._cluster.restore_state(state)


@dataclass
class ArrivalEvent:
    """One asynchronous gradient arrival."""

    time: float
    worker: int


class AsyncArrivalBackend(ExecutionBackend):
    """Per-arrival pipeline for the asynchronous extreme.

    There are no synchronous rounds: each worker independently loops
    fetch → compute → straggle → upload, and
    :meth:`RoundEngine.run_updates` consumes arrivals one at a time.
    The backend owns the per-worker fetch-version and step counters the
    engine reads to compute staleness and draw seeded batches.
    """

    def __init__(
        self,
        compute: ComputeModel | None = None,
        network: NetworkModel | None = None,
        delay_model: DelayModel | None = None,
        *,
        rng: np.random.Generator,
        metrics: MetricsRegistry | None = None,
    ):
        self._compute = compute if compute is not None else make_compute_model()
        self._network = network if network is not None else make_network_model()
        self._delays = delay_model if delay_model is not None else make_delay_model("none")
        self._rng = rng
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._grad_elems = 0
        self._num_workers = 0
        self._queue = EventQueue()
        self._clock = 0.0
        self.fetch_version: List[int] = []
        self.worker_step: List[int] = []

    def bind(self, engine) -> None:
        self._num_workers = len(engine.streams)
        self._grad_elems = engine.model.num_parameters

    @property
    def clock(self) -> float:
        return self._clock

    def start(self) -> None:
        """Reset state and schedule every worker's first fetch at t=0."""
        n = self._num_workers
        self.fetch_version = [0] * n
        self.worker_step = [0] * n
        self._queue = EventQueue()
        self._clock = 0.0
        for worker in range(n):
            self.schedule(worker, 0.0, version=0)

    def schedule(self, worker: int, now: float, version: int) -> None:
        """Worker fetches parameters at ``now`` and will deliver later."""
        self.fetch_version[worker] = version
        step_time_for = getattr(self._compute, "step_time_for", None)
        compute_t = (
            self._compute.step_time(1) if step_time_for is None
            else step_time_for(worker, 1)
        )
        straggle_t = self._delays.sample(
            worker, self.worker_step[worker], self._rng
        )
        upload_t = self._network.transfer_time(self._grad_elems)
        arrival = now + compute_t + straggle_t + upload_t
        self._queue.push(Event(arrival, "gradient", worker=worker))

    def next_arrival(self) -> ArrivalEvent:
        """Pop the earliest pending gradient and advance the clock."""
        event = self._queue.pop()
        self._clock = event.time
        return ArrivalEvent(time=event.time, worker=event.worker)

    def execute_round(self, engine, step, policy):
        raise TrainingError(
            "the async backend has no synchronous rounds; "
            "use RoundEngine.run_updates"
        )

    def snapshot_state(self):
        from .state import generator_state

        events = []
        for event in self._queue.snapshot_events():
            if event.payload is not None:
                raise TrainingError(
                    "cannot checkpoint an event carrying a payload: "
                    f"{event.kind!r} at t={event.time}"
                )
            events.append(
                {"time": event.time, "kind": event.kind,
                 "worker": event.worker}
            )
        return {
            "clock": self._clock,
            "rng": generator_state(self._rng),
            "fetch_version": list(self.fetch_version),
            "worker_step": list(self.worker_step),
            "delays": self._delays.snapshot_state(),
            "queue": events,
        }

    def restore_state(self, engine, state):
        from .state import set_generator_state

        self._clock = float(state["clock"])
        set_generator_state(self._rng, state["rng"])
        self.fetch_version = [int(v) for v in state["fetch_version"]]
        self.worker_step = [int(v) for v in state["worker_step"]]
        self._delays.restore_state(state["delays"])
        # Re-pushing in pop order reproduces the heap's tie-breaking:
        # the fresh insertion counter preserves relative FIFO order and
        # stays below every future push.
        self._queue = EventQueue()
        for event in state["queue"]:
            self._queue.push(
                Event(
                    float(event["time"]), str(event["kind"]),
                    worker=event["worker"],
                )
            )
