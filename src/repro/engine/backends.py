"""Execution backends: how one training round is physically executed.

The :class:`~repro.engine.core.RoundEngine` owns the *semantics* of a
step (decode → unbiased update → eval → record); a backend owns its
*mechanics* — where gradients are computed, how arrivals are produced,
and which clock advances:

* :class:`FlatBackend` — the vectorised path over
  :class:`~repro.simulation.cluster.ClusterSimulator`: gradients are
  computed in-process by the engine's update rule, then one call to
  ``run_round`` yields arrivals and the wait-policy outcome.
* :class:`ActorBackend` — the message-passing path over
  :class:`~repro.runtime.actors.MasterActor` /
  :class:`~repro.runtime.actors.WorkerActor`: parameters are broadcast,
  each worker computes and encodes its own partitions, the uploads
  race through :func:`~repro.simulation.events.arrival_race` (the
  simulator's own race), and the master collects the accepted ones.
* :class:`AsyncArrivalBackend` — no synchronous rounds at all: a
  per-worker fetch/compute/upload pipeline whose arrivals the engine
  consumes one at a time (:meth:`RoundEngine.run_updates`).

Both synchronous backends return a :class:`RoundExecution` carrying the
accepted-worker set *in the exact form the pre-engine loops passed to
``strategy.decode``* (a frozenset on the flat path, a sorted list on
the actor path) so refactored trajectories stay bit-identical; decoders
normalise internally, so the two forms decode to the same floats.

This module imports nothing from ``repro.training`` or
``repro.runtime``: masters and workers are duck-typed, so the backends
stay a leaf under both.
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
from ..simulation.events import Event, EventQueue, arrival_race
from ..simulation.network import NetworkModel
from ..simulation.policies import WaitOutcome, WaitPolicy
from ..straggler.models import DelayModel

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.tracer import RoundTracer
    from .core import RoundEngine


@dataclass(frozen=True)
class RoundExecution:
    """Everything one synchronous round produced, pre-decode.

    ``accepted`` is the wait policy's accepted-worker set in the form
    the backend's historical loop passed to ``strategy.decode``;
    ``batch_losses`` are the pre-update per-partition batch losses when
    the backend computed gradients in-process (empty on the actor path,
    whose historical loss fallback is NaN).
    """

    payloads: Mapping[int, np.ndarray]
    accepted: Sequence[int]
    arrivals: Mapping[int, float]
    outcome: WaitOutcome
    step_start: float
    step_end: float
    batch_losses: Tuple[float, ...] = ()


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

    def on_record(self, record) -> None:
        """Hook invoked after the engine commits a step record."""

    def on_strategy_change(self, strategy) -> None:
        """Hook invoked when a rule swaps the engine's strategy."""

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


class ActorBackend(ExecutionBackend):
    """The message-passing path over master/worker actors.

    Owns the scheduling half of a round: the master/worker actors stay
    pure state machines, the backend drives broadcast → per-worker
    compute/straggle/upload → arrival race → wait policy →
    delivery of accepted uploads.  The engine then decodes and
    updates; :meth:`on_record` commits the record back to the master
    so ``master.records`` / ``master.step`` track the run.
    """

    def __init__(
        self,
        master,
        workers: Sequence,
        compute: ComputeModel | None = None,
        network: NetworkModel | None = None,
        delay_model: DelayModel | None = None,
        rng: np.random.Generator | None = None,
        keep_message_log: bool = False,
    ):
        self.master = master
        self.workers = list(workers)
        self._compute = compute if compute is not None else make_compute_model()
        self._network = network if network is not None else make_network_model()
        self._delays = delay_model if delay_model is not None else make_delay_model("none")
        self._rng = rng if rng is not None else np.random.default_rng()  # repro: noqa[DET003] deliberate opt-in to entropy when no rng is injected
        self._keep_log = keep_message_log
        self.message_log: List = []
        self._clock = 0.0

    def bind(self, engine: "RoundEngine") -> None:
        # Lazy: rules.py imports repro.training, this module must not.
        from .rules import UpdateRule

        rule = type(engine.rule)
        if rule.compute_partitions is not UpdateRule.compute_partitions:
            raise TrainingError(
                "the actor backend's workers upload coded gradients; rule "
                f"{rule.__name__!r} codes its own per-partition quantity "
                "and needs an in-process backend"
            )

    @property
    def clock(self) -> float:
        return self._clock

    def execute_round(self, engine, step, policy):
        start = self._clock
        broadcast = self.master.broadcast(start)
        if self._keep_log:
            self.message_log.append(broadcast)

        broadcast_t = self._network.broadcast_time(
            len(broadcast.parameters), len(self.workers)
        )
        grad_elems = broadcast.parameters.size
        upload_t = self._network.transfer_time(grad_elems)
        ids = [worker.worker_id for worker in self.workers]
        # One vectorized draw for the whole round; handle_broadcast is
        # RNG-free, so batching the delays ahead of the worker loop
        # keeps the random stream bit-identical to per-worker draws.
        straggles = self._delays.sample_round(ids, broadcast.step, self._rng)
        uploads: Dict[int, object] = {}
        compute_t = np.empty(len(self.workers))
        for i, worker in enumerate(self.workers):
            uploads[worker.worker_id] = worker.handle_broadcast(
                broadcast, start + broadcast_t
            )
            compute_t[i] = self._compute.step_time(len(worker.partitions))
        arrivals = arrival_race(
            ids, start, broadcast_t, compute_t, straggles, upload_t
        )

        outcome = policy.wait(arrivals, broadcast.step)
        accepted = sorted(outcome.accepted_workers)
        payloads: Dict[int, np.ndarray] = {}
        for w in accepted:
            msg = uploads[w]
            self.master.receive(msg)
            if self._keep_log:
                self.message_log.append(msg)
            payloads[w] = msg.payload
        missing = [w for w, p in payloads.items() if p is None]
        if missing:
            raise TrainingError(f"empty payloads from workers {missing}")

        end = start + outcome.proceed_time
        self._clock = end
        return RoundExecution(
            payloads=payloads,
            accepted=accepted,
            arrivals=arrivals,
            outcome=outcome,
            step_start=start,
            step_end=end,
        )

    def on_record(self, record) -> None:
        self.master.commit_record(record)

    def on_strategy_change(self, strategy) -> None:
        self.master.update_strategy(strategy)
        for worker in self.workers:
            worker.update_strategy(strategy)

    def snapshot_state(self):
        from .state import generator_state

        return {
            "clock": self._clock,
            "rng": generator_state(self._rng),
            "master_step": self.master.step,
            "delays": self._delays.snapshot_state(),
        }

    def restore_state(self, engine, state):
        from .state import set_generator_state

        self._clock = float(state["clock"])
        set_generator_state(self._rng, state["rng"])
        self._delays.restore_state(state["delays"])
        self.master.restore_progress(
            int(state["master_step"]), engine.records
        )


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
        rng: np.random.Generator | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self._compute = compute if compute is not None else make_compute_model()
        self._network = network if network is not None else make_network_model()
        self._delays = delay_model if delay_model is not None else make_delay_model("none")
        self._rng = rng if rng is not None else np.random.default_rng()  # repro: noqa[DET003] deliberate opt-in to entropy when no rng is injected
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
        compute_t = self._compute.step_time(1)
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
