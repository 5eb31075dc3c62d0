"""Master/worker cluster simulator, one synchronous round at a time.

One :class:`ClusterSimulator` models a synchronous training round:

1. at step start the master broadcasts parameters (one broadcast time);
2. every worker computes gradients on its ``c`` partitions
   (``base_compute + c · per_partition_compute`` seconds, scaled per
   worker by a heterogeneous compute model), suffers a
   straggler delay from the injected :class:`~repro.straggler.DelayModel`,
   and uploads its coded gradient (network transfer time);
3. the uploads race: :func:`~repro.simulation.events.arrival_race`
   computes every live worker's finish time as one float64 array and
   orders the arrivals by a stable argsort (ties by worker order); the
   caller's wait policy then decides who is accepted and when the
   master moves on.

All time is simulated seconds.  Two time origins coexist and are kept
strictly apart:

* **absolute** — the simulator clock (``step_start``/``step_end``);
* **step-relative** — everything a wait policy sees or returns, and the
  ``arrivals``/``outcome`` carried by :class:`RoundResult`, measured
  from the start of the current step.

The convention is enforced on what runs record: ``tests/time_origins.py``
checks that each round starts where the last one ended, that
``step_start + proceed_time == step_end``, that arrivals are
step-relative, and that the engine's ``wait_time``/``sim_time`` and
the adaptive rule's migrations agree with the traces, on every golden,
resume, shipped-spec and served run.

The same simulator instance can be replayed for several schemes by
fixing the delay model to a recorded
:class:`~repro.straggler.DelayTrace`; :meth:`ClusterSimulator.reset`
rewinds the clock *and* the RNG/model state so a replay reproduces the
same rounds exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

import numpy as np

from ..exceptions import ConfigurationError, SimulationError
from .events import arrival_race
from .policies import WaitOutcome, WaitPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..env.environment import Environment
    from ..obs.tracer import RoundTracer


@dataclass(frozen=True)
class ComputeModel:
    """Per-worker gradient computation cost.

    ``base`` covers batch loading and framework overhead;
    ``per_partition`` is the marginal cost of one more dataset
    partition, so a worker with ``c`` partitions spends
    ``base + c · per_partition`` seconds before upload.
    """

    base: float = 0.05
    per_partition: float = 0.10

    def __post_init__(self) -> None:
        if self.base < 0 or self.per_partition < 0:
            raise ConfigurationError(
                f"compute costs must be >= 0, got base={self.base}, "
                f"per_partition={self.per_partition}"
            )

    def step_time(self, partitions: int) -> float:
        """Seconds of compute for a worker holding ``partitions``."""
        if partitions <= 0:
            raise ConfigurationError(
                f"partitions must be positive, got {partitions}"
            )
        return self.base + partitions * self.per_partition


@dataclass(frozen=True)
class RoundResult:
    """Everything a training strategy needs from one simulated round.

    ``arrivals`` and ``outcome`` are *step-relative* (seconds since
    ``step_start``) — the same convention the wait policies use, so the
    policy's decision is carried through verbatim.  ``step_start`` and
    ``step_end`` are absolute simulator-clock readings; absolute arrival
    times are ``step_start + arrivals[w]``.
    """

    #: worker → step-relative arrival time (seconds since step_start).
    arrivals: Dict[int, float]
    #: The wait policy's decision, unchanged (proceed_time relative).
    outcome: WaitOutcome
    step_start: float
    step_end: float
    #: Compute-seconds spent by workers whose uploads the master did
    #: not accept this round — the price of ignoring stragglers.
    wasted_compute: float = 0.0
    #: Seconds the parameter broadcast took: workers start computing
    #: at ``step_start + broadcast_time``.
    broadcast_time: float = 0.0

    @property
    def step_time(self) -> float:
        return self.step_end - self.step_start


class ClusterSimulator:
    """Simulates rounds of distributed gradient computation.

    Its five model layers (delay, failure, compute, network,
    contention) come from one :class:`~repro.env.Environment`;
    ``Environment(...).simulator(n, c, rng=...)`` is the short form.
    """

    def __init__(
        self,
        num_workers: int,
        partitions_per_worker: int,
        environment: "Environment",
        gradient_elements: int = 10_000,
        *,
        rng: np.random.Generator,
        tracer: "RoundTracer | None" = None,
    ):
        if num_workers <= 0:
            raise ConfigurationError(
                f"num_workers must be positive, got {num_workers}"
            )
        if partitions_per_worker <= 0:
            raise ConfigurationError(
                "partitions_per_worker must be positive, "
                f"got {partitions_per_worker}"
            )
        self._n = num_workers
        self._c = partitions_per_worker
        self._delays = environment.delay
        self._gradient_elements = gradient_elements
        self._rng = rng
        self._failures = environment.failure
        self._link = environment.contention
        self._tracer = tracer
        self._clock = 0.0
        # Compute and network models are pure functions of their
        # construction arguments (the contract stated in
        # ``repro.env.registry``), so the transfer times and each
        # worker's compute seconds are computed once, here.
        network = environment.network
        self._broadcast = network.broadcast_time(
            gradient_elements, num_workers
        )
        self._upload = network.transfer_time(gradient_elements)
        self._compute_t = self._compute_seconds(environment.compute)
        # Snapshot the generator so reset() can replay the exact same
        # random stream (and therefore the exact same rounds).  The
        # state getter returns a fresh dict and the setter copies out of
        # it, so this needs no defensive copy.
        self._rng_state = self._rng.bit_generator.state

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return self._n

    @property
    def clock(self) -> float:
        """Current simulated time in seconds."""
        return self._clock

    @property
    def tracer(self) -> "RoundTracer | None":
        """The attached round tracer, or ``None`` (tracing disabled)."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: "RoundTracer | None") -> None:
        self._tracer = tracer

    def reset(self) -> None:
        """Rewind to the initial state: clock zero, the RNG restored to
        its construction-time state, and stateful delay/failure models
        reset — so a reset simulator replays identical rounds."""
        self._clock = 0.0
        self._rng.bit_generator.state = self._rng_state
        self._delays.reset()
        self._failures.reset()

    def snapshot_state(self) -> Dict:
        """JSON-safe mutable simulator state (checkpointing).

        The failure models are pure functions of ``(worker, step)`` and
        carry no mutable state, so clock + RNG + delay-model state is
        the complete picture.
        """
        return {
            "clock": self._clock,
            "rng": self._rng.bit_generator.state,
            "delays": self._delays.snapshot_state(),
        }

    def restore_state(self, state) -> None:
        """Restore state captured by :meth:`snapshot_state`."""
        self._clock = float(state["clock"])
        self._rng.bit_generator.state = dict(state["rng"])
        self._delays.restore_state(state["delays"])

    # ------------------------------------------------------------------
    def run_round(self, step: int, policy: WaitPolicy) -> RoundResult:
        """Simulate one synchronous round under ``policy``.

        Crashed/dropped workers (the failure layer) produce no arrival;
        with a contended link (the contention layer) the uploads fair-share the master's
        ingress bandwidth instead of transferring independently.

        The round is drawn in two batches: one
        :meth:`FailureModel.alive_round` (worker order), then one
        :meth:`DelayModel.sample_round` over the survivors.  The
        uncontended race is one :func:`arrival_race` call, so
        ``arrivals`` iterates in arrival order (ties by worker id);
        under contention it iterates in worker order.
        """
        start = self._clock
        broadcast = self._broadcast
        alive = self._failures.alive_round(self._n, step, self._rng)
        if not alive:
            raise SimulationError(
                f"step {step}: every worker failed; nothing to wait for"
            )
        compute_t = self._compute_t
        if isinstance(compute_t, np.ndarray):
            compute_t = compute_t[alive]
        straggles = self._delays.sample_round(alive, step, self._rng)

        if self._link is not None:
            upload_starts = {
                worker: start + broadcast + worker_compute + float(straggle_t)
                for worker, worker_compute, straggle_t in zip(
                    alive,
                    np.broadcast_to(compute_t, len(alive)).tolist(),
                    straggles,
                )
            }
            contended = self._link.round_arrivals(
                upload_starts, self._gradient_elements
            )
            # Policies reason in step-relative time (deadlines).
            relative = {
                w: t - start for w, t in contended.arrivals.items()
            }
        else:
            relative = arrival_race(
                alive,
                start,
                broadcast,
                compute_t,
                straggles,
                self._upload,
            )
        outcome = policy.wait(relative, step)
        end = start + outcome.proceed_time
        self._clock = end
        idle = relative.keys() - outcome.accepted_workers
        if isinstance(compute_t, np.ndarray):
            wasted = float(sum(
                t for w, t in zip(alive, compute_t.tolist()) if w in idle
            ))
        else:
            wasted = compute_t * len(idle)
        if self._tracer is not None:
            self._tracer.record_round(
                step=step,
                arrivals=relative,
                outcome=outcome,
                policy=policy.describe(),
                step_start=start,
                step_end=end,
                wasted_compute=wasted,
            )
        return RoundResult(
            arrivals=relative,
            outcome=outcome,
            step_start=start,
            step_end=end,
            wasted_compute=wasted,
            broadcast_time=broadcast,
        )

    def _compute_seconds(self, compute):
        """Compute seconds per worker: one float for a uniform model,
        an array over every worker for a per-worker one
        (``step_time_for``, e.g. heterogeneous speeds), which a round
        indexes by its live workers."""
        step_time_for = getattr(compute, "step_time_for", None)
        if step_time_for is None:
            return compute.step_time(self._c)
        return np.array([step_time_for(w, self._c) for w in range(self._n)])
