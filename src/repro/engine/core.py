"""The round engine: one canonical training step for every scheme.

:class:`RoundEngine` owns batch draw → encode → arrivals → wait →
decode → update → eval once, parameterised along two orthogonal axes:

* an :class:`~repro.engine.backends.ExecutionBackend` — *where* the
  round runs (synchronous cluster simulator, async arrivals);
* an :class:`~repro.engine.rules.UpdateRule` — *what* the decoded
  aggregate means (sync mean-gradient update, local-update delta,
  adaptive migration, per-arrival async apply).

It is the only training loop in the package: argument checks live on
the rule and backend that use the value, and ``tests/golden`` pins
every (backend, rule) family bit-for-bit against pre-engine recordings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..exceptions import TrainingError
from ..training.convergence import LossTracker
from ..training.evaluation import held_out_loss
from ..training.gradients import BatchStreams
from ..types import AsyncSummary, AsyncUpdateRecord, StepRecord, TrainingSummary
from .backends import ExecutionBackend
from .rules import UpdateRule
from .state import (
    MODE_ROUNDS,
    MODE_UPDATES,
    EngineState,
    generator_state,
    set_generator_state,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.tracer import RoundTracer
    from ..simulation.policies import WaitPolicy
    from ..training.datasets import Dataset
    from ..training.models import Model
    from ..training.strategies import TrainingStrategy
    from .plan import EnginePlan


class RoundEngine:
    """Drives training rounds for any (strategy, backend, rule) triple."""

    def __init__(
        self,
        model: "Model",
        streams: BatchStreams,
        strategy: "TrainingStrategy",
        backend: ExecutionBackend,
        rule: UpdateRule,
        eval_data: Optional["Dataset"] = None,
        tracer: "RoundTracer | None" = None,
        plan: "EnginePlan | None" = None,
    ):
        n = strategy.placement.num_partitions
        if len(streams) != n:
            raise TrainingError(
                f"strategy expects {n} partitions, got {len(streams)} "
                "batch streams"
            )
        self.model = model
        #: the gradient path: every per-partition gradient of a run is
        #: one :meth:`BatchStreams.gradients` call on this object.
        self.streams = BatchStreams.require(streams)
        #: mutable on purpose: adaptive rules swap the strategy mid-run.
        self.strategy = strategy
        self.backend = backend
        self.rule = rule
        self.eval_data = eval_data
        #: the plan this engine came from (``None`` if hand-wired).
        self.plan = plan
        self.num_partitions = n
        self.records: List[StepRecord] = []
        self.async_records: List[AsyncUpdateRecord] = []
        #: the current run's step budget (adaptive rules amortise
        #: migration cost over the remaining steps).
        self.max_steps = 0
        #: the active run's loss tracker (``None`` before ``start_run``).
        self._tracker: LossTracker | None = None
        #: ``MODE_ROUNDS``/``MODE_UPDATES`` while a run is active.
        self._mode: str | None = None
        #: async-run update budget (``start_updates``).
        self._max_updates = 0
        backend.bind(self)
        if tracer is not None:
            backend.attach_tracer(tracer)
        self.tracer = tracer if tracer is not None else backend.tracer

    @property
    def clock(self) -> float:
        return self.backend.clock

    # ------------------------------------------------------------------
    def run_step(
        self, step: int, policy: "WaitPolicy | None" = None
    ) -> StepRecord:
        """Execute one full round: compute/encode → wait → decode → update."""
        self.rule.before_step(self, step)
        if policy is None:
            policy = self.strategy.policy
        execution = self.backend.execute_round(self, step, policy)

        grad_sum, recovered = self.strategy.decode(
            execution.accepted, execution.payloads
        )
        if not recovered:
            raise TrainingError(
                f"{self.rule.step_noun} {step}: nothing recovered"
            )
        if self.tracer is not None:
            decision = getattr(self.strategy, "last_decode", None)
            self.tracer.record_decode(
                step,
                decoder_scheme=(
                    self.strategy.placement.scheme
                    if decision is not None else self.strategy.name
                ),
                num_searches=(
                    decision.num_searches if decision is not None else 1
                ),
                num_recovered=len(recovered),
                num_partitions=self.num_partitions,
            )
        applied = self.rule.apply(self, grad_sum, recovered)

        loss = held_out_loss(
            self.model, self.eval_data, fallback_losses=execution.batch_losses
        )
        record = StepRecord(
            step=step,
            sim_time=self.backend.clock + self.rule.time_offset(),
            wait_time=execution.step_end - execution.step_start,
            num_available=len(execution.accepted),
            num_recovered=len(recovered),
            recovery_fraction=len(recovered) / self.num_partitions,
            loss=loss,
            grad_norm=(
                float(np.linalg.norm(applied))
                if self.rule.records_grad_norm else 0.0
            ),
        )
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    # Synchronous runs: start → bounded quanta → summary.  ``run()`` is
    # the one-call form; coordinators call ``start_run`` once and then
    # ``step_rounds(n)`` repeatedly, possibly against a ``restore``d
    # engine — the trajectory is bit-identical either way.

    def start_run(
        self,
        max_steps: int,
        loss_threshold: Optional[float] = None,
        smoothing_window: int = 5,
    ) -> None:
        """Begin a synchronous run (resets records and the tracker)."""
        if max_steps <= 0:
            raise TrainingError(f"max_steps must be positive, got {max_steps}")
        self._tracker = LossTracker(loss_threshold, smoothing_window)
        self._mode = MODE_ROUNDS
        self.max_steps = max_steps
        self.records = []

    @property
    def run_complete(self) -> bool:
        """Whether the active run has hit its budget or threshold."""
        if self._mode == MODE_UPDATES:
            return len(self.async_records) >= self._max_updates
        if self._tracker is None:
            raise TrainingError(
                "no active run; call start_run() or start_updates() first"
            )
        return (
            len(self.records) >= self.max_steps
            or self._tracker.reached_threshold()
        )

    def step_rounds(self, num_rounds: int = 1) -> bool:
        """Execute up to ``num_rounds`` rounds; True when the run is done.

        Each round is one full quantum (compute → wait → decode →
        update → record); stops early once the loss threshold or the
        step budget is reached.
        """
        if self._mode != MODE_ROUNDS or self._tracker is None:
            raise TrainingError(
                "no active synchronous run; call start_run() first"
            )
        if num_rounds <= 0:
            raise TrainingError(
                f"num_rounds must be positive, got {num_rounds}"
            )
        for _ in range(num_rounds):
            if self.run_complete:
                return True
            record = self.run_step(len(self.records))
            self._tracker.record(record.loss)
        return self.run_complete

    def finish_run(self) -> TrainingSummary:
        """Summarise the active synchronous run."""
        if self._mode != MODE_ROUNDS or self._tracker is None:
            raise TrainingError(
                "no active synchronous run; call start_run() first"
            )
        return self.summarize(reached=self._tracker.reached_threshold())

    def run(
        self,
        max_steps: int,
        loss_threshold: Optional[float] = None,
        smoothing_window: int = 5,
    ) -> TrainingSummary:
        """Train until ``loss_threshold`` or ``max_steps``."""
        self.start_run(max_steps, loss_threshold, smoothing_window)
        self.step_rounds(max_steps)
        return self.finish_run()

    def summarize(self, reached: bool = False) -> TrainingSummary:
        """Aggregate :attr:`records` into a :class:`TrainingSummary`."""
        records = self.records
        losses = tuple(r.loss for r in records)
        total = records[-1].sim_time if records else 0.0
        return TrainingSummary(
            scheme=self.rule.scheme_label(self),
            num_steps=len(records),
            total_sim_time=total,
            final_loss=losses[-1] if losses else float("nan"),
            reached_threshold=reached,
            avg_step_time=(total / len(records)) if records else 0.0,
            avg_recovery_fraction=float(
                np.mean([r.recovery_fraction for r in records])
            ) if records else 0.0,
            loss_curve=losses,
            time_curve=tuple(r.sim_time for r in records),
        )

    # ------------------------------------------------------------------
    # Asynchronous runs: same start → bounded quanta → summary shape as
    # the synchronous API, one master update per quantum.

    def start_updates(self, max_updates: int) -> None:
        """Begin an asynchronous run (resets the arrival pipeline)."""
        if max_updates <= 0:
            raise TrainingError(
                f"max_updates must be positive, got {max_updates}"
            )
        self.backend.start()
        self.async_records = []
        self._mode = MODE_UPDATES
        self._max_updates = max_updates

    def step_updates(self, num_updates: int = 1) -> bool:
        """Apply up to ``num_updates`` arrivals; True when the run is done.

        Each quantum pops the earliest pending gradient, applies it,
        records staleness/loss, and reschedules the worker.  The master
        version and clock are derived from :attr:`async_records`, so a
        restored engine continues exactly where the snapshot left off.
        """
        if self._mode != MODE_UPDATES:
            raise TrainingError(
                "no active asynchronous run; call start_updates() first"
            )
        if num_updates <= 0:
            raise TrainingError(
                f"num_updates must be positive, got {num_updates}"
            )
        backend = self.backend
        for _ in range(num_updates):
            if len(self.async_records) >= self._max_updates:
                return True
            master_version = len(self.async_records)
            event = backend.next_arrival()
            clock = event.time
            worker = event.worker
            losses, grads = self.streams.gradients(
                self.model, backend.worker_step[worker], partition=worker
            )
            backend.worker_step[worker] += 1
            batch_loss, grad = float(losses[0]), grads[0]
            staleness = master_version - backend.fetch_version[worker]

            self.rule.apply_arrival(self, grad)
            master_version += 1

            loss = held_out_loss(
                self.model, self.eval_data, fallback_losses=(batch_loss,)
            )
            self.async_records.append(
                AsyncUpdateRecord(
                    update_index=master_version,
                    sim_time=clock,
                    worker=worker,
                    staleness=staleness,
                    loss=loss,
                )
            )
            backend.schedule(worker, clock, version=master_version)
        return len(self.async_records) >= self._max_updates

    def finish_updates(self) -> AsyncSummary:
        """Summarise the active asynchronous run."""
        records = self.async_records
        if self._mode != MODE_UPDATES or not records:
            raise TrainingError(
                "no asynchronous updates recorded; call start_updates() "
                "and step_updates() first"
            )
        staleness_vals = [r.staleness for r in records]
        return AsyncSummary(
            num_updates=len(records),
            total_sim_time=records[-1].sim_time,
            final_loss=records[-1].loss,
            mean_staleness=float(np.mean(staleness_vals)),
            max_staleness=int(max(staleness_vals)),
            loss_curve=tuple(r.loss for r in records),
        )

    def run_updates(self, max_updates: int) -> AsyncSummary:
        """Asynchronous mode: apply each arriving gradient immediately.

        Requires an :class:`~repro.engine.backends.AsyncArrivalBackend`
        and an :class:`~repro.engine.rules.AsyncUpdate` rule.  Each
        worker loops fetch → compute → upload independently; the master
        applies every arrival, tagged with its *staleness* — how many
        master updates happened since the worker fetched.
        """
        self.start_updates(max_updates)
        self.step_updates(max_updates)
        return self.finish_updates()

    # ------------------------------------------------------------------
    # Checkpointing.

    def snapshot(self) -> EngineState:
        """Capture the active run's full mutable state.

        Valid at any round/update boundary of an active run.  The
        returned :class:`EngineState` round-trips through JSON; feeding
        it to :meth:`restore` on a *fresh* engine for the same spec
        resumes the run with bit-identical trajectories and traces.
        """
        if self._mode is None:
            raise TrainingError(
                "snapshot() requires an active run; call start_run() or "
                "start_updates() first"
            )
        if self._mode == MODE_ROUNDS:
            assert self._tracker is not None
            budget = self.max_steps
            threshold = self._tracker.threshold
            window = self._tracker.window
            losses = tuple(self._tracker.losses)
            round_index = len(self.records)
        else:
            budget = self._max_updates
            threshold = None
            window = 1
            losses = ()
            round_index = len(self.async_records)
        return EngineState(
            mode=self._mode,
            round_index=round_index,
            params=tuple(float(v) for v in self.model.get_parameters()),
            max_steps=budget,
            loss_threshold=threshold,
            smoothing_window=window,
            # Records are frozen: the state shares them by reference.
            records=tuple(self.records),
            async_records=tuple(self.async_records),
            losses=losses,
            rule=self.rule.snapshot_state(),
            backend=self.backend.snapshot_state(),
            strategy=self._strategy_state(),
            tracer_scheme=(
                self.tracer.scheme if self.tracer is not None else None
            ),
            spec_fingerprint=(
                self.plan.spec_fingerprint if self.plan is not None else None
            ),
        )

    def restore(self, state: EngineState) -> None:
        """Resume a run captured by :meth:`snapshot`.

        The engine must have been built for the same spec that produced
        the snapshot (same model/strategy/backend/rule shapes); restore
        then overwrites every piece of mutable run state, after which
        :meth:`step_rounds` / :meth:`step_updates` continue bit-for-bit.
        """
        self.model.set_parameters(np.asarray(state.params, dtype=float))
        self.records = list(state.records)
        self.async_records = list(state.async_records)
        self._mode = state.mode
        if state.mode == MODE_ROUNDS:
            tracker = LossTracker(state.loss_threshold, state.smoothing_window)
            tracker.load_losses(state.losses)
            self._tracker = tracker
            self.max_steps = state.max_steps
            self._max_updates = 0
        else:
            self._tracker = None
            self._max_updates = state.max_steps
        # Rule state may swap the strategy (adaptive migration replays
        # its recorded events), so it restores before the strategy RNG.
        self.rule.restore_state(self, state.rule)
        self._restore_strategy_state(state.strategy)
        self.backend.restore_state(self, state.backend)
        if self.tracer is not None and state.tracer_scheme is not None:
            self.tracer.set_context(scheme=state.tracer_scheme)

    def _strategy_state(self) -> dict:
        """Mutable strategy-side state: the decoder's fairness RNG."""
        decoder = getattr(self.strategy, "decoder", None)
        if decoder is None:
            return {}
        return {"decoder_rng": generator_state(decoder.rng)}

    def _restore_strategy_state(self, state) -> None:
        decoder = getattr(self.strategy, "decoder", None)
        if decoder is not None and "decoder_rng" in state:
            set_generator_state(decoder.rng, state["decoder_rng"])
