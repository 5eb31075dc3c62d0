"""One job's engine, steppable round by round: :class:`JobRunner`.

:meth:`RoundEngine.run` owns the canonical training loop (step →
loss-tracker → early stop).  Interleaving many jobs means suspending
that loop between rounds, so the runner drives the engine through its
resumable API — :meth:`~repro.engine.RoundEngine.start_run` once, then
one :meth:`~repro.engine.RoundEngine.step_rounds` quantum per
``step()`` call, then :meth:`~repro.engine.RoundEngine.finish_run` —
which is *exactly* the same step sequence and stopping rule, so
``JobRunner`` run to completion produces, bit for bit, the
:class:`~repro.types.TrainingSummary` of ``engine.run(...)`` on the
same spec.  The determinism tests pin this equivalence, which is what
makes the coordinator's interleaving invisible — N interleaved jobs
produce the same results as N sequential ``repro run`` invocations.

Jobs under the ``async`` update rule step in fixed quanta of
:data:`ASYNC_QUANTUM` master updates, so they are preemptible and
checkpointable like synchronous jobs (the engine derives its master
version and clock from the recorded updates, making the cut points
invisible to the trajectory).

Checkpointing: :meth:`JobRunner.checkpoint` captures the engine's
:class:`~repro.engine.EngineState` at the current round boundary;
constructing a runner with ``checkpoint=`` takes a fresh engine,
restores that state, rewinds the trace stream to the checkpointed
round count, and continues — bit-identically to a run that was never
interrupted.  This is how the :class:`~repro.serve.pool.WorkerPool`
parks evicted jobs and how a restarted coordinator resumes RUNNING
jobs after a crash.  With ``plan=`` (the previous runner's
:attr:`JobRunner.plan`) the new engine is mutable state only; without,
``build_engine(spec)`` derives the plan first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..engine.report import RunReport, build_run_report
from ..engine.spec import build_engine
from ..exceptions import ServeError
from ..obs import RoundTracer, TraceStreamWriter, truncate_traces

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.plan import EnginePlan
    from ..engine.state import EngineState
    from ..engine.spec import ExperimentSpec
    from ..types import StepRecord

#: master updates per quantum for ``async``-rule jobs: large enough to
#: amortise the scheduling overhead, small enough to preempt promptly.
ASYNC_QUANTUM = 32


class JobRunner:
    """Builds a spec's engine and exposes a one-quantum ``step()`` API.

    Parameters
    ----------
    spec:
        The job's experiment description; the engine and its RNG
        streams are private to this runner, so interleaved runners
        cannot perturb each other.
    trace_path:
        When given, a :class:`~repro.obs.TraceStreamWriter` streams the
        job's round trace there — one JSONL line per round, flushed as
        the round completes.
    checkpoint:
        An :class:`~repro.engine.EngineState` from a previous runner's
        :meth:`checkpoint`; the new engine restores it and the trace
        file is rewound to the checkpointed round count before
        streaming resumes (another spec's state: ``TrainingError``).
    plan:
        ``spec``'s :class:`~repro.engine.plan.EnginePlan` (a previous
        runner's :attr:`plan`), to save deriving it again.
    """

    def __init__(
        self,
        spec: "ExperimentSpec",
        trace_path: Optional[str] = None,
        trace_context: Optional[str] = None,
        checkpoint: "EngineState | None" = None,
        plan: "EnginePlan | None" = None,
    ):
        self.spec = spec
        self.tracer: RoundTracer | None = None
        self._stream: TraceStreamWriter | None = None
        self._streamed = 0
        resumed_rounds = checkpoint.round_index if checkpoint is not None else 0
        if trace_path is not None:
            if spec.rule == "async":
                raise ServeError(
                    "async-rule jobs have no round trace to stream; "
                    "submit without a trace path"
                )
            self.tracer = RoundTracer(
                scheme=trace_context if trace_context is not None
                else spec.name
            )
            if checkpoint is not None:
                # Drop any rounds streamed after the snapshot was cut,
                # then continue in place: the resumed file is
                # line-for-line the uninterrupted stream.
                truncate_traces(trace_path, resumed_rounds)
            self._stream = TraceStreamWriter(
                trace_path, append=checkpoint is not None
            )
        self.engine = (
            build_engine(spec, tracer=self.tracer) if plan is None
            else plan.engine(self.tracer)
        )
        self.plan: "EnginePlan" = self.engine.plan
        self._finished = False
        self._summary = None
        if spec.rule == "async":
            self.engine.start_updates(spec.max_steps)
        else:
            self.engine.start_run(
                spec.max_steps,
                loss_threshold=spec.loss_threshold,
                smoothing_window=spec.smoothing_window,
            )
        if checkpoint is not None:
            self.plan.restore(self.engine, checkpoint)

    # ------------------------------------------------------------------
    @property
    def rounds_done(self) -> int:
        if self.spec.rule == "async":
            return len(self.engine.async_records)
        return len(self.engine.records)

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def last_record(self) -> "StepRecord | None":
        return self.engine.records[-1] if self.engine.records else None

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run one quantum; returns ``True`` when the job just finished.

        For synchronous rules a quantum is one engine round; for the
        ``async`` rule it is :data:`ASYNC_QUANTUM` master updates.
        """
        if self._finished:
            raise ServeError("job already finished; step() after end")
        if self.spec.rule == "async":
            if self.engine.step_updates(ASYNC_QUANTUM):
                self._summary = self.engine.finish_updates()
                self._finished = True
            return self._finished
        done = self.engine.step_rounds(1)
        self._stream_new_traces()
        if done:
            self._summary = self.engine.finish_run()
            self._finished = True
            self._close_stream()
        return self._finished

    def checkpoint(self) -> "EngineState":
        """The engine's full mutable state at this round boundary.

        JSON-round-trippable; handing it to a new ``JobRunner`` for the
        same spec (``checkpoint=``) resumes the job bit-identically.
        """
        if self._finished:
            raise ServeError(
                "job already finished; nothing left to checkpoint"
            )
        return self.engine.snapshot()

    def _stream_new_traces(self) -> None:
        """Flush traces recorded since the last round to the stream."""
        if self._stream is None or self.tracer is None:
            return
        traces = self.tracer.traces
        for trace in traces[self._streamed:]:
            self._stream.append(trace)
        self._streamed = len(traces)

    def _close_stream(self) -> None:
        if self._stream is not None:
            self._stream_new_traces()
            self._stream.close()

    def abort(self) -> None:
        """Stop without a summary (cancellation); closes the stream."""
        self._finished = True
        self._close_stream()

    def release(self) -> None:
        """Close the trace stream without finishing (pool eviction).

        The stream reopens in append mode when the job is resumed from
        its checkpoint; the job itself stays live.
        """
        if self._stream is not None:
            self._stream_new_traces()
            self._stream.close()

    # ------------------------------------------------------------------
    def report(self) -> RunReport:
        """The finished job's result payload."""
        if self._summary is None:
            raise ServeError("job has no result yet; step() to completion")
        return build_run_report(
            self._summary,
            spec=self.spec,
            trace_path=(
                str(self._stream.path) if self._stream is not None else None
            ),
        )
