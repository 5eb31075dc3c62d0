"""Sweep executors: serial and process-pool evaluation of grid points.

Every figure in the paper is a grid of *independent* (scheme, n, c,
straggler-model, seed) points, so fan-out is embarrassingly parallel —
the only hard part is keeping it **deterministic**.  Three disciplines
make ``ProcessExecutor`` results bit-for-bit identical to serial runs:

* **seeding** — per-point generators are derived by
  ``np.random.SeedSequence.spawn`` *in the parent*, then shipped to the
  workers.  A spawned child is a pure function of (root seed, spawn
  index), so the same point gets the same stream no matter which
  process, or how many, evaluate it.  The boundary enforces this:
  :class:`PointTask` refuses a seed that is not a ``SeedSequence`` and
  a ``params`` value that is a ``Generator``, and
  :meth:`SweepExecutor.run` refuses a ``functools.partial`` that binds
  a ``Generator``.
* **ordering** — outcomes are returned sorted by point index,
  regardless of completion order.
* **isolation** — a point that raises is captured as a full formatted
  traceback on its own :class:`PointOutcome`; one bad corner never
  kills (or reorders) the rest of the grid.

Progress and timing are routed through :mod:`repro.obs`: attach a
:class:`~repro.obs.registry.MetricsRegistry` to get
``sweep.points.ok`` / ``sweep.points.failed`` counters and a
``sweep.point_seconds`` histogram, and/or pass ``on_event`` for live
per-point progress callbacks.
"""

from __future__ import annotations

import abc
import functools
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import ConfigurationError, ReproError
from ..obs.registry import MetricsRegistry, NULL_REGISTRY


class ExecutionError(ReproError):
    """A strict sweep hit a failed point (carries the point traceback)."""


@dataclass(frozen=True)
class PointTask:
    """One grid point to evaluate: parameters plus an optional spawned
    :class:`~numpy.random.SeedSequence`.  Tasks must be picklable to
    cross the pool boundary.

    Construction raises :class:`ConfigurationError` for a ``seed`` that
    is not a ``SeedSequence`` (an int such as ``seed + i`` gives
    correlated streams; use :func:`spawn_point_seeds`) and for a
    ``Generator`` among the ``params`` (a pool pickles a copy of it
    per chunk, so pooled and serial runs would draw different streams).
    """

    index: int
    params: Dict[str, Any]
    seed: Optional[np.random.SeedSequence] = None

    def __post_init__(self) -> None:
        if self.seed is not None and not isinstance(
            self.seed, np.random.SeedSequence
        ):
            raise ConfigurationError(
                f"point {self.index}: seed must be a SeedSequence spawned "
                f"in the parent (spawn_point_seeds), got "
                f"{type(self.seed).__name__}"
            )
        for key, value in self.params.items():
            if isinstance(value, np.random.Generator):
                raise ConfigurationError(
                    f"point {self.index}: params[{key!r}] is a Generator; "
                    "give the task a spawned seed and the cell gets "
                    "rng= built from it"
                )


@dataclass(frozen=True)
class PointOutcome:
    """Result of evaluating one :class:`PointTask`.

    ``error`` is the full formatted traceback of a failed point (never
    just ``str(exc)``); ``elapsed`` is the point's own wall-clock
    evaluation time in seconds.
    """

    index: int
    value: Any
    error: Optional[str] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class SweepEvent:
    """One progress notification (``kind``: start | point | finish)."""

    kind: str
    total: int
    completed: int = 0
    index: int = -1
    ok: bool = True
    elapsed: float = 0.0


ProgressCallback = Callable[[SweepEvent], None]


def evaluate_point(fn: Callable[..., Any], task: PointTask) -> PointOutcome:
    """Evaluate one task, capturing any exception as a full traceback.

    A task carrying a spawned seed has ``rng=np.random.default_rng(seed)``
    added to its keyword arguments, so the generator is constructed the
    same way whether this runs in the parent or a pool worker.
    """
    kwargs = dict(task.params)
    if task.seed is not None:
        kwargs["rng"] = np.random.default_rng(task.seed)
    start = time.perf_counter()
    try:
        value = fn(**kwargs)
    except Exception:  # noqa: BLE001 - isolation is the point
        return PointOutcome(
            index=task.index,
            value=None,
            error=traceback.format_exc(),
            elapsed=time.perf_counter() - start,
        )
    return PointOutcome(
        index=task.index, value=value, elapsed=time.perf_counter() - start
    )


def _evaluate_chunk(
    fn: Callable[..., Any], tasks: Sequence[PointTask]
) -> List[PointOutcome]:
    """Pool-worker entry point: evaluate one scheduled chunk."""
    return [evaluate_point(fn, task) for task in tasks]


class SweepExecutor(abc.ABC):
    """Strategy interface for evaluating a batch of independent points.

    Subclasses implement :meth:`_execute`; :meth:`run` wraps it with the
    shared contract — outcomes sorted by index, per-point metrics and
    progress events, optional strict re-raise.
    """

    #: short label used in tables and bench reports.
    name = "abstract"

    def __init__(
        self,
        *,
        metrics: MetricsRegistry | None = None,
        on_event: ProgressCallback | None = None,
    ):
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        self._on_event = on_event
        self._completed = 0

    @property
    def metrics(self) -> MetricsRegistry:
        """The attached metrics sink (a shared no-op by default)."""
        return self._metrics

    def attach_metrics(self, registry: MetricsRegistry) -> None:
        """Route this executor's per-point metrics into ``registry``."""
        self._metrics = registry

    # ------------------------------------------------------------------
    def run(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[PointTask],
        *,
        reraise: bool = False,
    ) -> List[PointOutcome]:
        """Evaluate every task; outcomes come back in index order.

        With ``reraise=True`` a failed point aborts the sweep: the
        serial executor re-raises the original exception live, pool
        executors raise :class:`ExecutionError` carrying the failed
        point's full traceback.

        A ``functools.partial`` ``fn`` that binds a ``Generator`` is
        refused with :class:`ConfigurationError`: a pool pickles ``fn``
        once per chunk, so every chunk would start from the same state.
        """
        if isinstance(fn, functools.partial) and any(
            isinstance(value, np.random.Generator)
            for value in (*fn.args, *fn.keywords.values())
        ):
            raise ConfigurationError(
                "fn binds a numpy Generator; seed the tasks "
                "(spawn_point_seeds) so each point builds its own"
            )
        tasks = list(tasks)
        total = len(tasks)
        self._completed = 0
        self._emit(SweepEvent(kind="start", total=total))
        outcomes = self._execute(fn, tasks, reraise=reraise)
        outcomes.sort(key=lambda o: o.index)
        if len(outcomes) != total:  # pragma: no cover - defensive
            raise ExecutionError(
                f"executor returned {len(outcomes)} outcomes for "
                f"{total} tasks"
            )
        if reraise:
            for outcome in outcomes:
                if not outcome.ok:
                    raise ExecutionError(
                        f"sweep point {outcome.index} "
                        f"({tasks[outcome.index].params!r}) failed:\n"
                        f"{outcome.error}"
                    )
        self._emit(
            SweepEvent(kind="finish", total=total, completed=total)
        )
        return outcomes

    @abc.abstractmethod
    def _execute(
        self,
        fn: Callable[..., Any],
        tasks: List[PointTask],
        *,
        reraise: bool,
    ) -> List[PointOutcome]:
        """Evaluate ``tasks`` in any order; completeness is checked by
        :meth:`run`."""

    # ------------------------------------------------------------------
    def _record(self, outcome: PointOutcome, total: int) -> None:
        """Book one finished point into metrics + progress events."""
        self._completed += 1
        metrics = self._metrics
        metrics.counter(
            "sweep.points.ok" if outcome.ok else "sweep.points.failed"
        ).inc()
        metrics.histogram("sweep.point_seconds").observe(outcome.elapsed)
        self._emit(
            SweepEvent(
                kind="point",
                total=total,
                completed=self._completed,
                index=outcome.index,
                ok=outcome.ok,
                elapsed=outcome.elapsed,
            )
        )

    def _emit(self, event: SweepEvent) -> None:
        if self._on_event is not None:
            self._on_event(event)


class SerialExecutor(SweepExecutor):
    """In-process row-major evaluation — the default, and the reference
    every parallel executor must match bit-for-bit."""

    name = "serial"

    def _execute(self, fn, tasks, *, reraise):
        outcomes: List[PointOutcome] = []
        for task in tasks:
            if reraise:
                # Strict mode keeps the pre-redesign contract: the
                # original exception propagates live, type intact.
                kwargs = dict(task.params)
                if task.seed is not None:
                    kwargs["rng"] = np.random.default_rng(task.seed)
                start = time.perf_counter()
                value = fn(**kwargs)
                outcome = PointOutcome(
                    index=task.index,
                    value=value,
                    elapsed=time.perf_counter() - start,
                )
            else:
                outcome = evaluate_point(fn, task)
            self._record(outcome, len(tasks))
            outcomes.append(outcome)
        return outcomes


class ProcessExecutor(SweepExecutor):
    """Process-pool evaluation with chunked scheduling.

    ``jobs`` is the worker count; ``chunk_size`` (default: grid split
    into ~4 chunks per worker) balances scheduling overhead against
    load-balance.  ``fn`` and every task must be picklable — module-level
    functions and ``functools.partial`` of them qualify, lambdas do not.

    Results are bit-for-bit identical to :class:`SerialExecutor` because
    nothing about a point's evaluation depends on *where* it runs: seeds
    are spawned in the parent, and each point rebuilds its own state.
    """

    name = "process"

    def __init__(
        self,
        jobs: int,
        *,
        chunk_size: Optional[int] = None,
        metrics: MetricsRegistry | None = None,
        on_event: ProgressCallback | None = None,
    ):
        super().__init__(metrics=metrics, on_event=on_event)
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self.jobs = jobs
        self.chunk_size = chunk_size

    def _chunks(self, tasks: List[PointTask]) -> List[List[PointTask]]:
        size = self.chunk_size
        if size is None:
            # ~4 chunks per worker: small enough to load-balance uneven
            # points, large enough to amortise pickling.
            size = max(1, -(-len(tasks) // (4 * self.jobs)))
        return [tasks[i:i + size] for i in range(0, len(tasks), size)]

    def _execute(self, fn, tasks, *, reraise):
        if not tasks:
            return []
        if self.jobs == 1 or len(tasks) == 1:
            # A one-worker pool would only add IPC overhead; the serial
            # path is defined to be identical anyway.
            return SerialExecutor(
                metrics=self._metrics, on_event=self._on_event
            )._execute(fn, tasks, reraise=False)
        outcomes: List[PointOutcome] = []
        chunks = self._chunks(tasks)
        total = len(tasks)
        with ProcessPoolExecutor(
            max_workers=min(self.jobs, len(chunks))
        ) as pool:
            pending = {
                pool.submit(_evaluate_chunk, fn, chunk): chunk
                for chunk in chunks
            }
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    chunk = pending.pop(future)
                    try:
                        got = future.result()
                    except Exception:  # noqa: BLE001 - infra failure
                        # Pool-level failures (unpicklable fn/result,
                        # dead worker) are pinned to every point of the
                        # chunk so the rest of the grid survives.
                        tb = traceback.format_exc()
                        got = [
                            PointOutcome(
                                index=task.index, value=None, error=tb
                            )
                            for task in chunk
                        ]
                    for outcome in got:
                        self._record(outcome, total)
                        outcomes.append(outcome)
        return outcomes


def spawn_point_seeds(
    seed: "int | np.random.SeedSequence", count: int
) -> List[np.random.SeedSequence]:
    """Spawn one child :class:`~numpy.random.SeedSequence` per point.

    The canonical seeding discipline for fan-out: children are derived
    in the parent, so point ``i`` gets the same stream under any
    executor, any job count, any scheduling order.
    """
    if count < 0:
        raise ConfigurationError(f"count must be >= 0, got {count}")
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    return root.spawn(count)
