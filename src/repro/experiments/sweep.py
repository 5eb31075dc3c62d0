"""Generic parameter sweeps.

Experiment harnesses keep wanting the same thing: run a function over
the cartesian product of named parameter values and tabulate the
results.  :class:`Sweep` does exactly that, with deterministic
ordering, per-point error capture, and direct rendering into the
reporting tables.

One unified entry point: :meth:`Sweep.run` evaluates any sweep —
plain-function or :meth:`over_spec`-built — under any
:class:`~repro.parallel.SweepExecutor` (serial by default, a process
pool via ``executor=ProcessExecutor(jobs)``), returning a
:class:`SweepResult`.  Parallel results are bit-for-bit identical to
serial because points are independent and per-point seeds are spawned
in the parent (see ``docs/parallelism.md``).
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from ..analysis.reporting import Table
from ..exceptions import ConfigurationError
from ..parallel import PointTask, SerialExecutor, SweepExecutor, spawn_point_seeds


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated grid point.

    ``error`` carries the *full formatted traceback* of a failed
    point, not just ``str(exc)`` — a long sweep's one bad corner keeps
    the frame that failed, so post-mortems don't require re-running
    the grid.  Use :attr:`error_summary` for table cells and logs.
    """

    params: Dict[str, Any]
    value: Any
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True when the point evaluated without raising."""
        return self.error is None

    @property
    def error_summary(self) -> "str | None":
        """The traceback's final ``ExcType: message`` line, or ``None``."""
        if self.error is None:
            return None
        lines = [ln for ln in self.error.strip().splitlines() if ln.strip()]
        return lines[-1] if lines else self.error


class SweepResult(Sequence[SweepPoint]):
    """The unified result of one :meth:`Sweep.run`.

    Behaves as an ordered sequence of :class:`SweepPoint` (row-major
    grid order, independent of evaluation order), plus execution
    metadata: which executor ran it and the wall-clock time.  Accepted
    directly by :meth:`Sweep.to_table` / :meth:`Sweep.to_grid_table`.
    """

    def __init__(
        self,
        points: Sequence[SweepPoint],
        *,
        executor: str = "serial",
        elapsed: float = 0.0,
    ):
        self._points = list(points)
        #: short name of the executor that produced this result.
        self.executor = executor
        #: wall-clock seconds for the whole grid.
        self.elapsed = elapsed

    def __getitem__(self, index):
        return self._points[index]

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self._points)

    @property
    def points(self) -> List[SweepPoint]:
        return list(self._points)

    @property
    def ok(self) -> bool:
        """True when every point evaluated without raising."""
        return all(p.ok for p in self._points)

    @property
    def failures(self) -> List[SweepPoint]:
        return [p for p in self._points if not p.ok]

    def __repr__(self) -> str:
        failed = len(self.failures)
        return (
            f"SweepResult({len(self._points)} points, {failed} failed, "
            f"executor={self.executor!r}, elapsed={self.elapsed:.3f}s)"
        )


@dataclass
class Sweep:
    """A named cartesian-product sweep.

    ``axes`` maps parameter name → values; :meth:`run` calls
    ``fn(**params)`` for every combination in row-major order.  Errors
    from individual points are captured (as ``SweepPoint.error``), not
    raised, so one bad corner doesn't kill a long sweep — unless
    ``strict=True``.
    """

    name: str
    axes: Mapping[str, Sequence[Any]]

    def __post_init__(self) -> None:
        if not self.axes:
            raise ConfigurationError("sweep needs at least one axis")
        for axis, values in self.axes.items():
            if not values:
                raise ConfigurationError(f"axis {axis!r} has no values")

    @property
    def size(self) -> int:
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def combinations(self):
        """Yield every parameter combination in row-major order."""
        names = list(self.axes)
        for combo in itertools.product(*(self.axes[k] for k in names)):
            yield dict(zip(names, combo))

    def run(
        self,
        fn: Optional[Callable[..., Any]] = None,
        strict: bool = False,
        *,
        executor: "SweepExecutor | None" = None,
        seed: "int | None" = None,
    ) -> SweepResult:
        """Evaluate the grid — the single entry point for every sweep.

        Parameters
        ----------
        fn:
            The cell function, called as ``fn(**params)``.  Omit it for
            an :meth:`over_spec`-built sweep, whose cell is the spec
            runner.  Under a process executor ``fn`` must be picklable
            (module-level function or ``functools.partial``).
        strict:
            Abort on the first failed point.  The serial executor
            re-raises the original exception live; pool executors raise
            :class:`~repro.parallel.ExecutionError` with the point's
            full traceback.
        executor:
            A :class:`~repro.parallel.SweepExecutor`;
            default :class:`~repro.parallel.SerialExecutor`.  Pass
            ``ProcessExecutor(jobs)`` for a bit-for-bit identical
            parallel run.
        seed:
            When given, per-point ``SeedSequence`` children are spawned
            from it in the parent and each cell receives an extra
            ``rng=`` keyword argument — same streams under any executor.
        """
        if fn is None:
            base = getattr(self, "_spec_base", None)
            if base is None:
                raise ConfigurationError(
                    "run() without fn needs a sweep built with "
                    "Sweep.over_spec"
                )
            from ..engine.spec import run_spec_variation

            fn = functools.partial(run_spec_variation, base)
        if executor is None:
            executor = SerialExecutor()
        combos = list(self.combinations())
        if seed is not None:
            seeds: List[Any] = spawn_point_seeds(seed, len(combos))
        else:
            seeds = [None] * len(combos)
        tasks = [
            PointTask(index=i, params=params, seed=s)
            for i, (params, s) in enumerate(zip(combos, seeds))
        ]
        started = time.perf_counter()
        outcomes = executor.run(fn, tasks, reraise=strict)
        elapsed = time.perf_counter() - started
        points = [
            SweepPoint(
                params=combos[o.index], value=o.value, error=o.error
            )
            for o in outcomes
        ]
        return SweepResult(points, executor=executor.name, elapsed=elapsed)

    # ------------------------------------------------------------------
    def to_table(
        self,
        result: Sequence[SweepPoint],
        value_label: str = "value",
    ) -> Table:
        """Long-format table of ``result`` (the :class:`SweepResult` of
        :meth:`run`, or any sequence of points): one row per point."""
        names = list(self.axes)
        table = Table(title=self.name, columns=[*names, value_label])
        for point in result:
            cell = (
                point.value if point.ok else f"error: {point.error_summary}"
            )
            table.add_row(*(point.params[k] for k in names), cell)
        return table

    # ------------------------------------------------------------------
    @classmethod
    def over_spec(
        cls,
        name: str,
        base: Any,
        axes: Mapping[str, Sequence[Any]],
    ) -> "Sweep":
        """A sweep over :class:`~repro.engine.spec.ExperimentSpec` fields.

        ``axes`` maps spec field names to candidate values; each grid
        point is ``dataclasses.replace(base, **params)`` run through
        :func:`~repro.engine.spec.run_spec`.  This replaces the
        hand-wired build-a-trainer-per-point pattern: vary any spec
        field (``wait_for``, ``scheme``, ``delay``...) declaratively.

        Call :meth:`run` (no ``fn``) on the returned sweep to execute
        it — under any executor, since the spec cell function is
        picklable.
        """
        import dataclasses

        from ..engine.spec import ExperimentSpec

        if not isinstance(base, ExperimentSpec):
            raise ConfigurationError(
                f"over_spec needs an ExperimentSpec base, got {type(base).__name__}"
            )
        known = {f.name for f in dataclasses.fields(ExperimentSpec)}
        unknown = sorted(set(axes) - known)
        if unknown:
            raise ConfigurationError(
                f"axes are not spec fields: {', '.join(unknown)}"
            )
        sweep = cls(name=name, axes=axes)
        sweep._spec_base = base
        return sweep

    def to_grid_table(
        self,
        result: Sequence[SweepPoint],
        row_axis: str,
        col_axis: str,
    ) -> Table:
        """Wide-format table of ``result`` for exactly two axes (a
        heat-map layout)."""
        if set(self.axes) != {row_axis, col_axis}:
            raise ConfigurationError(
                f"grid layout needs exactly the axes {row_axis!r} and "
                f"{col_axis!r}; sweep has {sorted(self.axes)}"
            )
        lookup = {
            (p.params[row_axis], p.params[col_axis]):
                (p.value if p.ok else "err")
            for p in result
        }
        cols = list(self.axes[col_axis])
        table = Table(
            title=self.name,
            columns=[
                f"{row_axis} \\ {col_axis}",
                *(str(c) for c in cols),
            ],
        )
        for r in self.axes[row_axis]:
            table.add_row(r, *(lookup.get((r, c), "-") for c in cols))
        return table
