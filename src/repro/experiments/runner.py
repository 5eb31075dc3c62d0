"""Run every experiment of EXPERIMENTS.md and print its tables.

The one way to regenerate them — ``repro experiment <group>``, or
directly::

    python -m repro.experiments.runner [<group> ...|all] [--jobs N] [--trace PATH]

where ``<group>`` is a key of :data:`EXPERIMENTS`.

``--jobs N`` fans the figure grids out over a
:class:`~repro.parallel.ProcessExecutor` with ``N`` workers — results
are bit-for-bit identical to serial runs (see ``docs/parallelism.md``).
``--trace PATH`` additionally runs the traced Fig. 11 condition and
exports its round stream as JSONL (re-load with
``repro trace summarize PATH``).
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional

from ..analysis.reporting import Table
from ..parallel import ProcessExecutor, SweepExecutor
from .config import Fig11Config, Fig12Config, Fig13Config
from .fig11 import fig11_tables, run_traced_fig11
from .fig12 import fig12_tables
from .fig13 import fig13_tables
from .extra import adaptive_policy_table, enduring_straggler_table


def _table_group(name: str) -> List[Table]:
    """Build the ``name`` group of :mod:`.tables`.  Imported here, not
    at module top: ``import repro.experiments`` is on every entry
    point's start-up path and only ``repro experiment`` needs it."""
    from .tables import GROUPS

    return [build() for build in GROUPS[name]]


EXPERIMENTS: Dict[str, Callable[..., List[Table]]] = {
    "fig11": lambda executor=None: fig11_tables(
        Fig11Config(), executor=executor
    ),
    "fig12": lambda executor=None: fig12_tables(
        Fig12Config(), executor=executor
    ),
    "fig13": lambda executor=None: fig13_tables(
        Fig13Config(), executor=executor
    ),
    # The extra tables are cheap single-condition runs; no grid to fan out.
    "extra": lambda executor=None: [
        enduring_straggler_table(), adaptive_policy_table()
    ],
    "ablations": lambda executor=None: _table_group("ablations"),
    "theory": lambda executor=None: _table_group("theory"),
    "extensions": lambda executor=None: _table_group("extensions"),
}


def executor_for_jobs(jobs: Optional[int]) -> "SweepExecutor | None":
    """``--jobs`` semantics shared by the runner and the CLI: ``None``
    or ``1`` means the default serial path, more means a process pool."""
    if jobs is None or jobs <= 1:
        return None
    return ProcessExecutor(jobs)


def run(name: str, jobs: Optional[int] = None) -> List[Table]:
    """Run one experiment by id and return its tables."""
    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[name](executor=executor_for_jobs(jobs))


def run_all(jobs: Optional[int] = None) -> Dict[str, List[Table]]:
    """Run the whole evaluation section."""
    return {name: run(name, jobs=jobs) for name in EXPERIMENTS}


def export_trace(path: str, cfg: Fig11Config | None = None) -> int:
    """Run the traced Fig. 11 condition and export JSONL to ``path``.

    Returns the number of round records written.
    """
    _, tracer = run_traced_fig11(cfg or Fig11Config(), out_path=path)
    return len(tracer)


def main(argv: List[str] | None = None) -> None:  # pragma: no cover - CLI
    """Run the experiments named in ``argv`` (default: all)."""
    argv = list(argv) if argv is not None else sys.argv[1:]
    trace_path: str | None = None
    jobs: int | None = None
    if "--trace" in argv:
        idx = argv.index("--trace")
        try:
            trace_path = argv[idx + 1]
        except IndexError:
            raise SystemExit("--trace requires a file path") from None
        del argv[idx : idx + 2]
    if "--jobs" in argv:
        idx = argv.index("--jobs")
        try:
            jobs = int(argv[idx + 1])
        except (IndexError, ValueError):
            raise SystemExit("--jobs requires an integer") from None
        del argv[idx : idx + 2]
    targets = argv or ["all"]
    names = sorted(EXPERIMENTS) if "all" in targets else targets
    for name in names:
        for table in run(name, jobs=jobs):
            table.show()
    if trace_path is not None:
        count = export_trace(trace_path)
        print(f"exported {count} round traces to {trace_path}")


if __name__ == "__main__":  # pragma: no cover
    main()
