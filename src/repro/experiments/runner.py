"""The experiments of EXPERIMENTS.md: group name → tables.

The one way to regenerate them is ``repro experiment <group>|all``,
where ``<group>`` is a key of :data:`EXPERIMENTS`.  ``--jobs N`` fans
the figure grids out over a :class:`~repro.parallel.ProcessExecutor`
with ``N`` workers — results are bit-for-bit identical to serial runs
(see ``docs/parallelism.md``).  The traced Fig. 11 condition's round
stream is exported by ``repro trace record``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..analysis.reporting import Table
from ..parallel import ProcessExecutor, SweepExecutor
from .config import Fig11Config, Fig12Config, Fig13Config
from .fig11 import fig11_tables
from .fig12 import fig12_tables
from .fig13 import fig13_tables
from .extra import enduring_straggler_table


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
    # The extra table is a cheap Monte-Carlo study; no grid to fan out.
    "extra": lambda executor=None: [enduring_straggler_table()],
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

