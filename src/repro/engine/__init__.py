"""The round engine: one canonical training step, pluggable everything.

Layering (see ``docs/architecture.md``)::

    experiments / CLI / examples
        │   ExperimentSpec + its closed name tables (spec.py)
        ▼
    EnginePlan (plan.py): the spec-derived half, built once
        │   .engine(): the mutable half (EngineState, state.py)
        ▼
    RoundEngine (core.py)
        │   UpdateRule hooks (rules.py)
        ▼
    ExecutionBackend (backends.py)
        │   FlatBackend (flat, actor) · AsyncArrivalBackend
        ▼
    simulation (ClusterSimulator, EventQueue)

This package is the only way to run a training loop: build a
:class:`RoundEngine` by hand or from a spec with :func:`build_engine`.
"""

from .backends import (
    AsyncArrivalBackend,
    ExecutionBackend,
    FlatBackend,
    RoundExecution,
)
from .core import RoundEngine
from .report import RunReport, build_run_report
from .state import EngineState
from .rules import (
    AdaptiveMigration,
    AsyncUpdate,
    LocalUpdate,
    MigrationEvent,
    SyncUpdate,
    UpdateRule,
)
from .spec import (
    BACKEND_REGISTRY,
    SCHEME_REGISTRY,
    ExperimentSpec,
    make_strategy,
)
from .plan import EnginePlan, build_engine, run_spec

__all__ = [
    "RoundEngine",
    "ExecutionBackend",
    "FlatBackend",
    "AsyncArrivalBackend",
    "RoundExecution",
    "UpdateRule",
    "SyncUpdate",
    "LocalUpdate",
    "AdaptiveMigration",
    "AsyncUpdate",
    "MigrationEvent",
    "ExperimentSpec",
    "EngineState",
    "RunReport",
    "build_run_report",
    "EnginePlan",
    "SCHEME_REGISTRY",
    "BACKEND_REGISTRY",
    "make_strategy",
    "build_engine",
    "run_spec",
]
