"""Checkpointable run state: :class:`EngineState`.

A running :class:`~repro.engine.core.RoundEngine` is a first-class,
suspendable value: ``engine.snapshot()`` captures *every* piece of
mutable run state — model parameters, optimizer/update-rule state, RNG
generator states, the loss tracker, the committed records and the
backend's clock/queue — as an :class:`EngineState` that round-trips
through JSON losslessly (floats serialise via ``repr``, which is exact
for binary64; generator states are integer dicts).  ``restore()`` on a
freshly built engine for the same spec resumes the run bit-for-bit:
``snapshot → restore → continue`` produces the identical trajectory
*and* identical JSONL traces as the uninterrupted run.

A snapshot costs the same whatever the run's length: the committed
records are frozen, so the state holds the engine's own record objects
by reference and turns them into dicts only in :meth:`EngineState.to_dict`.
For stores that persist a run round by round (the serve mailbox),
:meth:`EngineState.without_history` / :meth:`~EngineState.history` /
:meth:`~EngineState.with_history` split a state into a small head plus
one dict per record and put it back together.

Component state rides on the objects that own it: update rules,
backends, delay models and optimizers each expose
``snapshot_state()``/``restore_state()`` hooks (default: stateless),
so a new stateful component only has to extend its own hook — the
engine-level assembly here never changes.  This is the *state* half of
an engine; the rest is its frozen, read-only
:class:`~repro.engine.plan.EnginePlan`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import TrainingError
from ..types import AsyncUpdateRecord, StepRecord

#: Bumped whenever the serialised layout changes incompatibly; a state
#: of any other version is refused, never converted.
STATE_VERSION = 3

#: Snapshot modes: synchronous rounds vs. asynchronous updates.
MODE_ROUNDS = "rounds"
MODE_UPDATES = "updates"


# ----------------------------------------------------------------------
# RNG helpers — PCG64 (and friends) expose a JSON-safe state dict of
# plain ints/strings through ``bit_generator.state``.  The getter builds
# a fresh nested dict on every call and the setter copies the values
# into the generator without keeping the dict, so neither side needs a
# defensive copy.

def generator_state(rng: np.random.Generator) -> Dict[str, Any]:
    """The generator's full internal state as a JSON-safe dict."""
    return rng.bit_generator.state


def set_generator_state(rng: np.random.Generator, state: Mapping) -> None:
    """Restore a state captured by :func:`generator_state`."""
    rng.bit_generator.state = dict(state)


# ----------------------------------------------------------------------
# Record (de)serialisation.

# Records are flat frozen dataclasses of scalars (plus ``extras``, a
# str → float mapping), so a shallow field dict serialises to the same
# JSON as ``dataclasses.asdict`` without its per-field deep copy.
_STEP_FIELDS = tuple(f.name for f in fields(StepRecord))
_ASYNC_FIELDS = tuple(f.name for f in fields(AsyncUpdateRecord))


def record_to_dict(record: StepRecord) -> Dict[str, Any]:
    """A :class:`StepRecord` as a JSON-safe dict (extras included)."""
    payload = {name: getattr(record, name) for name in _STEP_FIELDS}
    payload["extras"] = dict(record.extras)
    return payload


def record_from_dict(payload: Mapping[str, Any]) -> StepRecord:
    """Inverse of :func:`record_to_dict`."""
    data = dict(payload)
    data["extras"] = dict(data.get("extras", {}))
    return StepRecord(**data)


def async_record_to_dict(record: AsyncUpdateRecord) -> Dict[str, Any]:
    """An :class:`AsyncUpdateRecord` as a JSON-safe dict."""
    return {name: getattr(record, name) for name in _ASYNC_FIELDS}


def async_record_from_dict(payload: Mapping[str, Any]) -> AsyncUpdateRecord:
    """Inverse of :func:`async_record_to_dict`."""
    return AsyncUpdateRecord(**payload)


# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EngineState:
    """Everything a :class:`RoundEngine` run mutates, JSON-serialisable.

    ``mode`` distinguishes synchronous-round runs (``"rounds"``) from
    asynchronous-update runs (``"updates"``); ``max_steps`` is the
    corresponding budget (steps or updates).  ``rule`` / ``backend`` /
    ``strategy`` carry the component ``snapshot_state()`` payloads.
    ``records`` / ``async_records`` hold the engine's frozen record
    objects by reference — a snapshot never copies the run's history —
    and become dicts only in :meth:`to_dict`.  ``spec_fingerprint`` is
    the :meth:`~repro.engine.spec.ExperimentSpec.fingerprint` of the
    spec whose plan built the engine (``None`` for a hand-wired
    engine); :meth:`~repro.engine.plan.EnginePlan.restore` refuses a
    state whose fingerprint is not its own spec's.
    """

    mode: str
    round_index: int
    params: Tuple[float, ...]
    max_steps: int
    loss_threshold: Optional[float]
    smoothing_window: int
    records: Tuple[StepRecord, ...] = ()
    async_records: Tuple[AsyncUpdateRecord, ...] = ()
    losses: Tuple[float, ...] = ()
    rule: Mapping[str, Any] = field(default_factory=dict)
    backend: Mapping[str, Any] = field(default_factory=dict)
    strategy: Mapping[str, Any] = field(default_factory=dict)
    tracer_scheme: Optional[str] = None
    spec_fingerprint: Optional[str] = None
    version: int = STATE_VERSION

    def __post_init__(self) -> None:
        if self.mode not in (MODE_ROUNDS, MODE_UPDATES):
            raise TrainingError(
                f"unknown engine-state mode {self.mode!r} "
                f"(expected {MODE_ROUNDS!r} or {MODE_UPDATES!r})"
            )
        if self.round_index < 0:
            raise TrainingError(
                f"round_index must be >= 0, got {self.round_index}"
            )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form; ``json.dumps``-able as-is."""
        return {
            "version": self.version,
            "mode": self.mode,
            "round_index": self.round_index,
            "params": list(self.params),
            "max_steps": self.max_steps,
            "loss_threshold": self.loss_threshold,
            "smoothing_window": self.smoothing_window,
            "records": [record_to_dict(r) for r in self.records],
            "async_records": [
                async_record_to_dict(r) for r in self.async_records
            ],
            "losses": list(self.losses),
            "rule": dict(self.rule),
            "backend": dict(self.backend),
            "strategy": dict(self.strategy),
            "tracer_scheme": self.tracer_scheme,
            "spec_fingerprint": self.spec_fingerprint,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EngineState":
        """Inverse of :meth:`to_dict`; validates the layout version."""
        if not isinstance(payload, Mapping):
            raise TrainingError(
                f"engine state must be a mapping, got {type(payload).__name__}"
            )
        version = payload.get("version")
        if version != STATE_VERSION:
            raise TrainingError(
                f"engine state version {version!r} is not supported "
                f"(this build reads version {STATE_VERSION})"
            )
        try:
            return cls(
                mode=payload["mode"],
                round_index=int(payload["round_index"]),
                params=tuple(float(v) for v in payload["params"]),
                max_steps=int(payload["max_steps"]),
                loss_threshold=payload.get("loss_threshold"),
                smoothing_window=int(payload.get("smoothing_window", 1)),
                records=tuple(
                    record_from_dict(r) for r in payload.get("records", ())
                ),
                async_records=tuple(
                    async_record_from_dict(r)
                    for r in payload.get("async_records", ())
                ),
                losses=tuple(float(v) for v in payload.get("losses", ())),
                rule=dict(payload.get("rule", {})),
                backend=dict(payload.get("backend", {})),
                strategy=dict(payload.get("strategy", {})),
                tracer_scheme=payload.get("tracer_scheme"),
                spec_fingerprint=payload.get("spec_fingerprint"),
                version=version,
            )
        except KeyError as exc:
            raise TrainingError(f"engine state is missing field {exc}")
        except (TypeError, ValueError) as exc:
            raise TrainingError(f"engine state is malformed: {exc}")

    def to_json(self) -> str:
        """Lossless JSON text (floats via ``repr``)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EngineState":
        """Inverse of :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TrainingError(f"engine state is not valid JSON: {exc}")
        return cls.from_dict(payload)

    # ------------------------------------------------------------------
    @property
    def step_records(self) -> List[StepRecord]:
        """The committed synchronous records as :class:`StepRecord`."""
        return list(self.records)

    @property
    def update_records(self) -> List[AsyncUpdateRecord]:
        """The committed async records as :class:`AsyncUpdateRecord`."""
        return list(self.async_records)

    # ------------------------------------------------------------------
    # Incremental persistence: the state minus everything that grows
    # with the run, and that history one JSON-safe dict per record.
    # ``round_index`` counts the active mode's records, so a stored
    # state without history knows how many logged records lead to it.

    def without_history(self) -> "EngineState":
        """This state with its records and loss curve emptied.

        A rounds-mode run tracks exactly its records' ``loss`` column,
        which is how :meth:`with_history` puts the curve back.
        """
        if self.mode == MODE_ROUNDS and len(self.losses) != len(self.records):
            raise TrainingError(
                f"engine state tracks {len(self.losses)} losses for "
                f"{len(self.records)} records; its history cannot be split"
            )
        return replace(self, records=(), async_records=(), losses=())

    def history(self, start: int = 0) -> List[Dict[str, Any]]:
        """The active mode's records from index ``start`` on, as dicts."""
        if self.mode == MODE_ROUNDS:
            return [record_to_dict(r) for r in self.records[start:]]
        return [async_record_to_dict(r) for r in self.async_records[start:]]

    def with_history(
        self, payloads: Sequence[Mapping[str, Any]]
    ) -> "EngineState":
        """Inverse of :meth:`without_history` + :meth:`history`."""
        try:
            if self.mode == MODE_ROUNDS:
                records = tuple(map(record_from_dict, payloads))
                return replace(
                    self,
                    records=records,
                    losses=tuple(float(r.loss) for r in records),
                )
            return replace(
                self,
                async_records=tuple(map(async_record_from_dict, payloads)),
            )
        except (TypeError, ValueError) as exc:
            raise TrainingError(f"engine state record is malformed: {exc}")
