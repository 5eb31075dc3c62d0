"""Delay traces: record once, replay across schemes.

For apples-to-apples scheme comparisons (Fig. 11/12) every scheme must
face the *same* straggler realisations.  A :class:`DelayTrace` freezes a
delay model into a ``(steps × workers)`` table that replays
deterministically; it also serialises to/from plain dicts for storage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

import numpy as np

from ..exceptions import ConfigurationError, SimulationError
from .models import DelayModel


@dataclass(frozen=True)
class DelayTrace:
    """A frozen table of per-(step, worker) delays."""

    delays: np.ndarray  # shape (num_steps, num_workers)

    def __post_init__(self) -> None:
        arr = np.asarray(self.delays, dtype=float)
        if arr.ndim != 2:
            raise ConfigurationError(
                f"trace must be 2-D (steps × workers), got shape {arr.shape}"
            )
        if (arr < 0).any():
            raise ConfigurationError("trace contains negative delays")
        object.__setattr__(self, "delays", arr)

    @property
    def num_steps(self) -> int:
        return self.delays.shape[0]

    @property
    def num_workers(self) -> int:
        return self.delays.shape[1]

    def delay(self, worker: int, step: int) -> float:
        """Delay for ``worker`` at ``step``; steps wrap modulo the trace
        length so a short recorded trace can drive a long training run."""
        if not 0 <= worker < self.num_workers:
            raise SimulationError(
                f"worker {worker} outside trace width {self.num_workers}"
            )
        return float(self.delays[step % self.num_steps, worker])

    # ------------------------------------------------------------------
    # Construction / serialisation
    # ------------------------------------------------------------------
    @classmethod
    def record(
        cls,
        model: DelayModel,
        num_workers: int,
        num_steps: int,
        rng: np.random.Generator,
    ) -> "DelayTrace":
        """Sample ``model`` into a frozen trace."""
        if num_workers <= 0 or num_steps <= 0:
            raise ConfigurationError(
                f"need positive dimensions, got {num_steps} × {num_workers}"
            )
        table = np.zeros((num_steps, num_workers))
        workers = range(num_workers)
        for step in range(num_steps):
            # sample_round's contract (RNG consumed exactly as the scalar
            # loop would) keeps recorded traces bit-identical to the
            # historical per-worker recording while vectorizing the draw.
            table[step] = model.sample_round(workers, step, rng)
        return cls(table)

    def to_dict(self) -> Dict[str, List[List[float]]]:
        """A JSON-ready dict (inverse of :meth:`from_dict`)."""
        return {"delays": self.delays.tolist()}

    @classmethod
    def from_dict(cls, payload: Mapping[str, List[List[float]]]) -> "DelayTrace":
        if "delays" not in payload:
            raise ConfigurationError("trace dict missing 'delays' key")
        return cls(np.asarray(payload["delays"], dtype=float))

    def save(self, path: str | Path) -> None:
        """Write the trace as JSON (inverse of :meth:`load`)."""
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "DelayTrace":
        """Read a JSON trace written by :meth:`save`."""
        file = Path(path)
        if not file.exists():
            raise ConfigurationError(f"trace file not found: {file}")
        try:
            payload = json.loads(file.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"trace file {file} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"trace file {file} must hold a mapping with a 'delays' key"
            )
        return cls.from_dict(payload)


class TraceReplayModel(DelayModel):
    """Adapter: replay a :class:`DelayTrace` through the DelayModel API."""

    def __init__(self, trace: DelayTrace):
        self._trace = trace

    @property
    def trace(self) -> DelayTrace:
        return self._trace

    def sample(self, worker: int, step: int, rng: np.random.Generator) -> float:
        # rng intentionally unused: replay is deterministic.
        return self._trace.delay(worker, step)

    def sample_round(
        self, workers: Sequence[int], step: int, rng: np.random.Generator
    ) -> np.ndarray:
        ordered = list(workers)
        for worker in ordered:
            if not 0 <= worker < self._trace.num_workers:
                raise SimulationError(
                    f"worker {worker} outside trace width "
                    f"{self._trace.num_workers}"
                )
        if not ordered:
            return np.zeros(0)
        row = step % self._trace.num_steps
        # ``DelayTrace`` stores float64 and fancy indexing copies, so no
        # ``astype`` is needed.
        return self._trace.delays[row, ordered]
