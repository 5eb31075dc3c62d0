"""The typed per-round trace event.

One :class:`RoundTrace` captures everything the round-level layers know
about a simulated step: what the cluster simulator saw (arrivals, the
wait-policy decision, wasted compute) plus what the decoding layer adds
once the accepted set is decoded (scheme, search count, recovered
partitions).  All times follow the library-wide convention:

* ``step_start`` / ``step_end`` — **absolute** simulated seconds;
* ``arrivals`` and ``proceed_time`` — **step-relative** seconds
  (seconds since ``step_start``), matching
  :class:`~repro.simulation.policies.WaitOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from ..exceptions import ObservabilityError

#: Schema version stamped into every exported record; bump on breaking
#: changes so the loader can reject traces it cannot interpret.
TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RoundTrace:
    """One simulated round, fully described.

    Decode-side fields (``decoder_scheme``, ``num_searches``,
    ``num_recovered``, ``num_partitions``) are ``None`` for rounds the
    master never decoded (e.g. pure timing experiments).
    """

    step: int
    scheme: str
    step_start: float
    step_end: float
    #: worker → step-relative arrival time (seconds since step_start).
    arrivals: Mapping[int, float]
    accepted_workers: Tuple[int, ...]
    #: Human-readable wait-policy decision, e.g. ``"wait-for-k(k=12)"``.
    policy: str
    #: Step-relative time at which the master moved on.
    proceed_time: float
    wasted_compute: float = 0.0
    decoder_scheme: Optional[str] = None
    num_searches: Optional[int] = None
    num_recovered: Optional[int] = None
    num_partitions: Optional[int] = None
    extras: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ObservabilityError(f"step must be >= 0, got {self.step}")
        if self.step_end < self.step_start:
            raise ObservabilityError(
                f"step {self.step}: step_end {self.step_end} precedes "
                f"step_start {self.step_start}"
            )

    # ------------------------------------------------------------------
    @property
    def step_time(self) -> float:
        """Simulated duration of the round in seconds."""
        return self.step_end - self.step_start

    @property
    def num_arrived(self) -> int:
        return len(self.arrivals)

    @property
    def num_accepted(self) -> int:
        return len(self.accepted_workers)

    @property
    def recovery_fraction(self) -> Optional[float]:
        """``|I| / n`` when the round was decoded, else ``None``."""
        if self.num_recovered is None or not self.num_partitions:
            return None
        return self.num_recovered / self.num_partitions

    def with_decode(
        self,
        decoder_scheme: str,
        num_searches: int,
        num_recovered: int,
        num_partitions: int,
    ) -> "RoundTrace":
        """A copy enriched with the decode outcome for this round."""
        if num_partitions <= 0:
            raise ObservabilityError(
                f"num_partitions must be positive, got {num_partitions}"
            )
        if not 0 <= num_recovered <= num_partitions:
            raise ObservabilityError(
                f"num_recovered {num_recovered} outside "
                f"[0, {num_partitions}]"
            )
        return replace(
            self,
            decoder_scheme=decoder_scheme,
            num_searches=num_searches,
            num_recovered=num_recovered,
            num_partitions=num_partitions,
        )

    # ------------------------------------------------------------------
    # Serialisation — round-trips exactly: json floats use repr, which
    # is lossless for binary64, so re-aggregated traces reproduce live
    # statistics bit-for-bit.
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict (inverse of :meth:`from_dict`)."""
        return {
            "v": TRACE_SCHEMA_VERSION,
            "step": self.step,
            "scheme": self.scheme,
            "step_start": self.step_start,
            "step_end": self.step_end,
            # JSON object keys are strings; from_dict restores ints.
            "arrivals": {str(w): t for w, t in self.arrivals.items()},
            "accepted_workers": list(self.accepted_workers),
            "policy": self.policy,
            "proceed_time": self.proceed_time,
            "wasted_compute": self.wasted_compute,
            "decoder_scheme": self.decoder_scheme,
            "num_searches": self.num_searches,
            "num_recovered": self.num_recovered,
            "num_partitions": self.num_partitions,
            "extras": dict(self.extras),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RoundTrace":
        version = payload.get("v")
        if version != TRACE_SCHEMA_VERSION:
            raise ObservabilityError(
                f"unsupported trace schema version {version!r} "
                f"(this build reads v{TRACE_SCHEMA_VERSION})"
            )
        try:
            return cls(
                step=int(payload["step"]),
                scheme=str(payload["scheme"]),
                step_start=float(payload["step_start"]),
                step_end=float(payload["step_end"]),
                arrivals={
                    int(w): float(t)
                    for w, t in payload["arrivals"].items()
                },
                accepted_workers=tuple(
                    int(w) for w in payload["accepted_workers"]
                ),
                policy=str(payload["policy"]),
                proceed_time=float(payload["proceed_time"]),
                wasted_compute=float(payload.get("wasted_compute", 0.0)),
                decoder_scheme=payload.get("decoder_scheme"),
                num_searches=payload.get("num_searches"),
                num_recovered=payload.get("num_recovered"),
                num_partitions=payload.get("num_partitions"),
                extras=dict(payload.get("extras", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ObservabilityError(
                f"malformed trace record: {exc}"
            ) from exc
