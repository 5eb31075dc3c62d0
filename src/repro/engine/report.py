"""Structured run results: :class:`RunReport`.

Every way of running an experiment — ``repro run``, ``repro simulate``,
``repro experiment``, or a job through the :mod:`repro.serve`
coordinator — historically ended in ad-hoc prints and an exit code.
A :class:`RunReport` is the shared, serialisable result payload behind
all of them: what ran (name, scheme, backend, rule, the spec's content
fingerprint), where its round trace went (``trace_path``), and how it
ended (steps, simulated time, final metrics, full loss/time curves).

Reports round-trip through JSON losslessly (floats serialise via
``repr``, which preserves binary64 exactly), so a coordinator can hand
a job's report across the file-mailbox boundary and the client sees
bit-for-bit the same trajectory the engine produced.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Mapping, Optional, Tuple, Union,
)

from ..types import AsyncSummary, TrainingSummary
from .spec import ExperimentSpec, _runs_on


@dataclass(frozen=True)
class RunReport:
    """The structured outcome of one experiment run.

    ``kind`` is ``"train"`` for synchronous round-based runs,
    ``"async"`` for per-arrival asynchronous runs and ``"experiment"``
    for paper-figure invocations (which aggregate many runs and carry
    only identity + trace fields).  ``spec_fingerprint`` is
    :meth:`ExperimentSpec.fingerprint` when the summary is wrapped
    with its spec, else ``None``.
    """

    name: str
    kind: str = "train"
    scheme: str = ""
    backend: str = ""
    rule: str = ""
    spec_fingerprint: Optional[str] = None
    trace_path: Optional[str] = None
    num_steps: int = 0
    total_sim_time: float = 0.0
    final_loss: float = math.nan
    reached_threshold: Optional[bool] = None
    metrics: Mapping[str, float] = field(default_factory=dict)
    loss_curve: Tuple[float, ...] = ()
    time_curve: Tuple[float, ...] = ()

    # ------------------------------------------------------------------
    @classmethod
    def from_summary(
        cls,
        summary: Union[TrainingSummary, AsyncSummary],
        *,
        name: Optional[str] = None,
        spec: "ExperimentSpec | None" = None,
        trace_path: Optional[str] = None,
    ) -> "RunReport":
        """Wrap an engine summary (sync or async) as a report.

        ``spec`` supplies identity fields (name, scheme, backend, rule,
        fingerprint) when the run was spec-built; ``name`` overrides
        the report name (defaults to the spec name, else the summary's
        scheme label).
        """
        scheme = backend = rule = ""
        fingerprint = None
        if spec is not None:
            scheme = spec.scheme
            backend = _runs_on(spec)
            rule = spec.rule
            fingerprint = spec.fingerprint()
            if name is None:
                name = spec.name
        if isinstance(summary, AsyncSummary):
            return cls(
                name=name if name is not None else "async-sgd",
                kind="async",
                scheme=scheme,
                backend=backend,
                rule=rule,
                spec_fingerprint=fingerprint,
                trace_path=trace_path,
                num_steps=summary.num_updates,
                total_sim_time=summary.total_sim_time,
                final_loss=summary.final_loss,
                reached_threshold=None,
                metrics={
                    "mean_staleness": summary.mean_staleness,
                    "max_staleness": float(summary.max_staleness),
                },
                loss_curve=tuple(summary.loss_curve),
            )
        return cls(
            name=name if name is not None else summary.scheme,
            kind="train",
            scheme=scheme if scheme else summary.scheme,
            backend=backend,
            rule=rule,
            spec_fingerprint=fingerprint,
            trace_path=trace_path,
            num_steps=summary.num_steps,
            total_sim_time=summary.total_sim_time,
            final_loss=summary.final_loss,
            reached_threshold=summary.reached_threshold,
            metrics={
                "avg_step_time": summary.avg_step_time,
                "avg_recovery_fraction": summary.avg_recovery_fraction,
            },
            loss_curve=tuple(summary.loss_curve),
            time_curve=tuple(summary.time_curve),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-ready dict (the inverse of :meth:`from_dict`)."""
        payload = dataclasses.asdict(self)
        payload["metrics"] = dict(self.metrics)
        payload["loss_curve"] = list(self.loss_curve)
        payload["time_curve"] = list(self.time_curve)
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output."""
        known = {f.name for f in dataclasses.fields(cls)}
        payload = {k: v for k, v in data.items() if k in known}
        payload["metrics"] = dict(payload.get("metrics") or {})
        payload["loss_curve"] = tuple(payload.get("loss_curve") or ())
        payload["time_curve"] = tuple(payload.get("time_curve") or ())
        return cls(**payload)

    def to_json(self) -> str:
        """The report as a JSON document (losslessly round-trippable)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    def write(self, path: "str | pathlib.Path") -> None:
        """Persist the report as a JSON document (newline-terminated)."""
        pathlib.Path(path).write_text(self.to_json() + "\n")

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line human-readable summary of the run."""
        if self.kind == "async":
            noun = "updates"
        elif self.kind == "experiment":
            noun = "figures"
        else:
            noun = "steps"
        parts = [f"{self.name}: {self.num_steps} {noun}"]
        if self.total_sim_time:
            parts.append(f"{self.total_sim_time:.2f}s simulated")
        if not math.isnan(self.final_loss):
            parts.append(f"final loss {self.final_loss:.4f}")
        if self.trace_path:
            parts.append(f"trace {self.trace_path}")
        return ", ".join(parts)


def build_run_report(
    summary: Union[TrainingSummary, AsyncSummary],
    *,
    spec: "ExperimentSpec | None" = None,
    name: Optional[str] = None,
    trace_path: Optional[str] = None,
    report_path: "str | pathlib.Path | None" = None,
) -> RunReport:
    """Assemble (and optionally persist) the canonical run report.

    The single report-building path behind ``repro run``,
    ``repro simulate`` and the serve runner — every consumer wraps its
    engine summary here, so a spec run, an ad-hoc simulation and a
    coordinator job all report through byte-identical payloads.  When
    ``report_path`` is given the JSON document is written there too
    (the CLI's ``--report`` flag).
    """
    report = RunReport.from_summary(
        summary, name=name, spec=spec, trace_path=trace_path
    )
    if report_path is not None:
        report.write(report_path)
    return report
