"""Finding and severity types shared by every static-analysis rule.

A :class:`Finding` is one concrete violation at one source location;
the rule engine collects them across files, applies ``# repro:
noqa[RULE]`` suppressions, and hands the survivors to the reporters in
:mod:`repro.staticcheck.report`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict


class Severity(str, enum.Enum):
    """How seriously a finding should be taken.

    ``ERROR`` findings are invariant violations (the check gate fails);
    ``WARNING`` findings are strong hints that deserve a look but may
    have sanctioned exceptions.  Both fail ``repro check`` — the split
    exists so reports and downstream tooling can prioritise.
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one location.

    Field order is the sort order: findings render grouped by file,
    then by position, then by rule id.
    """

    path: str
    line: int
    col: int
    rule: str
    severity: Severity
    message: str

    def format(self) -> str:
        """Render as the conventional ``path:line:col: RULE message``."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity.value}] {self.message}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping (the schema ``repro check --format json`` emits)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
        }
