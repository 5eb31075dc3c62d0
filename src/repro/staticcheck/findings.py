"""The finding type shared by every static-analysis rule.

A :class:`Finding` is one concrete violation at one source location;
the rule engine collects them across files, applies ``# repro:
noqa[RULE]`` suppressions, and hands the survivors to the reporters in
:mod:`repro.staticcheck.report`.  Every finding is an error: any one
fails ``repro check``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


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
    message: str

    def format(self) -> str:
        """Render as the conventional ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping (the schema ``repro check --format json`` emits)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }
