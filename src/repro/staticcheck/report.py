"""Reporters for ``repro check``: text, JSON, and the rule catalogue.

The JSON document is versioned and stable — CI annotators and editor
integrations parse it::

    {
      "version": 2,
      "checked_files": 188,
      "findings": [{"path", "line", "col", "rule", "severity",
                    "message"}, ...],
      "summary": {"total": 2, "by_rule": {"DET001": 2},
                  "by_severity": {"error": 2}},
      "timing": {"total_seconds", "files": {...}, "rules": {...}},
      "project_modules": 140
    }
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, Sequence

from .engine import RULE_REGISTRY, CheckResult
from .findings import Finding

#: Bump when the JSON structure changes incompatibly.
JSON_SCHEMA_VERSION = 2


def render_text(result: CheckResult) -> str:
    """Human-readable report, one line per finding plus a summary."""
    lines = [f.format() for f in result.findings]
    if result.findings:
        by_rule = Counter(f.rule for f in result.findings)
        breakdown = ", ".join(
            f"{rule} x{count}" for rule, count in sorted(by_rule.items())
        )
        lines.append(
            f"\n{len(result.findings)} finding"
            f"{'s' if len(result.findings) != 1 else ''} "
            f"({breakdown}) in {result.num_files} files"
        )
    else:
        lines.append(f"{result.num_files} files checked, no findings")
    return "\n".join(lines)


def to_json_dict(result: CheckResult) -> Dict[str, Any]:
    """The JSON-ready mapping (see the module docstring for the schema)."""
    return {
        "version": JSON_SCHEMA_VERSION,
        "checked_files": result.num_files,
        "findings": [f.to_dict() for f in result.findings],
        "summary": {
            "total": len(result.findings),
            "by_rule": dict(
                sorted(Counter(f.rule for f in result.findings).items())
            ),
            "by_severity": dict(
                sorted(
                    Counter(
                        f.severity.value for f in result.findings
                    ).items()
                )
            ),
        },
        "timing": {
            "total_seconds": round(result.total_seconds, 6),
            "files": {
                path: round(seconds, 6)
                for path, seconds in sorted(result.file_seconds.items())
            },
            "rules": {
                rule: round(seconds, 6)
                for rule, seconds in sorted(result.rule_seconds.items())
            },
        },
        "project_modules": result.project_modules,
    }


def render_json(result: CheckResult) -> str:
    """The JSON report as a string (``repro check --format json``)."""
    return json.dumps(to_json_dict(result), indent=2, sort_keys=False)


def render_stats(result: CheckResult, top: int = 10) -> str:
    """The ``--stats`` block: slowest rules and files."""
    lines = [
        f"total: {result.total_seconds:.3f}s over "
        f"{result.num_files} files"
        + (
            f", {result.project_modules} indexed modules"
            if result.project_modules else ""
        )
    ]
    slowest_rules = sorted(
        result.rule_seconds.items(), key=lambda kv: -kv[1]
    )[:top]
    if slowest_rules:
        lines.append("slowest rules:")
        lines.extend(
            f"  {rule:<10} {seconds * 1000:8.1f} ms"
            for rule, seconds in slowest_rules
        )
    slowest_files = sorted(
        result.file_seconds.items(), key=lambda kv: -kv[1]
    )[:top]
    if slowest_files:
        lines.append("slowest files:")
        lines.extend(
            f"  {seconds * 1000:8.1f} ms  {path}"
            for path, seconds in slowest_files
        )
    return "\n".join(lines)


def render_catalogue() -> str:
    """The rule catalogue (``repro check --list-rules``)."""
    lines = []
    for rule in sorted(RULE_REGISTRY.values(), key=lambda r: r.id):
        scope = ", ".join(rule.scope) if rule.scope else "all files"
        lines.append(f"{rule.id}  {rule.name} [{rule.severity.value}]")
        lines.append(f"    {rule.description}")
        lines.append(f"    scope: {scope}")
    return "\n".join(lines)


def catalogue_json() -> Dict[str, Any]:
    """The rule catalogue as data
    (``repro check --list-rules --format json``)."""
    return {
        "version": JSON_SCHEMA_VERSION,
        "rules": [
            {
                "id": rule.id,
                "name": rule.name,
                "severity": rule.severity.value,
                "kind": rule.kind,
                "scope": list(rule.scope),
                "exclude": list(rule.exclude),
                "description": rule.description,
            }
            for rule in sorted(
                RULE_REGISTRY.values(), key=lambda r: r.id
            )
        ],
    }


def catalogue_markdown() -> str:
    """The rule catalogue as a Markdown table — the generator behind
    the table in ``docs/static_analysis.md`` (regenerate with
    ``repro check --list-rules --format markdown``)."""
    lines = [
        "| Rule | Name | Severity | Kind | Description |",
        "| --- | --- | --- | --- | --- |",
    ]
    for rule in sorted(RULE_REGISTRY.values(), key=lambda r: r.id):
        description = " ".join(rule.description.split())
        lines.append(
            f"| `{rule.id}` | {rule.name} | {rule.severity.value} "
            f"| {rule.kind} | {description} |"
        )
    return "\n".join(lines)


def findings_only(findings: Sequence[Finding]) -> Dict[str, Any]:
    """Tiny helper for tests: summarise findings by rule id."""
    return dict(Counter(f.rule for f in findings))
