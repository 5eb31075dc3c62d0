"""Reporters for ``repro check``: text, JSON, and the rule catalogue.

The JSON document is versioned and stable — CI annotators and editor
integrations parse it::

    {
      "version": 4,
      "checked_files": 188,
      "findings": [{"path", "line", "col", "rule", "message"}, ...],
      "summary": {"total": 2, "by_rule": {"DET001": 2}}
    }
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict

from .engine import RULE_REGISTRY, CheckResult

#: Bump when the JSON structure changes incompatibly.
JSON_SCHEMA_VERSION = 4


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
        },
    }


def render_json(result: CheckResult) -> str:
    """The JSON report as a string (``repro check --format json``)."""
    return json.dumps(to_json_dict(result), indent=2, sort_keys=False)


def render_catalogue() -> str:
    """The rule catalogue (``repro check --list-rules``)."""
    lines = []
    for rule in sorted(RULE_REGISTRY.values(), key=lambda r: r.id):
        scope = ", ".join(rule.scope) if rule.scope else "all files"
        lines.append(f"{rule.id}  {rule.name}")
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
        "| Rule | Name | Description |",
        "| --- | --- | --- |",
    ]
    for rule in sorted(RULE_REGISTRY.values(), key=lambda r: r.id):
        description = " ".join(rule.description.split())
        lines.append(
            f"| `{rule.id}` | {rule.name} | {description} |"
        )
    return "\n".join(lines)

