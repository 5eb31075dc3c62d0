"""SARIF 2.1.0 output for ``repro check --format sarif``.

SARIF (Static Analysis Results Interchange Format, OASIS) is what
GitHub code scanning ingests: upload the document and findings become
inline PR annotations.  The emitter targets the subset GitHub
documents — one ``run``, a ``tool.driver`` with the full rule
catalogue, and one ``result`` per finding with a ``physicalLocation``.

The container has no ``jsonschema`` package, so :func:`validate_sarif`
is a hand-rolled structural validator encoding the SARIF 2.1.0
required-property rules this emitter relies on (``version``, ``runs``,
``tool.driver.name``, result ``message``/``ruleId``, region bounds
``>= 1``).  It is deliberately strict about exactly the properties CI
consumes, and it is what the tests assert against.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

from .engine import RULE_REGISTRY, SYNTAX_RULE, CheckResult

#: the published 2.1.0 schema URI (informational; see module docstring).
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
SARIF_VERSION = "2.1.0"

#: Every finding fails ``repro check``, so every rule reports at the
#: one SARIF level.
_LEVEL = "error"


def _rule_descriptors() -> List[Dict[str, Any]]:
    rules = [
        {
            "id": SYNTAX_RULE,
            "name": "unparseable-file",
            "shortDescription": {"text": "file does not parse"},
            "fullDescription": {
                "text": "The file could not be parsed as Python; "
                        "nothing else can be checked."
            },
            "defaultConfiguration": {"level": _LEVEL},
        }
    ]
    for rule in sorted(RULE_REGISTRY.values(), key=lambda r: r.id):
        rules.append({
            "id": rule.id,
            "name": rule.name,
            "shortDescription": {"text": rule.name},
            "fullDescription": {"text": rule.description},
            "defaultConfiguration": {"level": _LEVEL},
        })
    return sorted(rules, key=lambda d: d["id"])


def to_sarif_dict(result: CheckResult) -> Dict[str, Any]:
    """The SARIF 2.1.0 document for one check run."""
    descriptors = _rule_descriptors()
    rule_index = {d["id"]: i for i, d in enumerate(descriptors)}
    results = []
    for finding in result.findings:
        entry: Dict[str, Any] = {
            "ruleId": finding.rule,
            "level": _LEVEL,
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": Path(finding.path).as_posix(),
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": max(1, finding.line),
                            "startColumn": max(1, finding.col),
                        },
                    }
                }
            ],
        }
        if finding.rule in rule_index:
            entry["ruleIndex"] = rule_index[finding.rule]
        results.append(entry)
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-check",
                        "rules": descriptors,
                    }
                },
                "columnKind": "unicodeCodePoints",
                "results": results,
            }
        ],
    }


def render_sarif(result: CheckResult) -> str:
    """The SARIF report as a string (``--format sarif``)."""
    return json.dumps(to_sarif_dict(result), indent=2)


def validate_sarif(doc: Any) -> List[str]:
    """Structural SARIF 2.1.0 validation; returns problems (empty =
    valid).  Encodes the required-property rules of the spec for the
    subset this emitter produces (see module docstring)."""
    problems: List[str] = []

    def need(cond: bool, message: str) -> bool:
        if not cond:
            problems.append(message)
        return cond

    if not need(isinstance(doc, dict), "document must be an object"):
        return problems
    need(doc.get("version") == SARIF_VERSION,
         f"version must be {SARIF_VERSION!r}")
    runs = doc.get("runs")
    if not need(isinstance(runs, list) and runs, "runs must be a "
                "non-empty array"):
        return problems
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        if not need(isinstance(run, dict), f"{where} must be an object"):
            continue
        driver = run.get("tool", {}).get("driver") if isinstance(
            run.get("tool"), dict
        ) else None
        if need(isinstance(driver, dict),
                f"{where}.tool.driver is required"):
            need(
                isinstance(driver.get("name"), str) and driver["name"],
                f"{where}.tool.driver.name is required",
            )
            for j, rule in enumerate(driver.get("rules", [])):
                need(
                    isinstance(rule, dict)
                    and isinstance(rule.get("id"), str),
                    f"{where}.tool.driver.rules[{j}].id is required",
                )
        results = run.get("results")
        if not need(isinstance(results, list),
                    f"{where}.results must be an array"):
            continue
        declared = {
            rule.get("id")
            for rule in (driver or {}).get("rules", [])
            if isinstance(rule, dict)
        }
        for j, res in enumerate(results):
            rwhere = f"{where}.results[{j}]"
            if not need(isinstance(res, dict),
                        f"{rwhere} must be an object"):
                continue
            message = res.get("message")
            need(
                isinstance(message, dict)
                and isinstance(message.get("text"), str),
                f"{rwhere}.message.text is required",
            )
            need(
                res.get("level") in (
                    "none", "note", "warning", "error", None
                ),
                f"{rwhere}.level must be a SARIF level",
            )
            if "ruleIndex" in res:
                need(
                    isinstance(res["ruleIndex"], int)
                    and 0 <= res["ruleIndex"] < len(declared),
                    f"{rwhere}.ruleIndex out of range",
                )
            if isinstance(res.get("ruleId"), str) and declared:
                need(
                    res["ruleId"] in declared,
                    f"{rwhere}.ruleId not declared by the driver",
                )
            for k, loc in enumerate(res.get("locations", [])):
                phys = loc.get("physicalLocation") if isinstance(
                    loc, dict
                ) else None
                lwhere = f"{rwhere}.locations[{k}].physicalLocation"
                if not need(isinstance(phys, dict),
                            f"{lwhere} is required"):
                    continue
                art = phys.get("artifactLocation")
                need(
                    isinstance(art, dict)
                    and isinstance(art.get("uri"), str),
                    f"{lwhere}.artifactLocation.uri is required",
                )
                region = phys.get("region")
                if isinstance(region, dict):
                    for key in ("startLine", "startColumn"):
                        if key in region:
                            need(
                                isinstance(region[key], int)
                                and region[key] >= 1,
                                f"{lwhere}.region.{key} must be >= 1",
                            )
    return problems
