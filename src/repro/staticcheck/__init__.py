"""``repro.staticcheck`` — the project-invariant static-analysis pass.

The two costliest defects in this repo's history were statically
detectable: the absolute-vs-step-relative seconds mismatch fixed in
PR 1, and the strict RNG/seed discipline the PR-2 golden trajectories
depend on.  This package makes those invariants — plus spec
feasibility — machine-checkable, as ``repro check``:

========  ==============================================================
family    rules
========  ==============================================================
GEN       ``GEN001`` unparseable file
DET       ``DET001`` module-level RNG, ``DET002`` wall-clock reads,
          ``DET003`` unseeded ``default_rng()``, ``DET004`` ordering
          hazards
TIME      ``TIME001`` mixed absolute/step-relative arithmetic,
          ``TIME002`` undocumented time units, ``TIME003`` wall-clock
          reads in the serve/obs/straggler layers
SPEC      ``SPEC001`` infeasible spec files, ``SPEC002`` infeasible
          spec literals
FLOW      whole-project RNG dataflow: ``FLOW001`` Generator into a
          cached/batched kernel, ``FLOW002`` Generator/derived seed
          across a pool dispatch, ``FLOW003`` draw order depending on
          set iteration
========  ==============================================================

The FLOW family runs on the whole-project index
(:mod:`repro.staticcheck.project`) with interprocedural dataflow
summaries (:mod:`repro.staticcheck.dataflow`).

Suppress a deliberate exception with ``# repro: noqa[RULE]`` on the
offending line (always with a justification comment).  See
``docs/static_analysis.md`` for the full catalogue and how to add a
rule.
"""

from .engine import (
    RULE_REGISTRY,
    CheckResult,
    Rule,
    StaticCheckError,
    check_source,
    check_spec_mapping,
    expand_select,
    iter_markdown_blocks,
    iter_source_files,
    noqa_map,
    project_rule,
    python_rule,
    run_check,
    spec_rule,
)
from .findings import Finding, Severity
from .project import ModuleInfo, ProjectContext, ProjectIndex
from .report import (
    JSON_SCHEMA_VERSION,
    render_catalogue,
    render_json,
    render_text,
    to_json_dict,
)
from .specrules import spec_feasibility_problems

# Importing the rule modules registers their rules.
from . import determinism, flowrules, specrules, timeunits  # noqa: F401

__all__ = [
    "RULE_REGISTRY",
    "CheckResult",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "ModuleInfo",
    "ProjectContext",
    "ProjectIndex",
    "Rule",
    "Severity",
    "StaticCheckError",
    "check_source",
    "check_spec_mapping",
    "expand_select",
    "iter_markdown_blocks",
    "iter_source_files",
    "noqa_map",
    "project_rule",
    "python_rule",
    "render_catalogue",
    "render_json",
    "render_text",
    "run_check",
    "spec_feasibility_problems",
    "spec_rule",
    "to_json_dict",
]
