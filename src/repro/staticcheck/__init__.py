"""``repro.staticcheck`` — the project-invariant static-analysis pass.

The golden trajectories depend on strict RNG/seed discipline, and
every figure on time values that say which unit and origin they use.
This package makes those invariants machine-checkable, as ``repro
check`` over ``.py`` files and the fenced Python blocks of Markdown
files:

========  ==============================================================
family    rules
========  ==============================================================
GEN       ``GEN001`` unparseable file
DET       ``DET001`` module-level RNG, ``DET002`` wall-clock reads,
          ``DET003`` unseeded ``default_rng()``, ``DET004`` ordering
          hazards (set and filesystem iteration)
TIME      ``TIME002`` undocumented time units
========  ==============================================================

Every rule sees one file (or one Markdown code block) at a time.  How
seeds and Generators cross a process pool is guarded at run time
instead, by :class:`repro.parallel.PointTask` and
:meth:`repro.parallel.SweepExecutor.run`; whether absolute clock
readings and step-relative times are kept apart is checked on the
records every test run produces (``tests/time_origins.py``).

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
    expand_select,
    iter_markdown_blocks,
    iter_source_files,
    noqa_map,
    python_rule,
    run_check,
)
from .findings import Finding
from .report import (
    JSON_SCHEMA_VERSION,
    render_catalogue,
    render_json,
    render_text,
    to_json_dict,
)
# Importing the rule modules registers their rules.
from . import determinism, timeunits  # noqa: F401

__all__ = [
    "RULE_REGISTRY",
    "CheckResult",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "Rule",
    "StaticCheckError",
    "check_source",
    "expand_select",
    "iter_markdown_blocks",
    "iter_source_files",
    "noqa_map",
    "python_rule",
    "render_catalogue",
    "render_json",
    "render_text",
    "run_check",
    "to_json_dict",
]
