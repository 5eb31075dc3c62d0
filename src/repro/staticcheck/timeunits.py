"""Time-unit discipline rules (TIME0xx).

:mod:`repro.simulation.cluster` documents the project's time
convention: all time is simulated seconds, and **two origins coexist**
— *absolute* simulator-clock readings (``step_start``, ``step_end``,
``clock``) and *step-relative* values measured from the start of the
current round (``proceed_time``, ``arrival_time``, ``deadline``, the
values of ``RoundResult.arrivals``).  PR 1 fixed a real bug of exactly
this shape: ``run_round`` treated a policy's step-relative
``proceed_time`` as an absolute clock reading.

These rules encode the convention:

* ``TIME001`` — arithmetic/comparisons that mix identifiers from the
  two origin namespaces in a way no unit algebra permits
  (``absolute + absolute``, ``relative - absolute``, comparing an
  absolute reading against a relative one, or assigning one straight
  to the other).  The sanctioned conversions — ``absolute +
  relative → absolute`` and ``absolute - absolute → duration`` — are
  deliberately not flagged.
* ``TIME002`` — a function in the simulation/straggler/engine layers
  takes a time-valued parameter (``deadline``, ``*_time``,
  ``*_delay``, …) but neither its docstring nor its class docstring
  states the unit/origin.

The namespaces below are the single place the convention lives for the
checker; extend them when new time-valued names join the codebase.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional

from .engine import PythonContext, Rule, python_rule
from .findings import Finding

#: Identifiers carrying *absolute* simulator-clock seconds
#: (see the :mod:`repro.simulation.cluster` module docstring).
ABSOLUTE_NAMES = frozenset({
    "step_start", "step_end", "clock", "_clock",
    "absolute_time", "abs_time", "sim_clock",
})

#: Identifiers carrying *step-relative* seconds (measured from the
#: start of the current round) or per-round durations.
RELATIVE_NAMES = frozenset({
    "proceed_time", "arrival_time", "relative_time", "rel_time",
    "deadline", "wait_time", "step_time",
})

TIME_SCOPE = (
    "repro/simulation/",
    "repro/straggler/",
    "repro/engine/",
    "repro/obs/",
)

#: Parameter names that denote a quantity of time.
_TIME_PARAM_RE = re.compile(
    r"^(deadline|delay|timeout|interval)$"
    r"|(_time|_seconds|_delay|_timeout|_interval|_deadline)$"
)

#: A docstring "states the unit" when it mentions any of these.
_UNIT_RE = re.compile(
    r"second|\(s\)|step-relative|absolute|sim[ -]time|\bsec\b",
    re.IGNORECASE,
)


def _origin(node: ast.AST) -> Optional[str]:
    """Classify a Name/Attribute by the documented namespace it uses."""
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return None
    if name in ABSOLUTE_NAMES:
        return "absolute"
    if name in RELATIVE_NAMES:
        return "step-relative"
    return None


def _describe(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return "<expr>"  # pragma: no cover - guarded by _origin


@python_rule(
    "TIME001",
    name="mixed-time-origins",
    description=(
        "Absolute simulator-clock values and step-relative values were "
        "combined in a way unit algebra forbids (the PR-1 bug class); "
        "convert explicitly via step_start first."
    ),
    scope=TIME_SCOPE,
)
def check_mixed_origins(ctx: PythonContext, rule: Rule) -> List[Finding]:
    """Flag cross-origin comparisons, sums, and direct assignments."""
    findings = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            origins = {o for o in map(_origin, sides) if o is not None}
            if len(origins) == 2:
                names = ", ".join(
                    f"{_describe(s)} ({_origin(s)})"
                    for s in sides
                    if _origin(s) is not None
                )
                findings.append(ctx.finding(
                    rule, node,
                    f"comparison mixes time origins: {names}; convert "
                    "via step_start before comparing",
                ))
        elif isinstance(node, ast.BinOp):
            left, right = _origin(node.left), _origin(node.right)
            if (
                isinstance(node.op, ast.Add)
                and left == "absolute"
                and right == "absolute"
            ):
                findings.append(ctx.finding(
                    rule, node,
                    f"{_describe(node.left)} + {_describe(node.right)} "
                    "adds two absolute clock readings; subtract to get "
                    "a duration instead",
                ))
            elif (
                isinstance(node.op, ast.Sub)
                and left == "step-relative"
                and right == "absolute"
            ):
                findings.append(ctx.finding(
                    rule, node,
                    f"{_describe(node.left)} - {_describe(node.right)} "
                    "subtracts an absolute clock reading from a "
                    "step-relative value; did you mean the opposite "
                    f"order, or `step_start + {_describe(node.left)}`?",
                ))
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target_origin = _origin(node.targets[0])
            value_origin = _origin(node.value)
            if (
                target_origin is not None
                and value_origin is not None
                and target_origin != value_origin
            ):
                findings.append(ctx.finding(
                    rule, node,
                    f"assigning {value_origin} value "
                    f"{_describe(node.value)!r} to {target_origin} name "
                    f"{_describe(node.targets[0])!r}; convert via "
                    "step_start",
                ))
    return findings


@python_rule(
    "TIME002",
    name="undocumented-time-unit",
    description=(
        "Time-valued parameters must state their unit and origin "
        "(seconds; absolute vs step-relative) in the function or class "
        "docstring — the convention of simulation/cluster.py."
    ),
    scope=TIME_SCOPE,
)
def check_documented_units(ctx: PythonContext, rule: Rule) -> List[Finding]:
    """Flag time-valued parameters whose docstrings omit the unit."""
    findings = []

    class Visitor(ast.NodeVisitor):
        """Tracks the class stack so methods may rely on class docs."""

        def __init__(self) -> None:
            self.class_docs: List[str] = []

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            self.class_docs.append(ast.get_docstring(node) or "")
            self.generic_visit(node)
            self.class_docs.pop()

        def _check_function(self, node: ast.AST) -> None:
            args = node.args
            params = [
                a.arg
                for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                if a.arg not in ("self", "cls")
                and _TIME_PARAM_RE.search(a.arg)
            ]
            if not params:
                return
            docs = [ast.get_docstring(node) or ""]
            if self.class_docs:
                docs.append(self.class_docs[-1])
            if any(_UNIT_RE.search(d) for d in docs):
                return
            findings.append(ctx.finding(
                rule, node,
                f"{node.name}() takes time-valued parameter(s) "
                f"{', '.join(repr(p) for p in params)} but neither its "
                "docstring nor the class docstring states the unit "
                "(seconds) and origin (absolute vs step-relative)",
            ))

        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            self._check_function(node)
            self.generic_visit(node)

        def visit_AsyncFunctionDef(self, node) -> None:
            self._check_function(node)
            self.generic_visit(node)

    Visitor().visit(ctx.tree)
    return findings
