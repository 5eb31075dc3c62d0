"""Time-unit documentation rule (TIME002).

:mod:`repro.simulation.cluster` documents the project's time
convention: all time is simulated seconds, and **two origins coexist**
— *absolute* simulator-clock readings (``step_start``, ``step_end``,
``clock``) and *step-relative* values measured from the start of the
current round (``proceed_time``, ``arrival_time``, ``deadline``, the
values of ``RoundResult.arrivals``).  Whether code keeps the two apart
is checked at run time, on the traces and records every run produces
(``tests/time_origins.py``, applied by the golden, resume, spec and
serve tests).  What no run shows is whether a function *says* which
unit and origin its time-valued parameters use, so one rule checks
that:

* ``TIME002`` — a function in the simulation/straggler/engine/obs
  layers takes a time-valued parameter (``deadline``, ``*_time``,
  ``*_delay``, … unannotated or annotated with a numeric type) but
  neither its docstring nor its class docstring states the
  unit/origin.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional

from .engine import PythonContext, Rule, python_rule
from .findings import Finding

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
    r"second|\(s\)|step-relative|absolute|sim[ -]time",
    re.IGNORECASE,
)

#: Annotation names under which a parameter still holds a number.
_NUMERIC_TYPES = frozenset({
    "float", "int", "Real", "Number", "float64", "ndarray",
})


def _may_hold_a_time(annotation: Optional[ast.expr]) -> bool:
    """Whether a parameter annotated ``annotation`` can hold a time:
    it is unannotated, or its annotation names a numeric type
    (``float``, ``Optional[float]``, ``Sequence[float]``).  A
    ``straggler_delay: DelayModel | None`` is a model, not a time."""
    if annotation is None:
        return True
    return any(
        (isinstance(node, ast.Name) and node.id in _NUMERIC_TYPES)
        or (isinstance(node, ast.Attribute) and node.attr in _NUMERIC_TYPES)
        for node in ast.walk(annotation)
    )


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
                and _may_hold_a_time(a.annotation)
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
