"""Checkpoint-coverage rule (CKPT001).

:meth:`repro.engine.RoundEngine.snapshot` promises to capture *every*
piece of mutable run state, and :data:`repro.engine.state.
CHECKPOINT_COVERED` is the authoritative registry of the attributes
that promise covers (plus :data:`~repro.engine.state.
CHECKPOINT_TRANSIENT` for within-round scratch).  The failure mode the
registry exists for is silent: someone adds ``self._warmup_left = ...``
to a run-path method, every test that runs start-to-finish still
passes, and only a job that happens to be suspended and resumed across
that state diverges — bit-for-bit determinism of resume is exactly the
property the serve layer's eviction/crash-recovery machinery stands
on.

``CKPT001`` closes the loop statically: every attribute assignment on
an engine / update-rule / backend instance inside a *run-path* method
of the engine layer must name an attribute in the registry.  Setup and
lifecycle methods are exempt (``__init__``/``bind``/``start*`` run
before any state exists to lose; ``snapshot*``/``restore*``/``reset*``
*are* the checkpoint machinery), so the audit falls precisely on the
code that mutates live run state.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from .engine import PythonContext, Rule, python_rule
from .findings import Finding

#: The files whose classes own checkpointable run state (the engine
#: layer), mapped to the registry kind their ``self`` corresponds to.
_KIND_BY_FILE = {
    "repro/engine/core.py": "engine",
    "repro/engine/rules.py": "rule",
    "repro/engine/backends.py": "backend",
}

CKPT_SCOPE = tuple(_KIND_BY_FILE)

#: Methods whose assignments are construction/lifecycle, not run-path
#: mutation: exact names, plus the prefixes below.
_EXEMPT_NAMES = frozenset({"__init__", "__post_init__", "bind"})
_EXEMPT_PREFIXES = ("snapshot", "restore", "reset", "start", "_restore")


def _is_exempt(method: str) -> bool:
    return method in _EXEMPT_NAMES or method.startswith(_EXEMPT_PREFIXES)


def _owner_kind(target: ast.AST, self_kind: str) -> Optional[str]:
    """The registry kind for an attribute assignment target, if any.

    ``self.X`` is audited against the file's own kind; ``engine.X`` —
    the convention rule/backend hooks use for their
    :class:`~repro.engine.RoundEngine` parameter — against the engine
    kind.
    """
    if not isinstance(target, ast.Attribute):
        return None
    value = target.value
    if not isinstance(value, ast.Name):
        return None
    if value.id == "self":
        return self_kind
    if value.id == "engine":
        return "engine"
    return None


@python_rule(
    "CKPT001",
    name="run-state-not-checkpointed",
    description=(
        "An engine-layer run-path method assigns an instance attribute "
        "that repro.engine.state.CHECKPOINT_COVERED does not list — "
        "snapshot() would silently drop it and resumed jobs would "
        "diverge from uninterrupted ones.  Capture it in snapshot() "
        "and add it to the registry, or list it in "
        "CHECKPOINT_TRANSIENT if it never lives across a round "
        "boundary."
    ),
    scope=CKPT_SCOPE,
)
def check_checkpoint_coverage(
    ctx: PythonContext, rule: Rule
) -> List[Finding]:
    """Audit run-path attribute assignments against the registry."""
    # Lazy import: the registry lives beside the engine it describes,
    # and the checker must not pull the engine layer in at import time
    # (staticcheck stays importable on its own).
    from ..engine.state import CHECKPOINT_COVERED, CHECKPOINT_TRANSIENT

    self_kind = next(
        (k for f, k in _KIND_BY_FILE.items() if f in ctx.scope_path),
        None,
    )
    if self_kind is None:  # pragma: no cover - scope gate already ran
        return []
    allowed = {
        kind: CHECKPOINT_COVERED[kind] | CHECKPOINT_TRANSIENT[kind]
        for kind in CHECKPOINT_COVERED
    }
    findings = []

    class Visitor(ast.NodeVisitor):
        """Walks class methods, auditing assignments in run paths."""

        def __init__(self) -> None:
            self.method: Optional[str] = None

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    self.method = item.name
                    self.generic_visit(item)
                    self.method = None

        def _audit(self, target: ast.AST, node: ast.AST) -> None:
            if self.method is None or _is_exempt(self.method):
                return
            kind = _owner_kind(target, self_kind)
            if kind is None:
                return
            attr = target.attr  # type: ignore[union-attr]
            if attr in allowed[kind]:
                return
            owner = "self" if kind == self_kind else "engine"
            findings.append(ctx.finding(
                rule, node,
                f"{self.method}() assigns {owner}.{attr}, which "
                f"CHECKPOINT_COVERED[{kind!r}] does not list — "
                "snapshot() will not capture it; add it to the "
                "snapshot and the registry (repro/engine/state.py), "
                "or to CHECKPOINT_TRANSIENT if it never survives a "
                "round boundary",
            ))

        def visit_Assign(self, node: ast.Assign) -> None:
            for target in node.targets:
                self._audit(target, node)
            self.generic_visit(node)

        def visit_AugAssign(self, node: ast.AugAssign) -> None:
            self._audit(node.target, node)
            self.generic_visit(node)

        def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
            self._audit(node.target, node)
            self.generic_visit(node)

    Visitor().visit(ctx.tree)
    return findings
