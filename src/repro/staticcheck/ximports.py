"""Import-layer hygiene rules (XIMP0xx), over the project index.

* ``XIMP001`` — module-level import cycles.  Python tolerates some
  cycles by accident of import order; they make partially-initialised
  modules observable and break under refactors, so the graph must stay
  acyclic (function-level imports are the sanctioned escape hatch and
  are not edges here).
* ``XIMP002`` — layering: the foundation layers must not reach up into
  the orchestration layers (``repro.core``/``repro.codes``/
  ``repro.graphs`` importing ``repro.engine`` or ``repro.cli``, or
  anything importing ``repro.staticcheck`` outside the CLI).  The
  checked code must never depend on its checker.
* ``XIMP003`` — stale re-exports: a module lists a name in
  ``__all__`` it never binds, or ``from``-imports a symbol an indexed
  module does not define (modules with wildcard imports or a module
  ``__getattr__`` are skipped — their namespace is not statically
  knowable).
"""

from __future__ import annotations

from typing import List

from .engine import Rule, project_wide_rule
from .findings import Finding
from .project import ProjectContext

#: importer-prefix → forbidden-import-prefixes (the layering contract).
_FORBIDDEN_LAYERS = {
    "repro.core": ("repro.engine", "repro.cli"),
    "repro.codes": ("repro.engine", "repro.cli"),
    "repro.graphs": ("repro.engine", "repro.cli", "repro.env"),
    "repro.types": ("repro.engine", "repro.cli"),
    "repro.exceptions": ("repro.engine", "repro.cli"),
}

#: the checker itself may only be imported by the CLI and its own tests.
_CHECKER_PREFIX = "repro.staticcheck"
_CHECKER_IMPORTERS = ("repro.staticcheck", "repro.cli", "repro.__main__")


def _within(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def _is_test_module(name: str, scope_path: str) -> bool:
    stem = name.rsplit(".", 1)[-1]
    if stem.startswith("test_") or stem == "conftest":
        return True
    return "tests/" in scope_path or "benchmarks/" in scope_path


@project_wide_rule(
    "XIMP001",
    name="import-cycle",
    description=(
        "Module-level import cycle: every module in the cycle can "
        "observe a partially initialised peer depending on which entry "
        "point imports first. Break the cycle or demote one edge to a "
        "function-level import."
    ),
)
def check_import_cycle(ctx: ProjectContext, rule: Rule) -> List[Finding]:
    """Flag import cycles among indexed project modules."""
    findings: List[Finding] = []
    for cycle in ctx.index.import_cycles():
        chain = " -> ".join(cycle + [cycle[0]])
        for name in cycle:
            info = ctx.index.modules[name]
            findings.append(ctx.finding(
                rule, info, 1,
                f"module-level import cycle: {chain}",
            ))
    return findings


@project_wide_rule(
    "XIMP002",
    name="layer-violation",
    description=(
        "A foundation-layer module imports an orchestration-layer one "
        "(e.g. repro.core reaching into repro.engine), inverting the "
        "dependency direction the architecture relies on; repro."
        "staticcheck may only be imported by the CLI — checked code "
        "must never depend on its checker."
    ),
)
def check_layer_violation(
    ctx: ProjectContext, rule: Rule
) -> List[Finding]:
    """Enforce the layering contract between repro packages."""
    findings: List[Finding] = []
    for name in sorted(ctx.index.modules):
        info = ctx.index.modules[name]
        forbidden = tuple(
            target
            for prefix, targets in _FORBIDDEN_LAYERS.items()
            if _within(name, prefix)
            for target in targets
        )
        for imported in sorted(info.all_imports):
            for target in forbidden:
                if _within(imported, target):
                    findings.append(ctx.finding(
                        rule, info, 1,
                        f"{name} imports {imported}: foundation layers "
                        f"must not depend on {target}",
                    ))
            if (
                _within(imported, _CHECKER_PREFIX)
                and not any(
                    _within(name, ok) for ok in _CHECKER_IMPORTERS
                )
                and not _is_test_module(name, info.scope_path)
            ):
                findings.append(ctx.finding(
                    rule, info, 1,
                    f"{name} imports {imported}: only the CLI may "
                    "depend on the static checker",
                ))
    return findings


@project_wide_rule(
    "XIMP003",
    name="stale-reexport",
    description=(
        "A module re-exports a name that no longer exists: "
        "__all__ lists an unbound name, or a from-import names a "
        "symbol the source module does not define. The module works "
        "until someone touches it; fix the name or drop the "
        "re-export."
    ),
)
def check_stale_reexport(
    ctx: ProjectContext, rule: Rule
) -> List[Finding]:
    """Flag re-exports of names their source module no longer defines."""
    findings: List[Finding] = []
    for name in sorted(ctx.index.modules):
        info = ctx.index.modules[name]
        if info.has_wildcard_import or info.has_module_getattr:
            continue
        for exported in sorted(info.exported):
            if exported not in info.symbols:
                findings.append(ctx.finding(
                    rule, info, 1,
                    f"__all__ lists {exported!r} but {name} never "
                    "binds it",
                ))
        for local, target in sorted(info.aliases.items()):
            if "." not in target:
                continue
            source_mod, _, symbol = target.rpartition(".")
            source = ctx.index.modules.get(source_mod)
            if source is None or not symbol:
                continue
            # ``from pkg import submodule`` binds a module, not a
            # symbol — fine whenever the submodule is indexed.
            if f"{source_mod}.{symbol}" in ctx.index.modules:
                continue
            if source.has_wildcard_import or source.has_module_getattr:
                continue
            if symbol not in source.symbols:
                findings.append(ctx.finding(
                    rule, info, 1,
                    f"{name} imports {symbol!r} from {source_mod}, "
                    "which does not define it (stale re-export?)",
                ))
    return findings
