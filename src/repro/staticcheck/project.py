"""The whole-project analysis substrate behind the FLOW rules.

Per-file AST rules (`repro.staticcheck.determinism` and friends) see one
parsed source unit at a time, so they cannot follow a
``numpy.random.Generator`` through a call into another module.  This
module builds the missing context — **purely syntactically**, never
importing the code it indexes:

* :class:`ModuleInfo` — one parsed module: its AST, its resolved
  imports (absolute and relative, aliased and ``from``-style) and its
  top-level symbol table;
* :class:`ProjectIndex` — name → :class:`ModuleInfo`, with name
  resolution (``resolve``) and re-export-following function lookup
  (``resolve_function``);
* :class:`ProjectContext` — what a ``@project_rule`` check receives:
  the index and the per-module dataflow summaries from
  :mod:`repro.staticcheck.dataflow`.

``repro check`` builds its index from the trees the per-file pass
already parsed; :meth:`ProjectIndex.from_sources` builds one from
in-memory sources (the fixture entry point used by the tests).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Set, Tuple


@dataclass
class ModuleInfo:
    """Everything the project layer knows about one parsed module."""

    name: str
    path: str
    scope_path: str
    source: str
    tree: ast.Module
    #: local alias → fully dotted target ("pkg.mod" or "pkg.mod.symbol").
    aliases: Dict[str, str] = field(default_factory=dict)
    #: top-level bound names (defs, classes, imports, assignments).
    symbols: Set[str] = field(default_factory=set)


def module_name_for(path: Path) -> Tuple[Path, str]:
    """``(package_root, dotted_name)`` for a ``.py`` file on disk.

    Walks parent directories while ``__init__.py`` chains hold, so
    ``src/repro/core/batch.py`` → ``(src, "repro.core.batch")``.  A file
    outside any package is its own module named after its stem.
    """
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    current = path.parent
    while (current / "__init__.py").exists():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:  # filesystem root; cannot recurse further
            break
        current = parent
    if not parts:
        parts = [path.stem]
    return current, ".".join(parts)


# ----------------------------------------------------------------------
# Module indexing


def _relative_base(module_name: str, level: int, is_package: bool) -> str:
    """The dotted package a ``from ...x import y`` resolves against."""
    parts = module_name.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop >= len(parts):
        return ""
    return ".".join(parts[: len(parts) - drop]) if drop else ".".join(parts)


def index_module(
    name: str, source: str, tree: ast.Module, path: str, scope_path: str
) -> ModuleInfo:
    """Index one already-parsed module into a :class:`ModuleInfo`."""
    info = ModuleInfo(
        name=name, path=path, scope_path=scope_path, source=source, tree=tree
    )
    is_package = path.endswith("__init__.py")
    top_level = set(map(id, tree.body))

    # Imports anywhere bind aliases; top-level ones also bind symbols.
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound = alias.asname
                    info.aliases[bound] = alias.name
                else:
                    bound = alias.name.split(".")[0]
                    info.aliases[bound] = bound
                if id(node) in top_level:
                    info.symbols.add(bound)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _relative_base(name, node.level, is_package)
                target_mod = (
                    f"{base}.{node.module}" if node.module and base
                    else (node.module or base)
                )
            else:
                target_mod = node.module or ""
            if not target_mod:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                info.aliases[bound] = f"{target_mod}.{alias.name}"
                if id(node) in top_level:
                    info.symbols.add(bound)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            info.symbols.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    info.symbols.add(target.id)
                elif isinstance(target, ast.Tuple):
                    info.symbols.update(
                        elt.id for elt in target.elts
                        if isinstance(elt, ast.Name)
                    )
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                info.symbols.add(node.target.id)
        elif isinstance(node, (ast.If, ast.Try)):
            # names bound under TYPE_CHECKING / try-except import guards
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
                    info.symbols.add(sub.name)
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            info.symbols.add(target.id)
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    for alias in sub.names:
                        if alias.name != "*":
                            info.symbols.add(
                                alias.asname
                                or alias.name.split(".")[0]
                            )
    return info


# ----------------------------------------------------------------------
# The index


class ProjectIndex:
    """The whole-project module table and name resolution."""

    def __init__(self, modules: Mapping[str, ModuleInfo]):
        self.modules: Dict[str, ModuleInfo] = dict(modules)

    @classmethod
    def from_sources(
        cls, sources: Mapping[str, str]
    ) -> "ProjectIndex":
        """Build an index from ``{dotted_name: source}`` (fixtures);
        sources that do not parse are left out."""
        modules = {}
        for name, source in sources.items():
            rel = name.replace(".", "/")
            path = (
                f"{rel}/__init__.py"
                if any(k.startswith(name + ".") for k in sources)
                else f"{rel}.py"
            )
            try:
                tree = ast.parse(source)
            except SyntaxError:
                continue
            modules[name] = index_module(
                name, source, tree, path=path, scope_path=path
            )
        return cls(modules)

    def resolve(self, module: str, local_name: str) -> Optional[str]:
        """Resolve a (possibly dotted) local name to a fully qualified
        ``module.symbol`` or module name, via the module's imports."""
        info = self.modules.get(module)
        if info is None:
            return None
        head, _, rest = local_name.partition(".")
        target = info.aliases.get(head)
        if target is None:
            if head in info.symbols:
                target = f"{module}.{head}"
            else:
                return None
        return f"{target}.{rest}" if rest else target

    def resolve_function(self, dotted: str) -> Optional[Tuple[str, str]]:
        """Split a qualified name into ``(module, qualname)`` when the
        module is indexed; follows one level of re-export."""
        for _ in range(4):  # bounded re-export chains
            parts = dotted.split(".")
            for i in range(len(parts) - 1, 0, -1):
                mod = ".".join(parts[:i])
                if mod in self.modules:
                    qual = ".".join(parts[i:])
                    info = self.modules[mod]
                    head = qual.split(".")[0]
                    # re-export: ``from .x import f`` then caller uses
                    # ``pkg.f`` — follow to the defining module.
                    if (
                        head not in info.symbols
                        or head in info.aliases
                    ) and head in info.aliases:
                        dotted = info.aliases[head] + (
                            "." + ".".join(qual.split(".")[1:])
                            if "." in qual else ""
                        )
                        break
                    return mod, qual
            else:
                return None
        return None


# ----------------------------------------------------------------------
# What project rules receive


@dataclass
class ProjectContext:
    """Everything a ``@project_rule`` check sees.

    ``summaries`` holds the dataflow function summaries keyed by module
    name (see :mod:`repro.staticcheck.dataflow`).
    """

    index: ProjectIndex
    summaries: Dict[str, Any] = field(default_factory=dict)

    def finding(
        self, rule: Any, module: ModuleInfo, node: ast.AST, message: str
    ):
        """Build a :class:`~repro.staticcheck.findings.Finding` anchored
        in ``module`` at ``node``."""
        from .findings import Finding

        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule.id,
            severity=rule.severity,
            message=message,
        )
