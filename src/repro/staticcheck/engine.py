"""The rule engine behind ``repro check``.

Responsibilities:

* a **rule registry** (:data:`RULE_REGISTRY`) populated by the
  :func:`python_rule` / :func:`spec_rule` / :func:`project_rule`
  decorators in the rule modules;
* **file discovery** — ``.py`` files are parsed to an AST, ``.md``
  files contribute their fenced ```````python`````` blocks (at their
  true line numbers), and ``.json``/``.toml`` files that look like
  :class:`~repro.engine.spec.ExperimentSpec` documents go to the
  spec-feasibility rules;
* the **project pass** — the ``.py`` files' ASTs are additionally
  indexed into a whole-project module graph
  (:mod:`repro.staticcheck.project`) with interprocedural dataflow
  summaries (:mod:`repro.staticcheck.dataflow`), over which the FLOW
  family runs;
* **suppressions** — a ``# repro: noqa[RULE1,RULE2]`` comment on the
  offending line silences those rules there (bare ``# repro: noqa``
  silences every rule on the line), for per-file and project findings
  alike;
* **scoping** — each rule declares path fragments it applies to (and
  sanctioned exceptions), so e.g. determinism rules police
  ``repro/engine`` without flagging an example script.

The engine never *imports* the code it checks — analysis is purely
syntactic, so ``repro check`` is safe to run on untrusted specs and
broken branches alike.
"""

from __future__ import annotations

import ast
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..exceptions import ReproError
from ..registry import Registry
from .findings import Finding, Severity

#: Rule id for files that cannot be parsed at all.
SYNTAX_RULE = "GEN001"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)


class StaticCheckError(ReproError):
    """Usage errors of the checker itself (bad path, unknown rule)."""


@dataclass(frozen=True)
class PythonContext:
    """Everything a Python (AST) rule sees for one parsed source unit."""

    #: display path used in findings (as given on the command line).
    path: str
    #: posix-style path used for rule scope matching.
    scope_path: str
    source: str
    tree: ast.AST

    def finding(
        self, rule: "Rule", node: ast.AST, message: str
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule.id,
            severity=rule.severity,
            message=message,
        )


@dataclass(frozen=True)
class SpecContext:
    """What a spec-feasibility rule sees for one spec document."""

    path: str
    scope_path: str
    data: Mapping[str, object]

    def finding(self, rule: "Rule", message: str, line: int = 1) -> Finding:
        """Build a :class:`Finding` for this document."""
        return Finding(
            path=self.path,
            line=line,
            col=1,
            rule=rule.id,
            severity=rule.severity,
            message=message,
        )


@dataclass(frozen=True)
class Rule:
    """One registered check.

    ``scope`` is a tuple of path fragments the rule applies to (empty =
    everywhere); ``exclude`` lists sanctioned locations inside that
    scope.  ``kind`` is ``"python"`` (AST contexts, including markdown
    code blocks), ``"spec"`` (parsed JSON/TOML spec documents) or
    ``"project"`` (run once per checked module of the whole-project
    index).
    """

    id: str
    name: str
    description: str
    severity: Severity
    kind: str
    scope: tuple
    exclude: tuple
    check: Callable[..., Iterable[Finding]]

    def applies_to(self, scope_path: str) -> bool:
        """Whether this rule runs on the file at ``scope_path``."""
        if self.scope and not any(s in scope_path for s in self.scope):
            return False
        return not any(e in scope_path for e in self.exclude)


RULE_REGISTRY: Registry[Rule] = Registry("rule id", "rules", StaticCheckError)


def _make_decorator(kind: str) -> Callable[..., Callable]:
    def decorator(
        rule_id: str,
        *,
        name: str,
        description: str,
        severity: Severity = Severity.ERROR,
        scope: Sequence[str] = (),
        exclude: Sequence[str] = (),
    ) -> Callable[[Callable], Callable]:
        def wrap(fn: Callable) -> Callable:
            RULE_REGISTRY.register(
                rule_id,
                Rule(
                    id=rule_id,
                    name=name,
                    description=description,
                    severity=severity,
                    kind=kind,
                    scope=tuple(scope),
                    exclude=tuple(exclude),
                    check=fn,
                ),
            )
            return fn

        return wrap

    return decorator


python_rule = _make_decorator("python")
python_rule.__doc__ = (
    "Decorator registering an AST rule ``fn(ctx, rule) -> findings``."
)

spec_rule = _make_decorator("spec")
spec_rule.__doc__ = "Decorator registering a spec-document rule."

project_rule = _make_decorator("project")
project_rule.__doc__ = (
    "Decorator registering a per-module project rule "
    "``fn(ctx, rule, module) -> findings`` (ctx: ProjectContext)."
)


# ----------------------------------------------------------------------
# Suppressions


def noqa_map(source: str) -> Dict[int, Optional[Set[str]]]:
    """Per-line suppressions: line → set of rule ids, or ``None`` = all."""
    suppressions: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[lineno] = None
        else:
            suppressions[lineno] = {
                r.strip().upper() for r in rules.split(",") if r.strip()
            }
    return suppressions


def _apply_noqa(
    findings: Iterable[Finding],
    suppressions: Mapping[int, Optional[Set[str]]],
) -> List[Finding]:
    kept = []
    for f in findings:
        allowed = suppressions.get(f.line, ...)
        if allowed is None:
            continue  # bare noqa: everything suppressed on this line
        if allowed is not ... and f.rule in allowed:
            continue
        kept.append(f)
    return kept


# ----------------------------------------------------------------------
# File discovery

_SKIP_DIRS = {
    "__pycache__", ".git", ".ruff_cache", ".pytest_cache",
    ".venv", "venv", ".tox", ".mypy_cache", "node_modules",
    ".hypothesis",
}
_CHECKED_SUFFIXES = {".py", ".md", ".json", ".toml"}


def _skipped(parts: Tuple[str, ...]) -> bool:
    if set(parts) & _SKIP_DIRS:
        return True
    return any(p.endswith(".egg-info") for p in parts)


def iter_source_files(paths: Sequence["str | Path"]) -> List[Path]:
    """Expand files/directories into the checkable file list.

    Skips caches, virtualenvs and build metadata
    (``.venv``/``__pycache__``/``*.egg-info`` and friends).
    """
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise StaticCheckError(f"no such file or directory: {path}")
        if path.is_file():
            out.append(path)
            continue
        for sub in sorted(path.rglob("*")):
            if sub.suffix not in _CHECKED_SUFFIXES or not sub.is_file():
                continue
            if sub.name.startswith("."):
                continue  # dotfiles are tool state, not project sources
            if _skipped(sub.parts):
                continue
            out.append(sub)
    return out


# ----------------------------------------------------------------------
# Markdown fenced-block extraction

_FENCE_OPEN_RE = re.compile(r"^ {0,3}(?P<fence>`{3,}|~{3,})(?P<info>.*)$")

#: info-string languages whose blocks are parsed as Python source.
_PYTHON_LANGS = {"python", "python3", "py"}


def iter_markdown_blocks(text: str) -> List[Tuple[int, str]]:
    """``(lines_before_content, block_source)`` for every fenced
    Python block.

    Hardened against the realities of Markdown in the wild: CRLF line
    endings, info-string attributes after the language (```` ```python
    title="x" ````, ```` ```{.python} ````), longer/tilde fences, and
    **unterminated fences** — a fence never closed runs to end of file
    instead of being silently dropped.  Fences indented up to three
    spaces open blocks; their indentation is stripped from the body so
    the block still parses.
    """
    lines = text.split("\n")
    blocks: List[Tuple[int, str]] = []
    i, n = 0, len(lines)
    while i < n:
        line = lines[i].rstrip("\r")
        match = _FENCE_OPEN_RE.match(line)
        if match is None:
            i += 1
            continue
        fence = match.group("fence")
        info = match.group("info").strip()
        lang = info.split()[0] if info else ""
        lang = lang.strip("{}").lstrip(".").lower()
        indent = len(line) - len(line.lstrip(" "))
        close_re = re.compile(
            rf"^ {{0,3}}{re.escape(fence[0])}{{{len(fence)},}}\s*$"
        )
        body: List[str] = []
        j = i + 1
        closed = False
        while j < n:
            candidate = lines[j].rstrip("\r")
            if close_re.match(candidate):
                closed = True
                break
            body.append(
                candidate[indent:]
                if candidate[:indent].strip() == "" else candidate
            )
            j += 1
        if lang in _PYTHON_LANGS and body:
            blocks.append((i + 1, "\n".join(body)))
        i = j + 1 if closed else j
    return blocks


# ----------------------------------------------------------------------
# Rule selection


def expand_select(select: Iterable[str]) -> Set[str]:
    """Expand a ``--select`` list into concrete rule ids.

    Each entry is either a full rule id (``FLOW001``) or a family
    prefix (``FLOW``, ``DET``) selecting every rule it prefixes.
    Unknown entries raise :class:`StaticCheckError` (a usage error).
    """
    selected: Set[str] = set()
    for raw in select:
        entry = raw.strip().upper()
        if not entry:
            continue
        matches = {
            rule_id for rule_id in RULE_REGISTRY
            if rule_id == entry or rule_id.startswith(entry)
        }
        if entry == SYNTAX_RULE or SYNTAX_RULE.startswith(entry):
            matches.add(SYNTAX_RULE)
        if not matches:
            raise StaticCheckError(
                f"unknown rule id(s): {entry}; "
                "see `repro check --list-rules`"
            )
        selected |= matches
    return selected


def _rules(kind: str, select: Optional[Set[str]]) -> List[Rule]:
    rules = [r for r in RULE_REGISTRY.values() if r.kind == kind]
    if select is not None:
        rules = [r for r in rules if r.id in select]
    return sorted(rules, key=lambda r: r.id)


# ----------------------------------------------------------------------
# Per-file checking


def check_source(
    source: str,
    path: str = "<snippet>.py",
    scope_path: Optional[str] = None,
    select: Optional[Set[str]] = None,
    rule_seconds: Optional[Dict[str, float]] = None,
) -> List[Finding]:
    """Check one Python source string (the unit-test entry point).

    ``scope_path`` feeds rule scope matching; pass e.g.
    ``"src/repro/engine/foo.py"`` to exercise rules scoped to the
    engine package regardless of where the snippet really lives.
    ``rule_seconds`` (optional) accumulates per-rule wall time for
    ``--stats``.
    """
    return _check_python(source, path, scope_path, select, rule_seconds)[0]


def _check_python(
    source: str,
    path: str,
    scope_path: Optional[str],
    select: Optional[Set[str]],
    rule_seconds: Optional[Dict[str, float]],
) -> Tuple[List[Finding], Optional[ast.Module]]:
    """:func:`check_source` plus the parsed tree (``None`` when the
    source does not parse), which the project pass indexes as is."""
    scope_path = scope_path if scope_path is not None else path
    scope_path = Path(scope_path).as_posix()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                rule=SYNTAX_RULE,
                severity=Severity.ERROR,
                message=f"file does not parse: {exc.msg}",
            )
        ], None
    ctx = PythonContext(
        path=path, scope_path=scope_path, source=source, tree=tree
    )
    findings: List[Finding] = []
    for rule in _rules("python", select):
        if not rule.applies_to(scope_path):
            continue
        started = time.perf_counter()
        findings.extend(rule.check(ctx, rule))
        if rule_seconds is not None:
            rule_seconds[rule.id] = (
                rule_seconds.get(rule.id, 0.0)
                + time.perf_counter() - started
            )
    return _apply_noqa(sorted(findings), noqa_map(source)), tree


def check_spec_mapping(
    data: Mapping[str, object],
    path: str = "<spec>.json",
    select: Optional[Set[str]] = None,
) -> List[Finding]:
    """Run the spec-feasibility rules over one parsed spec mapping."""
    ctx = SpecContext(path=path, scope_path=Path(path).as_posix(), data=data)
    findings: List[Finding] = []
    for rule in _rules("spec", select):
        if rule.applies_to(ctx.scope_path):
            findings.extend(rule.check(ctx, rule))
    return sorted(findings)


def _looks_like_spec(data: object) -> bool:
    return (
        isinstance(data, Mapping)
        and "scheme" in data
        and "num_workers" in data
    )


def _check_markdown(
    text: str,
    path: str,
    select: Optional[Set[str]],
    rule_seconds: Optional[Dict[str, float]] = None,
) -> List[Finding]:
    findings: List[Finding] = []
    for offset, block in iter_markdown_blocks(text):
        # Pad with blank lines so AST positions are file positions.
        findings.extend(
            check_source(
                "\n" * offset + block,
                path=path,
                select=select,
                rule_seconds=rule_seconds,
            )
        )
    return _apply_noqa(findings, noqa_map(text))


def _check_data_file(
    path: Path, text: str, select: Optional[Set[str]]
) -> List[Finding]:
    if path.suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            return [
                Finding(
                    path=str(path),
                    line=exc.lineno,
                    col=exc.colno,
                    rule=SYNTAX_RULE,
                    severity=Severity.ERROR,
                    message=f"invalid JSON: {exc.msg}",
                )
            ]
    else:  # .toml
        try:
            import tomllib
        except ImportError:  # pragma: no cover - Python 3.10
            return []  # tomllib is 3.11+; TOML specs are skipped there
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            return [
                Finding(
                    path=str(path),
                    line=1,
                    col=1,
                    rule=SYNTAX_RULE,
                    severity=Severity.ERROR,
                    message=f"invalid TOML: {exc}",
                )
            ]
    if not _looks_like_spec(data):
        return []
    return check_spec_mapping(data, path=str(path), select=select)


@dataclass
class CheckResult:
    """Outcome of one :func:`run_check` invocation."""

    findings: List[Finding] = field(default_factory=list)
    num_files: int = 0
    #: per-file wall time (display path → seconds), for ``--stats``
    #: and the JSON report's ``timing`` section.
    file_seconds: Dict[str, float] = field(default_factory=dict)
    #: per-rule wall time across all files (project pass included).
    rule_seconds: Dict[str, float] = field(default_factory=dict)
    #: modules in the project index (0 when the pass was skipped).
    project_modules: int = 0
    total_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when no finding survived suppression."""
        return not self.findings


def run_check(
    paths: Sequence["str | Path"],
    select: Optional[Iterable[str]] = None,
    *,
    project: bool = True,
) -> CheckResult:
    """Check every file under ``paths``; the library entry point.

    ``select`` restricts to the given rule ids or family prefixes
    (unknown ids raise :class:`StaticCheckError` — a usage error, exit
    code 2 at the CLI).  ``project=False`` skips the whole-project pass
    (FLOW).
    """
    started_total = time.perf_counter()
    selected: Optional[Set[str]] = None
    if select is not None:
        selected = expand_select(select)
    result = CheckResult()
    # resolved path → (source, tree) of every checked .py file.
    parsed: Dict[Path, Tuple[str, Optional[ast.Module]]] = {}
    py_files: List[Path] = []
    for path in iter_source_files(paths):
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue  # unreadable/binary files are not checkable
        result.num_files += 1
        display = str(path)
        started = time.perf_counter()
        if path.suffix == ".py":
            found, tree = _check_python(
                text, display, None, selected, result.rule_seconds
            )
            parsed[path.resolve()] = (text, tree)
            py_files.append(path)
        elif path.suffix == ".md":
            found = _check_markdown(
                text, display, selected, result.rule_seconds
            )
        else:
            found = _check_data_file(path, text, selected)
        result.findings.extend(found)
        result.file_seconds[display] = time.perf_counter() - started
    if project and py_files and _rules("project", selected):
        _run_project_pass(py_files, parsed, selected, result)
    result.findings.sort()
    result.total_seconds = time.perf_counter() - started_total
    return result


# ----------------------------------------------------------------------
# The project pass


def _display_path(path: Path) -> str:
    try:
        return str(path.relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def _build_index(
    py_files: Sequence[Path],
    parsed: Mapping[Path, Tuple[str, Optional[ast.Module]]],
) -> "ProjectIndex":
    """Build the project index over the checked files' packages,
    reusing the trees the per-file pass already parsed."""
    from .project import (
        ModuleInfo, ProjectIndex, index_module, module_name_for,
    )

    # Complete packages: interprocedural flow needs every module of a
    # package even when only a sub-path was asked for.  Package dirs
    # are deduplicated before globbing — expanding per seed file would
    # re-resolve every package member once per seed.
    all_files: Dict[Path, None] = {}
    package_dirs: Dict[Path, None] = {}
    for f in py_files:
        all_files.setdefault(f.resolve())
        root, name = module_name_for(f)
        pkg_dir = root / name.split(".")[0]
        if (pkg_dir / "__init__.py").exists():
            package_dirs.setdefault(pkg_dir)
    for pkg_dir in sorted(package_dirs):
        for sub in sorted(pkg_dir.rglob("*.py")):
            if not _skipped(sub.parts):
                all_files.setdefault(sub.resolve())
    modules: Dict[str, ModuleInfo] = {}
    for f in all_files:
        _, name = module_name_for(f)
        if f in parsed:
            text, tree = parsed[f]
        else:
            try:
                text = f.read_text(encoding="utf-8")
                tree = ast.parse(text)
            except (OSError, UnicodeDecodeError, SyntaxError):
                continue
        if tree is None:
            continue  # reported as GEN001 by the per-file pass
        display = _display_path(f)
        if name in modules:
            # standalone-module stem collision (two directories each
            # with a conftest.py): key by path-derived name.
            name = Path(display).with_suffix("").as_posix().replace("/", ".")
        modules[name] = index_module(
            name, text, tree,
            path=display, scope_path=Path(display).as_posix(),
        )
    return ProjectIndex(modules)


def _run_project_pass(
    py_files: Sequence[Path],
    parsed: Mapping[Path, Tuple[str, Optional[ast.Module]]],
    selected: Optional[Set[str]],
    result: CheckResult,
) -> None:
    from .dataflow import analyze_project
    from .project import ProjectContext

    started = time.perf_counter()
    index = _build_index(py_files, parsed)
    result.project_modules = len(index.modules)
    checked_paths = set()
    for f in py_files:
        checked_paths.add(_display_path(f))
        checked_paths.add(str(f))

    rules = _rules("project", selected)
    work = []
    for name in sorted(index.modules):
        info = index.modules[name]
        if info.path not in checked_paths:
            continue
        applicable = [r for r in rules if r.applies_to(info.scope_path)]
        if applicable:
            work.append((info, applicable))

    # The dataflow summaries cover the whole index (callees may live
    # in unchecked modules), but are only built when a rule will run.
    ctx = ProjectContext(index=index)
    if work:
        ctx.summaries = analyze_project(index)
    for info, applicable in work:
        module_findings: List[Finding] = []
        for rule in applicable:
            rule_started = time.perf_counter()
            module_findings.extend(rule.check(ctx, rule, info))
            result.rule_seconds[rule.id] = (
                result.rule_seconds.get(rule.id, 0.0)
                + time.perf_counter() - rule_started
            )
        result.findings.extend(
            _apply_noqa(module_findings, noqa_map(info.source))
        )
    result.file_seconds["<project pass>"] = (
        time.perf_counter() - started
    )


# ----------------------------------------------------------------------
# Shared AST helpers used by several rule modules.


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> Optional[str]:
    """The last identifier of a Name/Attribute (``c`` of ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None
