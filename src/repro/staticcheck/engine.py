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
* the **project pass** — ``.py`` files are additionally indexed into a
  whole-project module graph (:mod:`repro.staticcheck.project`) with
  interprocedural dataflow summaries
  (:mod:`repro.staticcheck.dataflow`), over which the FLOW/XREG/XIMP
  families run; per-module results are cacheable, invalidated
  transitively through the import graph;
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
import copy
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
    ``"project"`` (the whole-project index).  Project rules carry a
    ``granularity``: ``"module"`` checks run once per indexed module
    (and their findings cache per module, keyed by the module's import-
    closure digest); ``"project"`` checks run once per index.
    """

    id: str
    name: str
    description: str
    severity: Severity
    kind: str
    scope: tuple
    exclude: tuple
    check: Callable[..., Iterable[Finding]]
    granularity: str = "file"

    def applies_to(self, scope_path: str) -> bool:
        """Whether this rule runs on the file at ``scope_path``."""
        if self.scope and not any(s in scope_path for s in self.scope):
            return False
        return not any(e in scope_path for e in self.exclude)


RULE_REGISTRY: Registry[Rule] = Registry("rule id", "rules", StaticCheckError)


def _make_decorator(
    kind: str, granularity: str = "file"
) -> Callable[..., Callable]:
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
                    granularity=granularity,
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

project_rule = _make_decorator("project", granularity="module")
project_rule.__doc__ = (
    "Decorator registering a per-module project rule "
    "``fn(ctx, rule, module) -> findings`` (ctx: ProjectContext)."
)

project_wide_rule = _make_decorator("project", granularity="project")
project_wide_rule.__doc__ = (
    "Decorator registering a whole-index project rule "
    "``fn(ctx, rule) -> findings``."
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
                continue  # dotfiles: the checker's own cache/baseline
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
        ]
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
    return _apply_noqa(sorted(findings), noqa_map(source))


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
    #: per-rule wall time across all files (project pass included,
    #: attributed per rule family under ``PROJECT``).
    rule_seconds: Dict[str, float] = field(default_factory=dict)
    #: incremental-cache accounting (zero when no cache attached).
    cache_hits: int = 0
    cache_misses: int = 0
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
    cache: Optional["AnalysisCache"] = None,
    project: bool = True,
) -> CheckResult:
    """Check every file under ``paths``; the library entry point.

    ``select`` restricts to the given rule ids or family prefixes
    (unknown ids raise :class:`StaticCheckError` — a usage error, exit
    code 2 at the CLI).  ``cache`` attaches an incremental
    :class:`~repro.staticcheck.cache.AnalysisCache`; ``project=False``
    skips the whole-project pass (FLOW/XREG/XIMP).
    """
    started_total = time.perf_counter()
    selected: Optional[Set[str]] = None
    if select is not None:
        selected = expand_select(select)
    result = CheckResult()
    if cache is not None:
        cache.ensure_ruleset(_ruleset_signature(selected))
    texts: Dict[Path, str] = {}
    py_files: List[Path] = []
    for path in iter_source_files(paths):
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue  # unreadable/binary files are not checkable
        result.num_files += 1
        display = str(path)
        started = time.perf_counter()
        cached = (
            cache.get_file_findings(display, text)
            if cache is not None else None
        )
        if cached is not None:
            result.findings.extend(cached)
            result.cache_hits += 1
        else:
            if path.suffix == ".py":
                found = check_source(
                    text, path=display, select=selected,
                    rule_seconds=result.rule_seconds,
                )
            elif path.suffix == ".md":
                found = _check_markdown(
                    text, display, selected, result.rule_seconds
                )
            else:
                found = _check_data_file(path, text, selected)
            result.findings.extend(found)
            if cache is not None:
                cache.put_file_findings(display, text, found)
                result.cache_misses += 1
        if path.suffix == ".py":
            texts[path.resolve()] = text
            py_files.append(path)
        result.file_seconds[display] = time.perf_counter() - started
    if project and py_files and _rules("project", selected):
        _run_project_pass(
            py_files, texts, selected, cache, result
        )
    if cache is not None:
        cache.save()
    result.findings.sort()
    result.total_seconds = time.perf_counter() - started_total
    return result


def _ruleset_signature(selected: Optional[Set[str]]) -> str:
    import hashlib

    parts = sorted(RULE_REGISTRY)
    parts.append("select=" + (",".join(sorted(selected)) if selected else "*"))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


# ----------------------------------------------------------------------
# The project pass


def _detect_repo_root(index) -> Optional[Path]:
    """The repository root, inferred from the indexed package layout
    (``<root>/src/repro/...`` → ``<root>``)."""
    from .project import module_name_for

    for info in index.modules.values():
        if not info.name.startswith("repro"):
            continue
        try:
            pkg_root, _ = module_name_for(Path(info.path))
        except OSError:  # pragma: no cover - defensive
            continue
        return pkg_root.parent if pkg_root.name == "src" else pkg_root
    return None


def _build_index(py_files: Sequence[Path], texts: Mapping[Path, str],
                 cache) -> "object":
    """Build the project index, rebuilding unchanged modules from
    cached shards (no re-parse) where possible."""
    from .project import (
        ModuleInfo, ProjectIndex, content_hash, module_name_for,
        parse_module,
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
        pkg_root, name = module_name_for(f)
        text = texts.get(f)
        if text is None:
            try:
                text = f.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError):
                continue
        try:
            display = str(f.relative_to(Path.cwd()))
        except ValueError:
            display = str(f)
        if name in modules:
            # standalone-module stem collision (two directories each
            # with a conftest.py): key by path-derived name.
            name = Path(display).with_suffix("").as_posix().replace("/", ".")
        info = None
        if cache is not None:
            shard = cache.get_shard(display, content_hash(text))
            if shard is not None:
                info = ModuleInfo.from_shard(shard)
                info.source = text
        if info is None:
            info = parse_module(
                name, text, path=display,
                scope_path=Path(display).as_posix(),
            )
        if info is not None:
            modules[info.name] = info
    return ProjectIndex(modules)


def _run_project_pass(
    py_files: Sequence[Path],
    texts: Mapping[Path, str],
    selected: Optional[Set[str]],
    cache,
    result: CheckResult,
) -> None:
    from .dataflow import propagate, summarize_module
    from .project import ProjectContext, parse_module

    started = time.perf_counter()
    index = _build_index(py_files, texts, cache)
    result.project_modules = len(index.modules)
    checked_paths = set()
    for f in py_files:
        try:
            checked_paths.add(str(f.relative_to(Path.cwd())))
        except ValueError:
            checked_paths.add(str(f))
        checked_paths.add(str(f))

    def ensure_tree(info):
        if info.tree is None:
            parsed = parse_module(
                info.name, info.source,
                path=info.path, scope_path=info.scope_path,
            )
            if parsed is not None:
                index.modules[info.name] = parsed
                index.by_path[parsed.path] = parsed
                return parsed
        return info

    module_rules = [
        r for r in _rules("project", selected) if r.granularity == "module"
    ]
    wide_rules = [
        r for r in _rules("project", selected) if r.granularity == "project"
    ]

    # Digest-first: decide which modules actually need re-analysis.
    # On a warm no-change run everything hits, and the expensive
    # dataflow pass (summaries + propagation) is skipped entirely.
    ctx = ProjectContext(index=index, root=_detect_repo_root(index))
    project_findings: List[Finding] = []
    dirty: List[Tuple[str, str, List[Rule]]] = []
    for name in sorted(index.modules):
        info = index.modules[name]
        if info.path not in checked_paths:
            continue
        applicable = [
            r for r in module_rules if r.applies_to(info.scope_path)
        ]
        if not applicable:
            continue
        digest = index.closure_digest(name)
        cached = (
            cache.get_module_findings(info.path, digest)
            if cache is not None else None
        )
        if cached is not None:
            project_findings.extend(cached)
            result.cache_hits += 1
        else:
            dirty.append((name, digest, applicable))

    wide_digest = _global_digest(index, ctx) if wide_rules else ""
    wide_cached = (
        cache.get_project_findings(wide_digest)
        if cache is not None and wide_rules else None
    )
    wide_miss = bool(wide_rules) and wide_cached is None

    if dirty or wide_miss:
        # Local dataflow summaries (index shards), then propagation.
        local_summaries: Dict[str, Dict] = {}
        for name in sorted(index.modules):
            info = index.modules[name]
            summary = (
                cache.get_summary(info.path, info.content_hash)
                if cache is not None else None
            )
            if summary is None:
                info = ensure_tree(info)
                if info.tree is None:
                    continue
                summary = summarize_module(info)
                if cache is not None:
                    cache.put_shard(
                        info.path, info.content_hash,
                        info.to_shard(), summary,
                    )
                summary = copy.deepcopy(summary)
            local_summaries[name] = summary
        ctx.summaries = propagate(local_summaries, index)

    for name, digest, applicable in dirty:
        info = ensure_tree(index.modules[name])
        if info.tree is None:
            continue
        module_findings: List[Finding] = []
        for rule in applicable:
            rule_started = time.perf_counter()
            module_findings.extend(rule.check(ctx, rule, info))
            result.rule_seconds[rule.id] = (
                result.rule_seconds.get(rule.id, 0.0)
                + time.perf_counter() - rule_started
            )
        module_findings = _apply_noqa(
            sorted(module_findings), noqa_map(info.source)
        )
        if cache is not None:
            cache.put_module_findings(info.path, digest, module_findings)
            result.cache_misses += 1
        project_findings.extend(module_findings)

    if wide_rules:
        if wide_cached is not None:
            project_findings.extend(
                f for f in wide_cached if f.path in checked_paths
            )
            result.cache_hits += 1
        else:
            wide_findings: List[Finding] = []
            for rule in wide_rules:
                rule_started = time.perf_counter()
                wide_findings.extend(rule.check(ctx, rule))
                result.rule_seconds[rule.id] = (
                    result.rule_seconds.get(rule.id, 0.0)
                    + time.perf_counter() - rule_started
                )
            kept: List[Finding] = []
            for f in sorted(wide_findings):
                info = index.by_path.get(f.path)
                source = info.source if info is not None else ""
                if _apply_noqa([f], noqa_map(source)):
                    kept.append(f)
            if cache is not None:
                cache.put_project_findings(wide_digest, kept)
                result.cache_misses += 1
            project_findings.extend(
                f for f in kept if f.path in checked_paths
            )

    result.findings.extend(project_findings)
    result.file_seconds["<project pass>"] = (
        time.perf_counter() - started
    )


def _global_digest(index, ctx) -> str:
    """Validity key for whole-index findings: every module's content
    plus the auxiliary evidence files (goldens, docs catalogues)."""
    import hashlib

    parts: List[str] = []
    for name in sorted(index.modules):
        parts.append(name)
        parts.append(index.modules[name].content_hash)
    for aux in (
        "tests/golden/placement_schemes.json",
        "tests/golden/environments.json",
        "docs/placements.md",
        "docs/environments.md",
    ):
        text = ctx.aux_text(aux)
        parts.append(aux)
        parts.append(
            "" if text is None
            else hashlib.sha256(text.encode("utf-8")).hexdigest()
        )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


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
