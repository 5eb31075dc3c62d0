"""The rule engine behind ``repro check``.

Responsibilities:

* a **rule registry** (:data:`RULE_REGISTRY`) populated by the
  :func:`python_rule` decorator in the rule modules;
* **file discovery** — ``.py`` files are parsed to an AST and ``.md``
  files contribute their fenced ```````python`````` blocks (at their
  true line numbers); nothing else is checked (spec files are
  validated when they load, by
  :class:`~repro.engine.spec.ExperimentSpec`);
* **suppressions** — a ``# repro: noqa[RULE1,RULE2]`` comment on the
  offending line silences those rules there (bare ``# repro: noqa``
  silences every rule on the line);
* **scoping** — each rule declares path fragments it applies to (and
  sanctioned exceptions), so e.g. determinism rules police
  ``repro/engine`` without flagging an example script.

The engine never *imports* the code it checks — analysis is purely
syntactic and file-local, so ``repro check`` is safe to run on broken
branches.
"""

from __future__ import annotations

import ast
import re
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
from .findings import Finding

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
            message=message,
        )


@dataclass(frozen=True)
class Rule:
    """One registered check.

    ``scope`` is a tuple of path fragments the rule applies to (empty =
    everywhere); ``exclude`` lists sanctioned locations inside that
    scope.  ``check(ctx, rule)`` sees one parsed source unit (a ``.py``
    file or a Markdown code block).
    """

    id: str
    name: str
    description: str
    scope: tuple
    exclude: tuple
    check: Callable[..., Iterable[Finding]]

    def applies_to(self, scope_path: str) -> bool:
        """Whether this rule runs on the file at ``scope_path``."""
        if self.scope and not any(s in scope_path for s in self.scope):
            return False
        return not any(e in scope_path for e in self.exclude)


RULE_REGISTRY: Registry[Rule] = Registry("rule id", "rules", StaticCheckError)


def python_rule(
    rule_id: str,
    *,
    name: str,
    description: str,
    scope: Sequence[str] = (),
    exclude: Sequence[str] = (),
) -> Callable[[Callable], Callable]:
    """Decorator registering an AST rule ``fn(ctx, rule) -> findings``."""

    def wrap(fn: Callable) -> Callable:
        RULE_REGISTRY.register(
            rule_id,
            Rule(
                id=rule_id,
                name=name,
                description=description,
                scope=tuple(scope),
                exclude=tuple(exclude),
                check=fn,
            ),
        )
        return fn

    return wrap


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
_CHECKED_SUFFIXES = (".py", ".md")


def _skipped(parts: Tuple[str, ...]) -> bool:
    if set(parts) & _SKIP_DIRS:
        return True
    return any(p.endswith(".egg-info") for p in parts)


def iter_source_files(paths: Sequence["str | Path"]) -> List[Path]:
    """Expand files/directories into the checkable file list.

    Directory walks skip other suffixes, caches, virtualenvs and build
    metadata (``.venv``/``__pycache__``/``*.egg-info`` and friends); an
    explicit file of another suffix is a usage error.
    """
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise StaticCheckError(f"no such file or directory: {path}")
        if path.is_file():
            if path.suffix not in _CHECKED_SUFFIXES:
                hint = (
                    "; spec files are validated by `repro run` / "
                    "ExperimentSpec.from_file"
                    if path.suffix in (".json", ".toml") else ""
                )
                raise StaticCheckError(
                    f"cannot check {path}: `repro check` reads "
                    f"{' and '.join(_CHECKED_SUFFIXES)} files{hint}"
                )
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

    Each entry is either a full rule id (``DET004``) or a family
    prefix (``DET``, ``TIME``) selecting every rule it prefixes.
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


def _rules(select: Optional[Set[str]]) -> List[Rule]:
    rules = list(RULE_REGISTRY.values())
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
) -> List[Finding]:
    """Check one Python source string (the unit-test entry point).

    ``scope_path`` feeds rule scope matching; pass e.g.
    ``"src/repro/engine/foo.py"`` to exercise rules scoped to the
    engine package regardless of where the snippet really lives.
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
                message=f"file does not parse: {exc.msg}",
            )
        ]
    ctx = PythonContext(
        path=path, scope_path=scope_path, source=source, tree=tree
    )
    findings: List[Finding] = []
    for rule in _rules(select):
        if rule.applies_to(scope_path):
            findings.extend(rule.check(ctx, rule))
    return _apply_noqa(sorted(findings), noqa_map(source))


def _check_markdown(
    text: str, path: str, select: Optional[Set[str]]
) -> List[Finding]:
    findings: List[Finding] = []
    for offset, block in iter_markdown_blocks(text):
        # Pad with blank lines so AST positions are file positions.
        findings.extend(
            check_source("\n" * offset + block, path=path, select=select)
        )
    return _apply_noqa(findings, noqa_map(text))


@dataclass
class CheckResult:
    """Outcome of one :func:`run_check` invocation."""

    findings: List[Finding] = field(default_factory=list)
    num_files: int = 0

    @property
    def ok(self) -> bool:
        """True when no finding survived suppression."""
        return not self.findings


def run_check(
    paths: Sequence["str | Path"],
    select: Optional[Iterable[str]] = None,
) -> CheckResult:
    """Check every file under ``paths``; the library entry point.

    ``select`` restricts to the given rule ids or family prefixes
    (unknown ids raise :class:`StaticCheckError` — a usage error, exit
    code 2 at the CLI).
    """
    selected: Optional[Set[str]] = None
    if select is not None:
        selected = expand_select(select)
    result = CheckResult()
    for path in iter_source_files(paths):
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue  # unreadable/binary files are not checkable
        result.num_files += 1
        if path.suffix == ".py":
            found = check_source(text, str(path), select=selected)
        else:
            found = _check_markdown(text, str(path), selected)
        result.findings.extend(found)
    result.findings.sort()
    return result

