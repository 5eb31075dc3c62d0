"""Intra-/inter-procedural dataflow over the project index.

Tracks three value kinds through assignments, calls, returns and
keyword arguments — everything the FLOW rules need, nothing more:

* ``gen`` — a ``numpy.random.Generator`` (from ``default_rng(...)``,
  a ``rng``-named parameter/attribute, or a call to a function whose
  summary says it returns one);
* ``seed`` — a seed-valued integer (seed-named parameters and
  variables); ``derived-seed`` marks seeds produced by *arithmetic*
  (``seed + i``), the pattern that breaks stream independence;
* ``time`` — a wall-clock read (``time.time()`` and friends).

Values wrapped by the sanctioned constructors — ``SeedSequence(...)``,
``.spawn(...)`` on a seed sequence, ``spawn_point_seeds(...)`` — lose
their tags: derivation in SeedSequence space is exactly the fix the
rules prescribe.

The analysis is flow-insensitive within a function (assignment effects
are iterated to a small fixpoint) and summary-based across functions:
:func:`summarize_module` extracts plain-data per-function summaries
(parameters, returned tags, consumed parameters, outgoing calls), and
:func:`propagate` closes them over the call graph.
"""

from __future__ import annotations

import ast
import re
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .project import ModuleInfo, ProjectIndex

GEN = "gen"
SEED = "seed"
DERIVED_SEED = "derived-seed"
TIME = "time"

#: identifier patterns treated as Generator-carrying when no assignment
#: says otherwise (``rng``, ``_rng``, ``fairness_rng``, ``generator``).
_RNG_NAME_RE = re.compile(r"(^|_)rngs?$|(^|_)generators?$|^random_state$")

#: seed-named identifiers (``seed``, ``base_seed``, ``seed0`` …); seed
#: *sequences* are the sanctioned carrier and stay untagged.
_SEED_NAME_RE = re.compile(r"seed(?!_?seq|_?sequence)")

#: constructors/wrappers that launder a value into the safe domain.
SAFE_WRAPPERS = frozenset({
    "SeedSequence", "spawn", "spawn_point_seeds", "PointTask",
})

#: Generator methods that do NOT consume draws from the stream.
_NON_CONSUMING_METHODS = frozenset({"spawn", "bit_generator"})

#: wall-clock reads (kept in sync with the DET002 table).
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "date.today", "datetime.date.today",
})

_GEN_SOURCES = frozenset({
    "default_rng", "np.random.default_rng", "numpy.random.default_rng",
    "Generator", "np.random.Generator", "numpy.random.Generator",
})


def name_is_rngish(name: str) -> bool:
    """Heuristic: does this identifier conventionally hold a Generator?"""
    return bool(_RNG_NAME_RE.search(name.lstrip("_").lower()))


def name_is_seedish(name: str) -> bool:
    """Heuristic: does this identifier conventionally hold a seed int?"""
    return bool(_SEED_NAME_RE.search(name.lstrip("_").lower()))


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def param_tags_for(args: ast.arguments) -> Dict[str, Set[str]]:
    """Initial tags for a function's parameters (names + annotations)."""
    tags: Dict[str, Set[str]] = {}
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        t: Set[str] = set()
        ann = ast.unparse(arg.annotation) if arg.annotation else ""
        if name_is_rngish(arg.arg) or "Generator" in ann:
            t.add(GEN)
        elif name_is_seedish(arg.arg) and "Sequence" not in ann:
            t.add(SEED)
        if t:
            tags[arg.arg] = t
    return tags


class ExprTags:
    """Tags-of-expression evaluator for one lexical scope.

    ``env`` maps local names to tag sets — an *explicit* entry (even an
    empty one) beats the name heuristics, so ``seeds = ss.spawn(n)``
    stays safe no matter what the variable is called.  ``parent`` chains
    lexical scopes (lambda → enclosing function → module).
    """

    def __init__(
        self,
        env: Optional[Dict[str, Set[str]]] = None,
        *,
        class_attrs: Optional[Mapping[str, Set[str]]] = None,
        summary_lookup=None,
        parent: Optional["ExprTags"] = None,
    ):
        self.env = env if env is not None else {}
        self.class_attrs = dict(class_attrs or {})
        self._summary_lookup = summary_lookup
        self.parent = parent

    def _lookup_name(self, name: str) -> Optional[Set[str]]:
        scope: Optional[ExprTags] = self
        while scope is not None:
            if name in scope.env:
                return scope.env[name]
            scope = scope.parent
        return None

    def _callee_returns(self, call: ast.Call) -> Optional[Set[str]]:
        if self._summary_lookup is None:
            return None
        dotted = _dotted(call.func)
        if dotted is None:
            return None
        summary = self._summary_lookup(dotted)
        if summary is None:
            return None
        return set(summary.get("returns_tags", ()))

    def tags(self, node: ast.AST) -> Set[str]:
        """The tag set an expression may carry."""
        if isinstance(node, ast.Name):
            found = self._lookup_name(node.id)
            if found is not None:
                return set(found)
            if name_is_rngish(node.id):
                return {GEN}
            if name_is_seedish(node.id):
                return {SEED}
            return set()
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.class_attrs
            ):
                return set(self.class_attrs[node.attr])
            if name_is_rngish(node.attr):
                return {GEN}
            if name_is_seedish(node.attr):
                return {SEED}
            return set()
        if isinstance(node, ast.Call):
            func = node.func
            terminal = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None
            )
            if terminal in SAFE_WRAPPERS:
                if terminal == "spawn":
                    # Generator.spawn returns Generators; SeedSequence
                    # (or anything untagged) spawns safe children.
                    recv = (
                        self.tags(func.value)
                        if isinstance(func, ast.Attribute) else set()
                    )
                    return {GEN} if GEN in recv else set()
                return set()
            dotted = _dotted(func)
            if dotted is not None:
                normal = (
                    "np." + dotted[len("numpy."):]
                    if dotted.startswith("numpy.") else dotted
                )
                if normal in _GEN_SOURCES or dotted in _GEN_SOURCES:
                    return {GEN}
                if dotted in _WALL_CLOCK or normal in _WALL_CLOCK:
                    return {TIME}
            from_summary = self._callee_returns(node)
            if from_summary:
                return from_summary
            if isinstance(func, ast.Attribute):
                # method calls on tagged values produce plain data
                # (rng.integers(...) is an int), except .spawn above.
                return set()
            return set()
        if isinstance(node, ast.BinOp):
            left, right = self.tags(node.left), self.tags(node.right)
            merged = left | right
            if SEED in merged:
                merged.add(DERIVED_SEED)
            return merged
        if isinstance(node, ast.UnaryOp):
            return self.tags(node.operand)
        if isinstance(node, ast.IfExp):
            return self.tags(node.body) | self.tags(node.orelse)
        if isinstance(node, ast.BoolOp):
            out: Set[str] = set()
            for value in node.values:
                out |= self.tags(value)
            return out
        if isinstance(node, ast.Subscript):
            return self.tags(node.value)
        if isinstance(node, ast.Starred):
            return self.tags(node.value)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = set()
            for elt in node.elts:
                out |= self.tags(elt)
            return out
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self.tags(node.elt)
        if isinstance(node, ast.NamedExpr):
            return self.tags(node.value)
        if isinstance(node, ast.Await):
            return self.tags(node.value)
        return set()


def build_env(
    body: Sequence[ast.stmt],
    base_env: Dict[str, Set[str]],
    *,
    class_attrs: Optional[Mapping[str, Set[str]]] = None,
    summary_lookup=None,
    parent: Optional[ExprTags] = None,
    passes: int = 3,
) -> ExprTags:
    """Flow-insensitive assignment analysis of one scope body.

    Iterates the assignment transfer a few times so chains
    (``a = rng; b = a``) converge; explicit (re)assignment to a safe
    value clears heuristic tags.
    """
    scope = ExprTags(
        dict(base_env),
        class_attrs=class_attrs,
        summary_lookup=summary_lookup,
        parent=parent,
    )

    def bind(target: ast.AST, tags: Set[str]) -> None:
        if isinstance(target, ast.Name):
            scope.env[target.id] = set(tags)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                bind(elt, tags)
        elif isinstance(target, ast.Starred):
            bind(target.value, tags)

    statements: List[ast.stmt] = []
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested scopes summarised separately
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                                 ast.For, ast.AsyncFor, ast.withitem)):
                statements.append(node)  # type: ignore[arg-type]
    for _ in range(passes):
        for node in statements:
            if isinstance(node, ast.Assign):
                tags = scope.tags(node.value)
                for target in node.targets:
                    bind(target, tags)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                bind(node.target, scope.tags(node.value))
            elif isinstance(node, ast.AugAssign):
                extra = scope.tags(node.value) | scope.tags(node.target)
                if SEED in extra:
                    extra.add(DERIVED_SEED)
                bind(node.target, extra)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                bind(node.target, scope.tags(node.iter))
            elif isinstance(node, ast.withitem) and node.optional_vars:
                bind(node.optional_vars, scope.tags(node.context_expr))
    return scope


# ----------------------------------------------------------------------
# Function summaries


def _class_attr_tags(
    tree: ast.Module,
) -> Dict[str, Dict[str, Set[str]]]:
    """Per-class ``self.<attr>`` tags, from one pass over method bodies."""
    out: Dict[str, Dict[str, Set[str]]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        attrs: Dict[str, Set[str]] = {}
        for method in node.body:
            if not isinstance(
                method, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            env = build_env(
                method.body, dict(param_tags_for(method.args)), passes=2
            )
            for sub in ast.walk(method):
                if isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            tags = env.tags(sub.value)
                            if tags:
                                attrs.setdefault(
                                    target.attr, set()
                                ).update(tags)
        if attrs:
            out[node.name] = attrs
    return out


def _iter_functions(
    tree: ast.Module,
) -> List[Tuple[str, Optional[str], ast.AST]]:
    """``(qualname, enclosing_class, node)`` for defs and methods."""
    out: List[Tuple[str, Optional[str], ast.AST]] = []

    def visit(body: Sequence[ast.stmt], prefix: str, cls: Optional[str]):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((f"{prefix}{node.name}", cls, node))
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", node.name)

    visit(tree.body, "", None)
    return out


def summarize_module(info: ModuleInfo) -> Dict[str, Any]:
    """Local (single-module) dataflow summary.

    Returns ``{"functions": {qual: summary}, "class_attrs":
    {Class: {attr: [tags]}}}`` where every summary is plain data.
    """
    class_attrs = _class_attr_tags(info.tree)

    def resolve_local(dotted: str) -> List[str]:
        """Fully-qualified candidates for a dotted local name."""
        head = dotted.split(".")[0]
        rest = dotted[len(head):]
        candidates = []
        if head in info.aliases:
            candidates.append(info.aliases[head] + rest)
        if head in info.symbols:
            candidates.append(f"{info.name}.{dotted}")
        return candidates

    functions: Dict[str, Any] = {}
    for qual, cls, node in _iter_functions(info.tree):
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        params = [
            a.arg
            for a in (*node.args.posonlyargs, *node.args.args,
                      *node.args.kwonlyargs)
        ]
        p_tags = param_tags_for(node.args)
        env = build_env(
            node.body,
            dict(p_tags),
            class_attrs=class_attrs.get(cls or "", {}),
        )
        returns_tags: Set[str] = set()
        return_callees: List[str] = []
        consumed: Set[str] = set()
        consumes_ambient = False
        calls: List[Dict[str, Any]] = []
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if sub is not node:
                    continue
            if isinstance(sub, ast.Return) and sub.value is not None:
                returns_tags |= env.tags(sub.value)
                if isinstance(sub.value, ast.Call):
                    dotted = _dotted(sub.value.func)
                    if dotted is not None:
                        if (
                            dotted.startswith("self.")
                            and cls is not None
                        ):
                            return_callees.append(
                                f"{info.name}.{cls}{dotted[4:]}"
                            )
                        else:
                            return_callees.extend(resolve_local(dotted))
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            # consumption: a draw-taking method on a gen-tagged value.
            if isinstance(func, ast.Attribute):
                recv_tags = env.tags(func.value)
                if (
                    GEN in recv_tags
                    and func.attr not in _NON_CONSUMING_METHODS
                ):
                    consumes_ambient_here = True
                    # consumed *via a parameter* is not ambient.
                    if (
                        isinstance(func.value, ast.Name)
                        and func.value.id in params
                    ):
                        consumed.add(func.value.id)
                        consumes_ambient_here = False
                    consumes_ambient = (
                        consumes_ambient or consumes_ambient_here
                    )
            dotted = _dotted(func)
            callee: List[str] = []
            self_method = None
            if dotted is not None:
                if dotted.startswith("self.") and "." not in dotted[5:]:
                    self_method = dotted[5:]
                    if cls is not None:
                        callee = [f"{info.name}.{cls}.{self_method}"]
                else:
                    callee = resolve_local(dotted)
            if not callee and self_method is None:
                continue
            arg_descs = []
            for arg in sub.args:
                arg_descs.append({
                    "param": arg.id
                    if isinstance(arg, ast.Name) and arg.id in params
                    else None,
                    "tags": sorted(env.tags(arg)),
                })
            kw_descs = {}
            for kw in sub.keywords:
                if kw.arg is None:
                    continue
                kw_descs[kw.arg] = {
                    "param": kw.value.id
                    if isinstance(kw.value, ast.Name)
                    and kw.value.id in params
                    else None,
                    "tags": sorted(env.tags(kw.value)),
                }
            calls.append({
                "callee": callee,
                "method_call": isinstance(func, ast.Attribute),
                "args": arg_descs,
                "kwargs": kw_descs,
            })
        functions[qual] = {
            "params": params,
            "param_tags": {k: sorted(v) for k, v in p_tags.items()},
            "returns_tags": sorted(returns_tags),
            "return_callees": sorted(set(return_callees)),
            "consuming_params": sorted(consumed),
            "consumes_ambient_gen": consumes_ambient,
            "calls": calls,
        }
    return {
        "functions": functions,
        "class_attrs": {
            cls: {attr: sorted(tags) for attr, tags in attrs.items()}
            for cls, attrs in class_attrs.items()
        },
    }


def make_summary_lookup(
    summaries: Mapping[str, Mapping[str, Any]], index: ProjectIndex
):
    """``dotted fully-qualified name → function summary`` resolver."""

    def lookup(dotted: str) -> Optional[Mapping[str, Any]]:
        located = index.resolve_function(dotted)
        if located is None:
            return None
        mod, qual = located
        module_summary = summaries.get(mod)
        if module_summary is None:
            return None
        return module_summary.get("functions", {}).get(qual)

    return lookup


def propagate(
    summaries: Dict[str, Dict[str, Any]],
    index: ProjectIndex,
    *,
    max_passes: int = 12,
) -> Dict[str, Dict[str, Any]]:
    """Close the local summaries over the call graph (fixpoint).

    Propagates three facts until stable (or ``max_passes``):

    * a function returning a call to a Generator-returning function
      itself returns ``gen``;
    * a parameter forwarded into a callee's consuming parameter is
      itself consuming;
    * calling a function that consumes an ambient Generator — or
      passing it a gen-tagged argument bound to a consuming parameter —
      makes the caller ambient-consuming too.
    """
    lookup = make_summary_lookup(summaries, index)

    def callee_summaries(call: Mapping[str, Any]):
        for cand in call.get("callee", ()):
            found = lookup(cand)
            if found is not None:
                yield found

    for _ in range(max_passes):
        changed = False
        for module_summary in summaries.values():
            for summary in module_summary.get("functions", {}).values():
                returns = set(summary["returns_tags"])
                for cand in summary.get("return_callees", ()):
                    callee = lookup(cand)
                    if callee and GEN in callee.get("returns_tags", ()):
                        returns.add(GEN)
                if returns != set(summary["returns_tags"]):
                    summary["returns_tags"] = sorted(returns)
                    changed = True
                consuming = set(summary["consuming_params"])
                ambient = summary["consumes_ambient_gen"]
                for call in summary.get("calls", ()):
                    for callee in callee_summaries(call):
                        if callee.get("consumes_ambient_gen"):
                            ambient = True
                        c_params = list(callee.get("params", ()))
                        if (
                            call.get("method_call")
                            and c_params[:1] == ["self"]
                        ):
                            c_params = c_params[1:]
                        c_consuming = set(
                            callee.get("consuming_params", ())
                        )
                        for i, desc in enumerate(call.get("args", ())):
                            target = (
                                c_params[i] if i < len(c_params) else None
                            )
                            if target not in c_consuming:
                                continue
                            if desc.get("param"):
                                consuming.add(desc["param"])
                            elif GEN in desc.get("tags", ()):
                                ambient = True
                        for name, desc in call.get("kwargs", {}).items():
                            if name not in c_consuming:
                                continue
                            if desc.get("param"):
                                consuming.add(desc["param"])
                            elif GEN in desc.get("tags", ()):
                                ambient = True
                if consuming != set(summary["consuming_params"]):
                    summary["consuming_params"] = sorted(consuming)
                    changed = True
                if ambient != summary["consumes_ambient_gen"]:
                    summary["consumes_ambient_gen"] = ambient
                    changed = True
        if not changed:
            break
    return summaries


def analyze_project(index: ProjectIndex) -> Dict[str, Dict[str, Any]]:
    """Summarise every indexed module and run propagation to fixpoint."""
    summaries = {
        name: summarize_module(info) for name, info in index.modules.items()
    }
    return propagate(summaries, index)
