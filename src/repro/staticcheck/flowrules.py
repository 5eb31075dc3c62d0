"""Whole-project RNG dataflow rules (FLOW0xx).

These rules run on the project index (:mod:`repro.staticcheck.project`)
with interprocedural dataflow summaries
(:mod:`repro.staticcheck.dataflow`), so they see a
``numpy.random.Generator`` *flow* — through assignments, attributes,
calls and returns — rather than pattern-matching single expressions.

* ``FLOW001`` — a fairness-RNG Generator reaches a deterministic
  cached/batched kernel: an argument (or captured value inside a
  ``compute`` lambda) of a ``DecodeCache`` memoisation call
  (``get_or_compute`` / ``get_or_compute_batch`` / ``Decoder._memo`` /
  ``_memo_batch``) or of a ``repro.core.batch`` kernel carries a
  Generator.  The PR-4/6 contract: memoised kernels must be pure in
  ``(placement, available)`` — a Generator inside one means the second
  identical round *skips the draw* and every stream downstream shifts.
* ``FLOW002`` — a raw Generator or an arithmetically derived seed
  crosses a process-pool dispatch (``submit``/``map``/… or a
  ``SweepExecutor.run``).  Generators do not survive pickling with
  their stream intact, and ``seed + i`` children are correlated; ship
  parent-spawned ``SeedSequence`` children instead (see
  ``docs/parallelism.md``).
* ``FLOW003`` — a Generator is consumed inside a loop over a set (or
  set-returning expression), so the *order* of draws depends on hash
  iteration order; iterate a sorted view instead.
"""

from __future__ import annotations

import ast
from typing import Any, Callable, Iterator, List, Mapping, Optional, Tuple

from .dataflow import (
    DERIVED_SEED,
    GEN,
    _NON_CONSUMING_METHODS,
    ExprTags,
    _class_attr_tags,
    _iter_functions,
    build_env,
    make_summary_lookup,
    param_tags_for,
)
from .engine import Rule, dotted_name, project_rule
from .findings import Finding
from .project import ModuleInfo, ProjectContext

#: memoisation entry points of the decode layer (``repro.parallel.
#: cache.DecodeCache`` and the ``Decoder._memo*`` helpers over it).
_MEMO_METHODS = frozenset({
    "get_or_compute", "get_or_compute_batch", "_memo", "_memo_batch",
})

#: the batched-kernel module: every function there is a deterministic
#: whole-round kernel and must never see a Generator.
_BATCH_MODULE = "repro.core.batch"

#: methods that ship work (and its arguments) across a pool boundary
#: (``SweepExecutor.run`` included).
_DISPATCH_METHODS = frozenset({
    "submit", "map", "map_async", "starmap", "starmap_async",
    "apply", "apply_async", "imap", "imap_unordered", "run",
})

#: receiver names that mark a dispatch-method call as a pool dispatch
#: even without a visible pool constructor.
_POOLISH_FRAGMENTS = ("pool", "executor")

#: set-producing call names whose iteration order is hash-dependent.
_SET_CALLS = frozenset({
    "set", "frozenset", "intersection", "union", "difference",
    "symmetric_difference",
})


def _function_scope(
    info: ModuleInfo,
    ctx: ProjectContext,
    cls: Optional[str],
    node: ast.AST,
    class_attrs: Mapping[str, Any],
) -> Tuple[ExprTags, Callable[[str], Optional[Mapping[str, Any]]]]:
    """Build the tag environment + local-name summary resolver for one
    function body."""
    fq_lookup = make_summary_lookup(ctx.summaries, ctx.index)

    def local_lookup(dotted: str) -> Optional[Mapping[str, Any]]:
        if dotted.startswith("self.") and cls is not None:
            return (
                ctx.summaries.get(info.name, {})
                .get("functions", {})
                .get(f"{cls}.{dotted[5:]}")
            )
        head = dotted.split(".")[0]
        rest = dotted[len(head):]
        candidates = []
        if head in info.aliases:
            candidates.append(info.aliases[head] + rest)
        if head in info.symbols:
            candidates.append(f"{info.name}.{dotted}")
        for cand in candidates:
            found = fq_lookup(cand)
            if found is not None:
                return found
        return None

    env = build_env(
        node.body,
        dict(param_tags_for(node.args)),
        class_attrs=class_attrs.get(cls or "", {}),
        summary_lookup=local_lookup,
    )
    return env, local_lookup


def _consumptions(
    body: "ast.AST | List[ast.stmt]",
    env: ExprTags,
    lookup: Callable[[str], Optional[Mapping[str, Any]]],
) -> Iterator[Tuple[ast.AST, str]]:
    """Yield ``(node, how)`` for every Generator consumption under
    ``body`` — direct draws and calls that consume one transitively."""
    nodes = body if isinstance(body, list) else [body]
    for root in nodes:
        for sub in ast.walk(root):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if isinstance(func, ast.Attribute):
                if (
                    GEN in env.tags(func.value)
                    and func.attr not in _NON_CONSUMING_METHODS
                ):
                    yield sub, f"draws from {ast.unparse(func.value)}"
                    continue
            dotted = dotted_name(func)
            if dotted is None:
                continue
            summary = lookup(dotted)
            if summary is None:
                continue
            if summary.get("consumes_ambient_gen"):
                yield sub, f"{dotted}() consumes a Generator internally"
                continue
            params = list(summary.get("params", ()))
            if params[:1] == ["self"] and isinstance(func, ast.Attribute):
                params = params[1:]
            consuming = set(summary.get("consuming_params", ()))
            hit = False
            for i, arg in enumerate(sub.args):
                target = params[i] if i < len(params) else None
                if target in consuming and GEN in env.tags(arg):
                    hit = True
            for kw in sub.keywords:
                if kw.arg in consuming and GEN in env.tags(kw.value):
                    hit = True
            if hit:
                yield sub, f"{dotted}() draws from the Generator passed in"


def _each_function(info: ModuleInfo):
    """``(qualname, cls, node, class_attrs)`` for every function in a
    module (class-attribute tags computed once)."""
    class_attrs = _class_attr_tags(info.tree)
    for qual, cls, node in _iter_functions(info.tree):
        yield qual, cls, node, class_attrs


@project_rule(
    "FLOW001",
    name="gen-into-cached-kernel",
    description=(
        "A numpy Generator flows into a DecodeCache-memoised or "
        "repro.core.batch kernel. Memoised/batched kernels must be "
        "deterministic in (placement, available): a cache hit on the "
        "second identical round would silently skip the RNG draw and "
        "shift every downstream stream. Draw outside the kernel and "
        "pass the drawn values in."
    ),
    scope=("repro/",),
)
def check_gen_into_cached_kernel(
    ctx: ProjectContext, rule: Rule, info: ModuleInfo
) -> List[Finding]:

    """Flag Generator-tainted values flowing into memoised kernels."""
    findings: List[Finding] = []
    for _, cls, node, class_attrs in _each_function(info):
        env, lookup = _function_scope(info, ctx, cls, node, class_attrs)
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            sink = None
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MEMO_METHODS
            ):
                sink = f".{func.attr}()"
            else:
                dotted = dotted_name(func)
                if dotted is not None:
                    resolved = ctx.index.resolve(
                        info.name, dotted
                    ) or dotted
                    located = ctx.index.resolve_function(resolved)
                    if located is not None and located[0] == _BATCH_MODULE:
                        sink = f"{_BATCH_MODULE}.{located[1]}()"
            if sink is None:
                continue
            for arg in [*sub.args, *(kw.value for kw in sub.keywords)]:
                if isinstance(arg, ast.Lambda):
                    lam_env = ExprTags(
                        {a.arg: set() for a in (
                            *arg.args.posonlyargs, *arg.args.args,
                            *arg.args.kwonlyargs,
                        )},
                        parent=env,
                    )
                    for consumption, how in _consumptions(
                        arg.body, lam_env, lookup
                    ):
                        findings.append(ctx.finding(
                            rule, info, consumption,
                            f"compute callback of {sink} {how}; memoised "
                            "kernels must be RNG-free (draw before "
                            "memoising, pass results in)",
                        ))
                    continue
                if GEN in env.tags(arg):
                    findings.append(ctx.finding(
                        rule, info, arg,
                        f"Generator ({ast.unparse(arg)}) passed into "
                        f"deterministic kernel {sink}; cached/batched "
                        "kernels must not take RNG draws",
                    ))
    return findings


@project_rule(
    "FLOW002",
    name="gen-across-pool",
    description=(
        "A raw numpy Generator or an arithmetically derived seed "
        "(seed + i) flows into a process-pool dispatch "
        "(submit/map/SweepExecutor.run). Generators do not cross "
        "pickling with their stream intact and arithmetic seeds are "
        "correlated across workers; spawn SeedSequence children in "
        "the parent (np.random.SeedSequence(seed).spawn(n))."
    ),
    scope=("repro/",),
)
def check_gen_across_pool(
    ctx: ProjectContext, rule: Rule, info: ModuleInfo
) -> List[Finding]:
    """Flag Generators or derived seeds crossing a process boundary."""
    findings: List[Finding] = []
    for _, cls, node, class_attrs in _each_function(info):
        env, _ = _function_scope(info, ctx, cls, node, class_attrs)
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _DISPATCH_METHODS
            ):
                continue
            receiver = (dotted_name(func.value) or "").lower()
            if not any(f in receiver for f in _POOLISH_FRAGMENTS):
                continue
            for arg in [*sub.args, *(kw.value for kw in sub.keywords)]:
                tags = env.tags(arg)
                if GEN in tags:
                    findings.append(ctx.finding(
                        rule, info, arg,
                        f"Generator ({ast.unparse(arg)}) shipped across "
                        f"the .{func.attr}() pool boundary; spawn "
                        "SeedSequence children in the parent and build "
                        "Generators inside the worker",
                    ))
                elif DERIVED_SEED in tags:
                    findings.append(ctx.finding(
                        rule, info, arg,
                        f"arithmetically derived seed "
                        f"({ast.unparse(arg)}) crosses the "
                        f".{func.attr}() pool boundary; derive per-task "
                        "seeds with SeedSequence.spawn in the parent",
                    ))
    return findings


def _set_like(node: ast.AST) -> bool:
    """Is this iterable's iteration order hash-dependent?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = (
            func.attr if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else None
        )
        if name in ("sorted", "list", "tuple"):
            return False
        return name in _SET_CALLS
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        # ``a & b`` etc. only when an operand is visibly a set.
        return _set_like(node.left) or _set_like(node.right)
    return False


@project_rule(
    "FLOW003",
    name="gen-order-hash-dependent",
    description=(
        "A Generator is consumed inside a loop over a set (or other "
        "hash-ordered iterable), so the order of draws — and therefore "
        "every downstream stream — depends on hash iteration order. "
        "Iterate sorted(...) instead."
    ),
    scope=("repro/",),
)
def check_gen_order_hash_dependent(
    ctx: ProjectContext, rule: Rule, info: ModuleInfo
) -> List[Finding]:
    """Flag Generator draws inside hash-ordered (set/dict) iteration."""
    findings: List[Finding] = []
    for _, cls, node, class_attrs in _each_function(info):
        env, lookup = _function_scope(info, ctx, cls, node, class_attrs)
        loops: List[Tuple[ast.AST, List[ast.stmt]]] = []
        for sub in ast.walk(node):
            if isinstance(sub, (ast.For, ast.AsyncFor)) and _set_like(
                sub.iter
            ):
                loops.append((sub.iter, sub.body))
            elif isinstance(
                sub, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                      ast.DictComp)
            ):
                for comp in sub.generators:
                    if _set_like(comp.iter):
                        elts = (
                            [sub.key, sub.value]
                            if isinstance(sub, ast.DictComp)
                            else [sub.elt]
                        )
                        loops.append((comp.iter, elts))
        for iterable, body in loops:
            for consumption, how in _consumptions(
                list(body), env, lookup
            ):
                findings.append(ctx.finding(
                    rule, info, consumption,
                    f"Generator draw inside a loop over "
                    f"{ast.unparse(iterable)} ({how}); set iteration "
                    "order is hash-dependent, so draw order is not "
                    "reproducible — iterate sorted(...) instead",
                ))
    return findings
