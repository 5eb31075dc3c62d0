"""Determinism rules (DET0xx).

The repo's reproducibility story — golden bit-for-bit trajectories,
trace replays, paired scheme comparisons — rests on one discipline:
**all randomness flows through an injected, seeded
``np.random.Generator``, and all time is simulated**.  One stray
``np.random.randn`` or ``time.time()`` in the engine silently breaks
every Fig. 11–13 result.  These rules make the discipline checkable:

* ``DET001`` — module-level RNG calls (``np.random.randn``,
  ``random.shuffle``, …) anywhere in the tree;
* ``DET002`` — wall-clock reads (``time.time``, ``datetime.now``, an
  event loop's ``.time()``, …) anywhere in the library but the three
  sites that time real work (:data:`WALL_CLOCK_EXCLUDE`);
* ``DET003`` — ``default_rng()`` with no seed anywhere in the
  library, docs and examples (entropy-seeded generators cannot be
  replayed, and doc/example snippets get copy-pasted);
* ``DET004`` — ordering hazards (``list(set(...))``, a ``for`` loop or
  comprehension over a set, ``os.listdir``, unsorted
  ``glob``/``iterdir``) in every package that feeds replayable state.

DET004 covers the replay path (``repro/engine``, ``repro/simulation``,
``repro/codes``, ``repro/core``) and the packages that draw from or
order seeded streams around it (straggler and environment models,
training, parallel sweeps, experiments, analysis, partial recovery);
``repro/serve`` is left out, its filesystem globs are
order-independent.
Deliberate exceptions (e.g. an explicitly documented entropy-seeded
fallback) carry ``# repro: noqa[DET003]`` with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from .engine import PythonContext, Rule, python_rule
from .findings import Finding

#: DET004's scope: the replay path plus every package whose iteration
#: order reaches an RNG stream or a reported result.
ORDERING_SCOPE = (
    "repro/engine/",
    "repro/simulation/",
    "repro/codes/",
    "repro/core/",
    "repro/straggler/",
    "repro/training/",
    "repro/parallel/",
    "repro/experiments/",
    "repro/analysis/",
    "repro/env/",
    "repro/partial/",
)

#: The library.  Anchored at ``src/``: scopes match path substrings,
#: and a checkout directory that is itself named ``repro`` must not
#: pull ``tests/`` in.
LIBRARY = "src/repro/"

#: Everywhere an unseeded ``default_rng()`` can break replay: the whole
#: library plus the runnable docs/examples (DET003 only).
SEEDED_RNG_SCOPE = (LIBRARY, "docs/", "examples/", "README.md")

#: ``np.random.<fn>`` module-level calls that consume global RNG state.
BANNED_NP_RANDOM = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "seed", "normal",
    "uniform", "standard_normal", "poisson", "exponential", "binomial",
    "beta", "gamma", "get_state", "set_state", "RandomState",
})

#: stdlib ``random.<fn>`` equivalents.
BANNED_STDLIB_RANDOM = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "seed", "betavariate", "expovariate",
    "normalvariate", "triangular", "vonmisesvariate",
})

#: Wall-clock sources, called or merely referenced; the simulator
#: clock is the only time source.  ``time.sleep`` is not one: sleeping
#: paces execution without producing a value.
WALL_CLOCK = frozenset(
    {
        f"time.{attr}"
        for attr in (
            "time", "time_ns", "monotonic", "monotonic_ns",
            "perf_counter", "perf_counter_ns",
            "process_time", "process_time_ns",
        )
    }
    | {
        f"{cls}.{attr}"
        for cls in ("datetime", "datetime.datetime")
        for attr in ("now", "utcnow", "today")
    }
    | {"date.today", "datetime.date.today"}
    | {f"{loop}.time" for loop in ("loop", "_loop", "event_loop")}
)

#: The sites that read a wall clock on purpose; nothing they read
#: enters a replayable result.
WALL_CLOCK_EXCLUDE = (
    "repro/serve/mailbox.py",  # client polling with real timeouts
    "repro/parallel/executor.py",  # elapsed-time reporting per point
    "repro/experiments/sweep.py",  # elapsed-time reporting per sweep
)


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


def _normalize(dotted: str) -> str:
    """Collapse the common numpy aliases to the canonical ``np.``."""
    if dotted.startswith("numpy."):
        return "np." + dotted[len("numpy."):]
    return dotted


def _calls(tree: ast.AST) -> Iterable[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@python_rule(
    "DET001",
    name="unseeded-module-rng",
    description=(
        "Module-level RNG calls (np.random.*, random.*) consume hidden "
        "global state; inject a seeded np.random.default_rng(seed) "
        "instead so runs replay bit-for-bit."
    ),
)
def check_module_rng(ctx: PythonContext, rule: Rule) -> List[Finding]:
    """Flag ``np.random.<fn>(...)`` and stdlib ``random.<fn>(...)``."""
    findings = []
    imports_stdlib_random = any(
        isinstance(node, ast.Import)
        and any(alias.name == "random" for alias in node.names)
        for node in ast.walk(ctx.tree)
    )
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module in (
            "numpy.random", "random"
        ):
            banned = (
                BANNED_NP_RANDOM
                if node.module == "numpy.random"
                else BANNED_STDLIB_RANDOM
            )
            for alias in node.names:
                if alias.name in banned:
                    findings.append(ctx.finding(
                        rule, node,
                        f"`from {node.module} import {alias.name}` pulls in "
                        "global-state randomness; use "
                        "np.random.default_rng(seed)",
                    ))
    for call in _calls(ctx.tree):
        dotted = dotted_name(call.func)
        if dotted is None:
            continue
        dotted = _normalize(dotted)
        if dotted.startswith("np.random."):
            attr = dotted[len("np.random."):]
            if attr in BANNED_NP_RANDOM:
                findings.append(ctx.finding(
                    rule, call,
                    f"np.random.{attr} uses the global numpy RNG; use a "
                    "seeded np.random.default_rng(seed) generator",
                ))
        elif imports_stdlib_random and dotted.startswith("random."):
            attr = dotted[len("random."):]
            if attr in BANNED_STDLIB_RANDOM:
                findings.append(ctx.finding(
                    rule, call,
                    f"random.{attr} uses hidden global state; use a seeded "
                    "np.random.default_rng(seed) generator",
                ))
    return findings


@python_rule(
    "DET002",
    name="wall-clock-read",
    description=(
        "Library code must never read the wall clock (time.time()/"
        "monotonic()/perf_counter(), datetime.now(), an event loop's "
        ".time(), or a `from time import` of one); all time is "
        "simulated.  Sanctioned: serve/mailbox.py (client polling), "
        "parallel/executor.py and experiments/sweep.py (elapsed-time "
        "reporting)."
    ),
    scope=(LIBRARY,),
    exclude=WALL_CLOCK_EXCLUDE,
)
def check_wall_clock(ctx: PythonContext, rule: Rule) -> List[Finding]:
    """Flag wall-clock imports, calls and references."""
    findings = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names if a.name != "sleep"]
            if node.module in ("time", "datetime") and names:
                findings.append(ctx.finding(
                    rule, node,
                    f"`from {node.module} import {', '.join(names)}` "
                    "brings in a wall-clock source; take time from the "
                    "simulator clock",
                ))
        elif isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted in WALL_CLOCK:
                findings.append(ctx.finding(
                    rule, node,
                    f"{dotted} reads the wall clock; take time from the "
                    "simulator clock",
                ))
    return findings


@python_rule(
    "DET003",
    name="unseeded-default-rng",
    description=(
        "default_rng() without a seed draws OS entropy, so the run can "
        "never be replayed; pass a seed or accept an injected Generator."
    ),
    scope=SEEDED_RNG_SCOPE,
)
def check_unseeded_default_rng(
    ctx: PythonContext, rule: Rule
) -> List[Finding]:
    """Flag zero-argument ``default_rng()`` calls."""
    findings = []
    for call in _calls(ctx.tree):
        dotted = dotted_name(call.func)
        if dotted is None:
            continue
        if _normalize(dotted) in ("np.random.default_rng", "default_rng"):
            if not call.args and not call.keywords:
                findings.append(ctx.finding(
                    rule, call,
                    "default_rng() with no seed is entropy-seeded and "
                    "unreplayable; pass an explicit seed or Generator",
                ))
    return findings


_LISTDIR_CALLS = frozenset({"os.listdir", "glob.glob", "glob.iglob"})
_UNORDERED_PATH_METHODS = frozenset({"iterdir", "glob", "rglob"})


_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})
_SET_OPERATORS = (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)


def _hash_ordered(node: ast.AST) -> bool:
    """Is this iterable visibly a set: a set display or comprehension,
    a ``set``/``frozenset`` call, a set-algebra method call, or a
    ``& | - ^`` with a visibly-set operand?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id in ("set", "frozenset")
        return isinstance(func, ast.Attribute) and func.attr in _SET_METHODS
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPERATORS):
        return _hash_ordered(node.left) or _hash_ordered(node.right)
    return False


@python_rule(
    "DET004",
    name="ordering-hazard",
    description=(
        "Set/filesystem iteration order is not deterministic across "
        "runs and platforms; wrap in sorted() wherever the order can "
        "reach an RNG stream or a result."
    ),
    scope=ORDERING_SCOPE,
)
def check_ordering_hazards(ctx: PythonContext, rule: Rule) -> List[Finding]:
    """Flag order-dependent constructs that feed replayable state."""
    findings = []
    sorted_args = set()
    for call in _calls(ctx.tree):
        if isinstance(call.func, ast.Name) and call.func.id == "sorted":
            sorted_args.update(id(arg) for arg in call.args)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in ("list", "tuple")
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Call)
                and isinstance(node.args[0].func, ast.Name)
                and node.args[0].func.id == "set"
            ):
                findings.append(ctx.finding(
                    rule, node,
                    f"{func.id}(set(...)) materialises hash order; use "
                    "sorted(set(...))",
                ))
            dotted = dotted_name(func)
            if id(node) in sorted_args:
                continue
            if dotted in _LISTDIR_CALLS:
                findings.append(ctx.finding(
                    rule, node,
                    f"{dotted}() returns files in filesystem order; wrap "
                    "in sorted()",
                ))
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _UNORDERED_PATH_METHODS
            ):
                findings.append(ctx.finding(
                    rule, node,
                    f".{func.attr}() yields entries in filesystem order; "
                    "wrap in sorted()",
                ))
        elif isinstance(
            node, (ast.For, ast.AsyncFor, ast.comprehension)
        ) and _hash_ordered(node.iter):
            # Comprehensions count even under sorted(): draws taken per
            # element happen in hash order before the sort.
            findings.append(ctx.finding(
                rule, node.iter,
                "iterating a set directly follows hash order; "
                "iterate sorted(...)",
            ))
    return findings
