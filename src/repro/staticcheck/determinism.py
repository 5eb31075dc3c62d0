"""Determinism rules (DET0xx).

The repo's reproducibility story — golden bit-for-bit trajectories,
trace replays, paired scheme comparisons — rests on one discipline:
**all randomness flows through an injected, seeded
``np.random.Generator``, and all time is simulated**.  One stray
``np.random.randn`` or ``time.time()`` in the engine silently breaks
every Fig. 11–13 result.  These rules make the discipline checkable:

* ``DET001`` — module-level RNG calls (``np.random.randn``,
  ``random.shuffle``, …) anywhere in the tree;
* ``DET002`` — wall-clock reads (``time.time``, ``datetime.now``, …)
  inside the deterministic core packages;
* ``DET003`` — ``default_rng()`` with no seed anywhere in the
  library, docs and examples (entropy-seeded generators cannot be
  replayed, and doc/example snippets get copy-pasted);
* ``DET004`` — ordering hazards (``list(set(...))``, ``os.listdir``,
  unsorted ``glob``/``iterdir``) inside the core packages.

"Core packages" are ``repro/engine``, ``repro/simulation``,
``repro/codes`` and ``repro/core`` — the code on the replay path.
Deliberate exceptions (e.g. an explicitly documented entropy-seeded
fallback) carry ``# repro: noqa[DET003]`` with a justification.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from .engine import PythonContext, Rule, dotted_name, python_rule
from .findings import Finding

#: Packages on the deterministic replay path.
CORE_SCOPE = (
    "repro/engine/",
    "repro/simulation/",
    "repro/codes/",
    "repro/core/",
)

#: Everywhere an unseeded ``default_rng()`` can break replay: the whole
#: library plus the runnable docs/examples (DET003 only — the other
#: determinism rules stay on the core replay path).
SEEDED_RNG_SCOPE = ("repro/", "docs/", "examples/", "README.md")

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

#: Wall-clock reads; the simulator clock is the only time source.
WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "date.today", "datetime.date.today",
})


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
        "The deterministic core must never read the wall clock; all "
        "time is simulated (ClusterSimulator.clock and friends)."
    ),
    scope=CORE_SCOPE,
)
def check_wall_clock(ctx: PythonContext, rule: Rule) -> List[Finding]:
    """Flag ``time.time()``, ``datetime.now()`` etc. in core packages."""
    findings = []
    for call in _calls(ctx.tree):
        dotted = dotted_name(call.func)
        if dotted in WALL_CLOCK:
            findings.append(ctx.finding(
                rule, call,
                f"{dotted}() reads the wall clock; simulated components "
                "must take time from the simulator clock",
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


@python_rule(
    "DET004",
    name="ordering-hazard",
    description=(
        "Set/filesystem iteration order is not deterministic across "
        "runs and platforms; wrap in sorted() in the core packages."
    ),
    scope=CORE_SCOPE,
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
        elif isinstance(node, ast.For):
            it = node.iter
            if (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id == "set"
            ):
                findings.append(ctx.finding(
                    rule, it,
                    "iterating a set() directly follows hash order; "
                    "iterate sorted(set(...))",
                ))
    return findings
