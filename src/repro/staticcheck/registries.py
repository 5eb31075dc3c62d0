"""Registry-hygiene rules (REG0xx).

PR 2 made the system *open for extension, closed for modification*:
strategies come from :func:`repro.engine.spec.make_strategy` (backed
by ``@register_scheme`` factories) and execution backends from
``@register_backend`` factories.  Library code that hand-constructs a
strategy or backend bypasses the registries — it silently diverges
from what ``repro run <spec>`` would build and breaks spec
round-tripping.  These rules keep the library honest:

* ``REG001`` — a ``*Strategy`` class constructed in library code
  outside the registered factories (``engine/spec.py``) or the class
  definitions themselves (``training/strategies.py``);
* ``REG002`` — a ``*Backend`` constructed outside the factories
  (``engine/plan.py``);
* ``REG003`` — a ``@register_scheme`` factory whose signature cannot
  round-trip spec ``scheme_params`` (missing ``**params``) or a
  ``@register_backend`` factory that does not take the build context.
* ``REG004`` — a ``*Repetition``/``*Placement`` class constructed in
  library code outside the placement registry
  (:mod:`repro.core.scheme`) or the conflict-graph substrate
  (``core/conflict.py``, which validates parameters via the
  constructors); everything else goes through
  ``make_placement(<family>, ...)`` so registry, spec, CLI and
  decode-cache-key construction stay identical.
* ``REG005`` — an environment model (delay / failure / compute /
  network / contention class) constructed in library code outside the
  environment registry (:mod:`repro.env`) or the defining packages
  (``repro/straggler``, ``repro/simulation``); everything else goes
  through ``make_delay_model(<kind>, ...)`` and friends so registry,
  spec, CLI and fingerprint construction stay identical.

Examples and tests are intentionally out of scope: demonstrating the
low-level object API is part of their job.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, List, Optional

from .engine import PythonContext, Rule, python_rule, terminal_name
from .findings import Finding

_STRATEGY_RE = re.compile(r"^[A-Z]\w*Strategy$")
_BACKEND_RE = re.compile(r"^[A-Z]\w*Backend$")
_PLACEMENT_RE = re.compile(r"^[A-Z]\w*(Repetition|Placement)$")

#: Every class the environment registry builds — the REG005 targets.
#: Kept in sync with the ``@register_*`` factories in
#: ``repro/env/registry.py`` (pinned by ``tests/test_staticcheck``).
ENV_MODEL_CLASSES = frozenset({
    "NoDelay", "ExponentialDelay", "ShiftedExponentialDelay",
    "ParetoDelay", "BernoulliStraggler", "PersistentStragglers",
    "DiurnalDelay", "BurstyDelay", "MixtureDelay", "TraceReplayModel",
    "NoFailures", "PermanentCrashes", "TransientDropouts",
    "CompositeFailures",
    "ComputeModel", "HeterogeneousComputeModel",
    "NetworkModel", "ContendedUploadModel",
})

#: Only library code is policed (tests/examples teach the object API).
LIBRARY_SCOPE = ("repro/",)


def _decorator_name(dec: ast.AST) -> Optional[str]:
    """Name of a decorator, unwrapping a call like ``@register_x(...)``."""
    if isinstance(dec, ast.Call):
        dec = dec.func
    return terminal_name(dec)


def _direct_constructions(
    ctx: PythonContext,
    rule: Rule,
    is_target: Callable[[str], object],
    advice: str,
) -> List[Finding]:
    """One finding per ``Name(...)`` call whose class name ``is_target``
    accepts — the visitor REG001/002/004/005 share; they differ only in
    which names they police and what they advise instead."""
    findings = []
    # A module may build instances of its own classes.
    local_classes = {
        node.name
        for node in ast.walk(ctx.tree)
        if isinstance(node, ast.ClassDef)
    }
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = terminal_name(node.func)
        if name is None or name in local_classes or not is_target(name):
            continue
        findings.append(ctx.finding(
            rule, node, f"{name}(...) constructed directly; {advice}"
        ))
    return findings


@python_rule(
    "REG001",
    name="strategy-outside-factory",
    description=(
        "Library code must obtain strategies via make_strategy / the "
        "SCHEME_REGISTRY so specs, CLI and code agree on construction."
    ),
    scope=LIBRARY_SCOPE,
    exclude=(
        "training/strategies.py",  # the class definitions themselves
        "engine/spec.py",          # the registered factories
        "staticcheck/",            # this checker's own pattern tables
    ),
)
def check_strategy_construction(
    ctx: PythonContext, rule: Rule
) -> List[Finding]:
    """Flag direct ``SomeStrategy(...)`` constructions in library code."""
    return _direct_constructions(
        ctx, rule, _STRATEGY_RE.match,
        "library code should go through make_strategy(<scheme>, ...) "
        "so registry, spec and CLI construction stay identical",
    )


@python_rule(
    "REG002",
    name="backend-outside-factory",
    description=(
        "Library code must obtain execution backends via the "
        "@register_backend factories so specs, CLI and code agree on "
        "construction."
    ),
    scope=LIBRARY_SCOPE,
    exclude=(
        "engine/backends.py",  # the class definitions themselves
        "engine/plan.py",      # the registered factories
        "staticcheck/",
    ),
)
def check_backend_construction(
    ctx: PythonContext, rule: Rule
) -> List[Finding]:
    """Flag direct ``SomeBackend(...)`` constructions in library code."""
    return _direct_constructions(
        ctx, rule, _BACKEND_RE.match,
        "register a backend factory with @register_backend and build "
        "through the BACKEND_REGISTRY",
    )


@python_rule(
    "REG004",
    name="placement-outside-registry",
    description=(
        "Library code must obtain placements via make_placement / the "
        "PLACEMENT_REGISTRY so CLI, specs, library code and decode-cache "
        "keys agree on construction."
    ),
    scope=LIBRARY_SCOPE,
    exclude=(
        "core/scheme.py",    # the registered placement families themselves
        "core/conflict.py",  # substrate: validates params via constructors
        "staticcheck/",      # this checker's own pattern tables
    ),
)
def check_placement_construction(
    ctx: PythonContext, rule: Rule
) -> List[Finding]:
    """Flag direct ``*Repetition(...)``/``*Placement(...)`` calls in
    library code."""
    return _direct_constructions(
        ctx, rule, _PLACEMENT_RE.match,
        "library code should go through make_placement(<family>, ...) "
        "so registry, spec, CLI and decode-cache-key construction stay "
        "identical",
    )


@python_rule(
    "REG005",
    name="env-model-outside-registry",
    description=(
        "Library code must obtain environment models (delay/failure/"
        "compute/network/contention) via make_delay_model & friends / "
        "the ENV_REGISTRY so CLI, specs, library code and environment "
        "fingerprints agree on construction."
    ),
    scope=LIBRARY_SCOPE,
    exclude=(
        "repro/straggler/",   # the delay/failure class definitions
        "repro/simulation/",  # compute/network/contention definitions
        "repro/env/",         # the sanctioned construction layer
        "staticcheck/",       # this checker's own pattern tables
    ),
)
def check_env_model_construction(
    ctx: PythonContext, rule: Rule
) -> List[Finding]:
    """Flag direct environment-model constructions in library code."""
    return _direct_constructions(
        ctx, rule, ENV_MODEL_CLASSES.__contains__,
        "library code should go through make_delay_model / "
        "make_failure_model / make_compute_model / make_network_model / "
        "make_contention_model so registry, spec, CLI and fingerprint "
        "construction stay identical",
    )


@python_rule(
    "REG003",
    name="registered-factory-signature",
    description=(
        "@register_scheme factories must accept **params (otherwise "
        "spec scheme_params cannot round-trip); @register_backend "
        "factories must take the BuildContext argument."
    ),
)
def check_factory_signatures(ctx: PythonContext, rule: Rule) -> List[Finding]:
    """Validate the calling convention of registered factories."""
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        decorators = {
            _decorator_name(d) for d in node.decorator_list
        }
        if "register_scheme" in decorators:
            if node.args.kwarg is None:
                findings.append(ctx.finding(
                    rule, node,
                    f"scheme factory {node.name}() has no **params "
                    "catch-all, so ExperimentSpec.scheme_params cannot "
                    "round-trip through it; add **params",
                ))
            else:
                accepted = {
                    a.arg
                    for a in (*node.args.args, *node.args.kwonlyargs)
                }
                missing = {
                    "num_workers", "partitions_per_worker",
                    "wait_for", "rng",
                } - accepted
                # **params swallows whatever is not named explicitly —
                # naming num_workers is still required because every
                # factory needs it to build a placement.
                if "num_workers" in missing:
                    findings.append(ctx.finding(
                        rule, node,
                        f"scheme factory {node.name}() does not accept "
                        "num_workers, which make_strategy always passes",
                    ))
        if "register_backend" in decorators:
            positional = [*node.args.posonlyargs, *node.args.args]
            if len(positional) != 1 and node.args.kwarg is None:
                findings.append(ctx.finding(
                    rule, node,
                    f"backend factory {node.name}() must take exactly "
                    "one argument (the BuildContext)",
                ))
    return findings
