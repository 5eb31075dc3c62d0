"""Spec-feasibility rules (SPEC0xx).

An :class:`~repro.engine.spec.ExperimentSpec` can describe a placement
that cannot exist: ``CR(n, c)`` with ``c = n`` (every pair of workers
conflicts — Theorem 1 leaves at most one usable payload), ``FR``
without ``c | n``, an HR split violating Theorem 5–7's group
constraints, or a ``wait_for`` outside the ``1 ≤ w ≤ n`` range in
which the Theorem 10/11 recovery bounds are even defined.  Today such
a spec fails deep inside a run — or worse, silently degenerates.
These rules validate spec *documents* (``examples/specs/*.json`` /
``.toml``) and literal ``ExperimentSpec(...)`` constructions without
executing anything:

* ``SPEC001`` — an infeasible JSON/TOML spec file;
* ``SPEC002`` — an infeasible literal ``ExperimentSpec(...)`` call in
  non-test Python code (tests construct invalid specs on purpose).

:func:`spec_feasibility_problems` is the shared validator; every
message cites the violated constraint so the fix is obvious from the
report alone.  Placement feasibility itself is delegated to the
placement registry's static hooks
(:func:`repro.core.scheme.placement_spec_problems` →
``PlacementScheme.spec_problems``), so a newly registered family's
constraints are checked here without touching this module — including
the generic ``is-gc`` scheme, whose ``scheme_params["placement"]``
selects the family (typos get the same did-you-mean message
``repro run`` raises).  Which family a scheme runs over is read from
:data:`repro.engine.spec.SCHEME_FAMILIES`, the table the spec engine
builds its presets from.
"""

from __future__ import annotations

import ast
from typing import Any, FrozenSet, List, Mapping

from .engine import PythonContext, Rule, SpecContext, python_rule, spec_rule, terminal_name
from .findings import Finding


def spec_feasibility_problems(
    data: Mapping[str, Any],
    unresolved: FrozenSet[str] = frozenset(),
) -> List[str]:
    """Constraint violations of one spec mapping, as messages.

    Purely arithmetic — nothing is imported or executed, so the checks
    are safe on untrusted input.  ``unresolved`` names spec fields
    whose values were not statically known (e.g. a computed
    ``wait_for`` in a literal spec); checks involving them are skipped
    rather than guessed at.
    """
    from ..core.scheme import placement_spec_problems, spec_int
    from ..engine.spec import SCHEME_FAMILIES

    problems: List[str] = []
    scheme = data.get("scheme")
    n = spec_int(data.get("num_workers"))
    if n is None or n < 1:
        problems.append(
            "num_workers must be a positive integer, got "
            f"{data.get('num_workers')!r}"
        )
        return problems  # everything below needs a valid n

    c = spec_int(data.get("partitions_per_worker", 1))
    c_known = "partitions_per_worker" not in unresolved
    if c_known and (c is None or not 1 <= c <= n):
        problems.append(
            "partitions_per_worker must satisfy 1 <= c <= n "
            "(each worker stores c of the n partitions); got "
            f"c={data.get('partitions_per_worker')!r}, n={n}"
        )
        c_known = False

    # ------------------------------------------------------------------
    # Placement feasibility per scheme — dispatched through the
    # placement registry's arithmetic-only static hooks, so every
    # registered family (and any future one) is checked uniformly.
    # Unresolved scheme_params skip it: HR's and is-gc's family
    # parameters live there.
    if "scheme_params" not in unresolved:
        params = data.get("scheme_params", {})
        if not isinstance(params, Mapping):
            problems.append(f"scheme_params must be a mapping, got {params!r}")
            params = {}
        params = dict(params)
        family = (
            SCHEME_FAMILIES.get(scheme) if isinstance(scheme, str) else None
        )
        if scheme == "is-gc":
            family = params.pop("placement", family)
        if family is not None:
            problems.extend(placement_spec_problems(
                family,
                num_workers=n,
                partitions_per_worker=c if c_known else None,
                declared="partitions_per_worker" in data and c_known,
                params=params,
            ))

    # ------------------------------------------------------------------
    # Environment sections — dispatched through the environment
    # registry's static hooks, so unknown kinds get the same
    # did-you-mean message ``repro run`` raises and parameter names are
    # checked against the factory signatures.
    from ..env import model_spec_problems

    for layer in ("delay", "failure", "compute", "network", "contention"):
        if layer in unresolved:
            continue
        section = data.get(layer)
        if not section:
            continue
        if layer == "delay" and isinstance(section, Mapping):
            # The engine defaults a kind-less delay section to
            # exponential (the paper's model); validate the same way.
            section = {"kind": "exponential", **section}
        problems.extend(model_spec_problems(layer, section, section=layer))

    # ------------------------------------------------------------------
    # wait_for sanity (Theorems 10/11 bound α(G[W']) for 1 <= w <= n).
    if "wait_for" not in unresolved:
        w = data.get("wait_for")
        if w is None:
            # IS-SGD and every IS-GC scheme ignore stragglers: they
            # wait for w workers each round.
            if isinstance(scheme, str) and scheme.startswith("is-"):
                problems.append(
                    f"scheme {scheme!r} waits for w workers each round; "
                    "set wait_for (1 <= w <= n)"
                )
            elif data.get("rule") == "adaptive":
                problems.append(
                    "rule 'adaptive' ranks placements for a target w; "
                    "set wait_for (1 <= w <= n)"
                )
        else:
            w = spec_int(w)
            if w is None or not 1 <= w <= n:
                problems.append(
                    f"wait_for must satisfy 1 <= w <= n = {n} (the "
                    "Theorem 10/11 recovery bounds are defined only "
                    "there, and more than n workers can never arrive); "
                    f"got {data.get('wait_for')!r}"
                )
    return problems


@spec_rule(
    "SPEC001",
    name="infeasible-spec-file",
    description=(
        "A JSON/TOML ExperimentSpec document violates a placement or "
        "bound constraint and would fail (or degenerate) at run time."
    ),
)
def check_spec_file(ctx: SpecContext, rule: Rule) -> List[Finding]:
    """Validate one spec document against the placement constraints."""
    return [
        ctx.finding(rule, problem)
        for problem in spec_feasibility_problems(ctx.data)
    ]


def _literal(node: ast.AST) -> Any:
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return _UNRESOLVED


_UNRESOLVED = object()


@python_rule(
    "SPEC002",
    name="infeasible-spec-literal",
    description=(
        "A literal ExperimentSpec(...) construction violates a "
        "placement or bound constraint (tests are exempt — they build "
        "invalid specs on purpose)."
    ),
    exclude=("test_", "conftest.py"),
)
def check_spec_literals(ctx: PythonContext, rule: Rule) -> List[Finding]:
    """Validate literal ``ExperimentSpec(...)`` calls without running."""
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if terminal_name(node.func) != "ExperimentSpec":
            continue
        if node.args or any(kw.arg is None for kw in node.keywords):
            continue  # positional or **splat construction: not literal
        data = {}
        unresolved = set()
        for kw in node.keywords:
            value = _literal(kw.value)
            if value is _UNRESOLVED:
                unresolved.add(kw.arg)
            else:
                data[kw.arg] = value
        if "scheme" not in data or "num_workers" not in data:
            continue  # cannot reason statically about this one
        for problem in spec_feasibility_problems(
            data, unresolved=frozenset(unresolved)
        ):
            findings.append(ctx.finding(rule, node, problem))
    return findings
