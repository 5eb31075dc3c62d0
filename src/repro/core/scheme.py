"""The placement registry: family name → :class:`Placement` subclass.

Everything the paper derives — decoding (Algs. 1–4), the recovery
bounds (Theorems 10/11), the FR/CR/HR trade-off (Theorems 5–7) — starts
from a *placement family*: a named :class:`~repro.core.placement.Placement`
subclass whose constructor takes the family's parameters.  The class
carries the family's ``summary``, ``paper`` pointer, ``uses_uniform_c``
and arithmetic-only ``spec_problems`` hook; an instance carries the
``conflict_graph()`` (the partition-intersection ground truth of
:mod:`repro.core.conflict`, one builder for every family),
``recovery_bounds(w)``, ``decoder()``/``decode_batch()`` and the
``fingerprint`` (the :class:`~repro.parallel.DecodeCache` key).  This
module holds:

* :data:`PLACEMENT_REGISTRY` + :func:`register_placement` — the name →
  class registry, mirroring :func:`~repro.engine.spec.register_scheme`
  / :func:`~repro.engine.spec.register_backend`;
* :func:`make_placement` — the one construction entry point the CLI,
  the spec engine, the advisor and library code share, and
  :func:`spec_placement_scheme`, the same under a spec's calling
  convention;
* the spec-admission helpers (:func:`placement_spec_problems`,
  :func:`spec_int`) and the ``hetero`` family, whose base is named
  through this registry.

Registered families: ``fr``, ``cr``, ``hr``, ``explicit`` and ``hetero``
(see ``docs/placements.md`` for the catalogue with paper pointers).
Only what changes who stores what is a family.  A new family is one
:class:`Placement` subclass and one :func:`register_placement`; specs
(via the generic ``is-gc`` scheme), ``repro placements``, caching and
spec admission pick it up by name.
"""

from __future__ import annotations

import inspect
from typing import (
    Any,
    Callable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from ..exceptions import ConfigurationError
from ..registry import Registry
from .cyclic import CyclicRepetition
from .explicit import ExplicitPlacement
from .fractional import FractionalRepetition
from .hybrid import HybridRepetition
from .placement import Placement, spec_int

#: placement family name → its :class:`Placement` subclass.
PLACEMENT_REGISTRY: Registry[Type[Placement]] = Registry(
    "placement family", "families", ConfigurationError
)


def register_placement(
    name: str, *, aliases: Sequence[str] = ()
) -> Callable[[Type[Placement]], Type[Placement]]:
    """Class decorator registering a placement family under ``name``.

    ``aliases`` are accepted alternate spellings (``"fractional"`` for
    ``"fr"`` and so on); they resolve to the same class but are not
    listed as separate families.
    """

    def wrap(cls: Type[Placement]) -> Type[Placement]:
        PLACEMENT_REGISTRY.register(name, cls, aliases)
        cls.family = name
        cls.aliases = tuple(aliases)
        return cls

    return wrap


def registered_placements() -> List[str]:
    """Sorted canonical family names (aliases excluded)."""
    return sorted(PLACEMENT_REGISTRY)


def resolve_placement(name: str) -> Type[Placement]:
    """The placement class for ``name`` (canonical or alias)."""
    return PLACEMENT_REGISTRY.resolve(name)


def _init_params(name: str) -> List[inspect.Parameter]:
    return list(
        inspect.signature(resolve_placement(name).__init__).parameters.values()
    )


def placement_params(name: str) -> List[str]:
    """The parameter names family ``name``'s constructor accepts, in
    signature order.  A ``**`` catch-all is not a name: the families
    that have one forward every other key to their base family."""
    return [
        p.name for p in _init_params(name)
        if p.name != "self" and p.kind is not p.VAR_KEYWORD
    ]


def _forwards(name: str) -> bool:
    """Whether family ``name`` forwards unnamed keys to a base family."""
    return any(p.kind is p.VAR_KEYWORD for p in _init_params(name))


def make_placement(name: str, **params: Any) -> Placement:
    """Construct the placement of registered family ``name``.

    The single construction entry point for library code, the CLI and
    the spec engine.  Unknown parameter names are rejected with the
    family's accepted signature (a raw ``TypeError`` would not say
    which family or which parameters exist); parameter-constraint
    violations raise :class:`~repro.exceptions.PlacementError` exactly
    as the direct constructors do — same type, same message.
    """
    cls = resolve_placement(name)
    try:
        return cls(**params)
    except TypeError as exc:
        raise ConfigurationError(
            f"invalid parameters for placement family {cls.family!r}: "
            f"{exc}; accepted: {', '.join(placement_params(name))}"
            + ("; other keys go to the base family" if _forwards(name) else "")
        ) from exc


def spec_placement_scheme(
    name: str,
    *,
    num_workers: int,
    partitions_per_worker: Optional[int] = None,
    **params: Any,
) -> Placement:
    """:func:`make_placement` under ``make_strategy``'s calling convention.

    Spec-driven callers always carry a uniform ``partitions_per_worker``
    (the :class:`~repro.engine.spec.ExperimentSpec` field, default 1);
    families that derive ``c`` from their own parameters
    (``uses_uniform_c = False``, e.g. HR's ``c1 + c2``) must not
    receive it, so this helper forwards it only where it is meaningful.
    """
    kwargs = dict(params)
    if (
        resolve_placement(name).uses_uniform_c
        and partitions_per_worker is not None
    ):
        kwargs.setdefault("partitions_per_worker", partitions_per_worker)
    return make_placement(name, num_workers=num_workers, **kwargs)


def placement_spec_problems(
    family: Any,
    *,
    num_workers: int,
    partitions_per_worker: Optional[int] = None,
    params: Optional[Mapping[str, Any]] = None,
) -> List[str]:
    """Feasibility problems of ``family`` at these parameters.

    The arithmetic-only hook behind spec admission
    (:class:`~repro.engine.spec.ExperimentSpec` construction): nothing
    is constructed, so the checks are safe on untrusted spec documents.
    Unknown families return the same did-you-mean message
    construction would raise.  ``partitions_per_worker=None`` (not
    known to be a valid ``c``) skips the checks that need it.
    """
    try:
        cls = PLACEMENT_REGISTRY.resolve(family)
    except ConfigurationError as exc:
        return [str(exc)]
    return cls.spec_problems(
        num_workers=num_workers,
        partitions_per_worker=partitions_per_worker,
        params=dict(params or {}),
    )


class HeteroPlacement(ExplicitPlacement):
    """A base family's table with a machine → worker-index re-assignment.

    Heterogeneity-aware operation (:mod:`repro.core.hetero_placement`)
    picks which physical machine plays which worker index; the placed
    table is the base family's, rows permuted so machine ``m`` stores
    what worker ``assignment[m]`` would.  It is decoded, described and
    digested as the explicit table it is; conflict structure and
    bounds are the base family's up to vertex relabelling.
    """

    summary = (
        "heterogeneity-aware — a base family's table with machines "
        "permuted onto worker indices (assignment from "
        "optimize_assignment)"
    )
    paper = "Sec. VIII discussion; related work [21]"
    uses_uniform_c = True  # the spec's c is its base family's
    kind = "ExplicitPlacement"

    def __init__(
        self,
        *,
        num_workers: int,
        assignment: Sequence[int],
        base: str = "cr",
        partitions_per_worker: Optional[int] = None,
        **base_params: Any,
    ):
        problems = _hetero_problems(num_workers, assignment, base, base_params)
        if problems:
            raise ConfigurationError(problems[0])
        self._assignment = [int(a) for a in assignment]
        self._base = spec_placement_scheme(
            base,
            num_workers=num_workers,
            partitions_per_worker=partitions_per_worker,
            **base_params,
        )
        super().__init__({
            m: self._base.partitions_of(w)
            for m, w in enumerate(self._assignment)
        })

    @property
    def base(self) -> Placement:
        """The underlying family's placement whose table is permuted."""
        return self._base

    @property
    def assignment(self) -> List[int]:
        """machine ``m`` → base worker index it plays."""
        return list(self._assignment)

    def _recovery_bounds(self, w: int) -> Tuple[int, int]:
        # α is invariant under vertex relabelling.
        return self._base.recovery_bounds(w)

    @classmethod
    def spec_problems(
        cls, *, num_workers, partitions_per_worker=None, params=None,
    ) -> List[str]:
        params = dict(params or {})
        assignment = params.pop("assignment", None)
        base = params.pop("base", "cr")
        problems = _hetero_problems(num_workers, assignment, base, params)
        try:
            base_cls = resolve_placement(base)
        except ConfigurationError:
            return problems
        return problems + base_cls.spec_problems(
            num_workers=num_workers,
            partitions_per_worker=(
                partitions_per_worker if base_cls.uses_uniform_c else None
            ),
            params=params,
        )


def _hetero_problems(
    n: int, assignment: Any, base: Any, base_params: Mapping[str, Any]
) -> List[str]:
    """Why ``hetero`` refuses these parameters, as messages: the
    ``assignment`` must put the ``n`` machines on worker indices
    ``0..n-1``, and ``base`` must be a family taking ``base_params``
    (the uniform ``c`` aside).  The base family's own constraints are
    its own."""
    if spec_int(n) is None:
        return [f"hetero needs an integer num_workers, got {n!r}"]
    try:
        workers = sorted(spec_int(a) for a in assignment)
    except TypeError:  # not a sequence, or holds more than one non-int
        workers = None
    problems = [] if workers == list(range(n)) else [
        "assignment must be a permutation of worker indices "
        f"0..{n - 1}, got {assignment!r}"
    ]
    try:
        family = resolve_placement(base).family
    except ConfigurationError as exc:
        return problems + [str(exc)]
    accepted = [
        name for name in placement_params(family)
        if name not in ("num_workers", "partitions_per_worker")
    ]
    unknown = sorted(set(base_params) - set(accepted))
    if unknown and not _forwards(family):
        problems.append(
            f"hetero's base family {family!r} takes no parameter "
            f"{', '.join(map(repr, unknown))}; accepted: "
            f"{', '.join(['assignment', 'base', *accepted])}"
        )
    return problems


for _family, _name, _aliases in (
    (FractionalRepetition, "fr", ("fractional",)),
    (CyclicRepetition, "cr", ("cyclic",)),
    (HybridRepetition, "hr", ("hybrid",)),
    (ExplicitPlacement, "explicit", ("table",)),
    (HeteroPlacement, "hetero", ("heterogeneous",)),
):
    register_placement(_name, aliases=_aliases)(_family)

# Older names of the above, kept for the end-to-end benchmark's imports.
PlacementScheme = Placement
placement_scheme = make_placement


def scheme_for(placement: Placement) -> Placement:
    """``placement`` itself: a placement is its family's object."""
    return placement
