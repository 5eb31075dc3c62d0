"""The unified placement layer: one protocol, one registry.

Everything the paper derives — decoding (Algs. 1–4), the recovery
bounds (Theorems 10/11), the FR/CR/HR trade-off (Theorems 5–7) — starts
from a *placement family*: a named recipe that, given parameters,
yields a :class:`~repro.core.placement.Placement`.  Before this module
each family grew its own ad-hoc conflict/bound/fingerprint plumbing;
now they all speak one protocol:

* :class:`PlacementScheme` — ``construct()`` (cached), ``conflict_graph()``
  (the partition-intersection ground truth of :mod:`repro.core.conflict`,
  one builder for every family), ``recovery_bounds(w)`` (Theorem 10/11
  style partition-count brackets), ``fingerprint()``
  (the :class:`~repro.parallel.DecodeCache` key) and ``describe()``;
* :data:`PLACEMENT_REGISTRY` + :func:`register_placement` — the name →
  scheme-class registry, mirroring
  :func:`~repro.engine.spec.register_scheme` /
  :func:`~repro.engine.spec.register_backend`;
* :func:`make_placement` / :func:`placement_scheme` — the construction
  entry points the CLI, the spec engine, the advisor and library code
  share.

Registered families: ``fr``, ``cr``, ``hr``, ``explicit``, ``hetero``,
``comm-efficient`` and ``multimessage`` (see ``docs/placements.md`` for
the catalogue with paper pointers).  A new family needs one
``@register_placement`` class; specs (via the generic ``is-gc``
scheme), ``repro placements``, caching and spec admission pick it
up by name.
"""

from __future__ import annotations

import inspect
import numbers
from abc import ABC, abstractmethod
from typing import (
    Any,
    Callable,
    ClassVar,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from ..exceptions import ConfigurationError, PlacementError
from ..graphs.graph import Graph
from ..registry import Registry
from .bounds import hr_alpha_bounds, recovered_partitions_bounds
from .conflict import conflict_graph
from .cyclic import CyclicRepetition
from .explicit import ExplicitPlacement
from .fractional import FractionalRepetition, fr_problems
from .hybrid import HybridRepetition, hr_problems
from .placement import Placement

#: placement family name → scheme class.
PLACEMENT_REGISTRY: Registry[Type["PlacementScheme"]] = Registry(
    "placement family", "families", ConfigurationError
)


def register_placement(
    name: str, *, aliases: Sequence[str] = ()
) -> Callable[[Type["PlacementScheme"]], Type["PlacementScheme"]]:
    """Class decorator registering a placement family under ``name``.

    ``aliases`` are accepted alternate spellings (``"fractional"`` for
    ``"fr"`` and so on); they resolve to the same class but are not
    listed as separate families.
    """

    def wrap(cls: Type["PlacementScheme"]) -> Type["PlacementScheme"]:
        PLACEMENT_REGISTRY.register(name, cls, aliases)
        cls.family = name
        cls.aliases = tuple(aliases)
        return cls

    return wrap


def registered_placements() -> List[str]:
    """Sorted canonical family names (aliases excluded)."""
    return sorted(PLACEMENT_REGISTRY)


def resolve_placement(name: str) -> Type["PlacementScheme"]:
    """The scheme class for ``name`` (canonical or alias)."""
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


def placement_scheme(name: str, **params: Any) -> "PlacementScheme":
    """Instantiate the registered family ``name`` with ``params``.

    Unknown parameter names are rejected with the family's accepted
    signature (a raw ``TypeError`` would not say which family or which
    parameters exist).
    """
    cls = resolve_placement(name)
    try:
        return cls(**params)
    except TypeError as exc:
        forwards = any(p.kind is p.VAR_KEYWORD for p in _init_params(name))
        raise ConfigurationError(
            f"invalid parameters for placement family {cls.family!r}: "
            f"{exc}; accepted: {', '.join(placement_params(name))}"
            + ("; other keys go to the base family" if forwards else "")
        ) from exc


def make_placement(name: str, **params: Any) -> Placement:
    """Construct the placement of registered family ``name``.

    The single construction entry point for library code, the CLI and
    the spec engine.  Parameter-constraint
    violations raise :class:`~repro.exceptions.PlacementError` exactly
    as the direct constructors do — same type, same message — so
    callers' error handling is unchanged by going through the registry.
    """
    return placement_scheme(name, **params).construct()


def spec_placement_scheme(
    name: str,
    *,
    num_workers: int,
    partitions_per_worker: Optional[int] = None,
    **params: Any,
) -> "PlacementScheme":
    """Registry lookup under ``make_strategy``'s calling convention.

    Spec-driven callers always carry a uniform ``partitions_per_worker``
    (the :class:`~repro.engine.spec.ExperimentSpec` field, default 1);
    families that derive ``c`` from their own parameters
    (``uses_uniform_c = False``, e.g. HR's ``c1 + c2``) must not
    receive it, so this helper forwards it only where it is meaningful.
    """
    cls = resolve_placement(name)
    kwargs = dict(params)
    if cls.uses_uniform_c and partitions_per_worker is not None:
        kwargs.setdefault("partitions_per_worker", partitions_per_worker)
    return placement_scheme(name, num_workers=num_workers, **kwargs)


def spec_int(value: Any) -> Optional[int]:
    """``value`` as an int for the spec feasibility hooks, or ``None``
    when it is not one (bools are not ints)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        return None
    return int(value)


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


def as_placement(obj: "Placement | PlacementScheme") -> Placement:
    """Coerce a scheme or placement to the :class:`Placement` it denotes.

    Lets every placement consumer (decoders, coders, simulators,
    migration planning) accept either level of the protocol.
    """
    if isinstance(obj, Placement):
        return obj
    if isinstance(obj, PlacementScheme):
        return obj.construct()
    raise ConfigurationError(
        f"expected a Placement or PlacementScheme, got {type(obj).__name__}"
    )


def scheme_for(placement: Placement) -> "PlacementScheme":
    """Wrap an already-constructed placement in its family's scheme view.

    Recovers the protocol object (family-specific bounds, describe)
    for placements built elsewhere: the family is the registered one
    whose ``placement_type`` is the placement's concrete type, and any
    other type falls back to the generic ``explicit`` family, which is
    correct for any placement.  The wrapper reuses ``placement``
    itself, so ``fingerprint()`` (hence every cache key) is unchanged.
    """
    cls = next(
        (
            family
            for family in PLACEMENT_REGISTRY.values()
            if family.placement_type is type(placement)
        ),
        ExplicitScheme,
    )
    # A view, not a construction: the family's parameters are never
    # needed again, since construct() returns the cached placement.
    scheme = cls.__new__(cls)
    scheme._placement = placement
    return scheme


# ----------------------------------------------------------------------
# The protocol.


class PlacementScheme(ABC):
    """One placement family: parameters in, paper machinery out.

    Subclasses register with :func:`register_placement`, implement
    :meth:`_construct`, and optionally override :meth:`recovery_bounds`
    with family-specific theorems (read from the constructed placement,
    so :func:`scheme_for` views need no parameters).  The conflict graph
    (partition-intersection ground truth) and the default
    single-selected-worker bracket are correct for **any** placement,
    so a minimal new family is just a constructor.
    """

    #: canonical registry name, set by :func:`register_placement`.
    family: ClassVar[str] = "abstract"
    #: accepted alternate spellings, set by :func:`register_placement`.
    aliases: ClassVar[Tuple[str, ...]] = ()
    #: one-line human description for listings.
    summary: ClassVar[str] = ""
    #: pointer into the paper (section / theorem / algorithm).
    paper: ClassVar[str] = ""
    #: whether spec-driven construction should forward the uniform
    #: ``partitions_per_worker`` count; families deriving ``c`` from
    #: their own parameters (HR's ``c1 + c2``, explicit tables) set
    #: this ``False`` (see :func:`spec_placement_scheme`).
    uses_uniform_c: ClassVar[bool] = True
    #: the concrete :class:`Placement` type :meth:`_construct` returns
    #: when it is this family's own (:func:`scheme_for` maps it back).
    placement_type: ClassVar[Optional[Type[Placement]]] = None

    def __init__(self) -> None:
        self._placement: Optional[Placement] = None

    # -- construction ---------------------------------------------------
    @abstractmethod
    def _construct(self) -> Placement:
        """Build the placement (called once; result is cached)."""

    def construct(self) -> Placement:
        """The placement this scheme denotes (constructed lazily once).

        Parameter-constraint violations surface here as
        :class:`~repro.exceptions.PlacementError`, identical to the
        direct constructors.
        """
        if self._placement is None:
            self._placement = self._construct()
        return self._placement

    # -- the protocol ---------------------------------------------------
    def conflict_graph(self) -> Graph:
        """The conflict graph ``G`` of the constructed placement: the
        partition-intersection ground truth
        (:func:`repro.core.conflict.conflict_graph`), one builder for
        every family."""
        return conflict_graph(self.construct())

    def recovery_bounds(self, wait_for: int) -> Tuple[int, int]:
        """Bracket on recovered partitions ``|I|`` at ``w = wait_for``.

        Default bracket, valid for **any** placement: at least one
        available worker is always selected (``c`` partitions), and at
        most ``min(w, ⌊n/c⌋)`` pairwise-disjoint ``c``-sets fit
        (Theorem 11's counting argument needs nothing about the
        placement's structure).  Theorem 10's stronger lower bound
        ``⌈w/c⌉`` does *not* hold for arbitrary placements — e.g. a
        star-shaped table where every worker shares partition 0 pins
        ``α = 1`` — so it lives in the FR/CR overrides where the paper
        proves it.
        """
        placement = self.construct()
        n = placement.num_workers
        c = placement.partitions_per_worker
        if not 0 <= wait_for <= n:
            raise ValueError(
                f"need 0 <= w <= n, got w={wait_for}, n={n}"
            )
        if wait_for == 0:
            return 0, 0
        return c, min(min(wait_for, n // c) * c, n)

    def fingerprint(self) -> str:
        """The placement's content digest — the decode-cache key
        component (:class:`~repro.parallel.DecodeCache`); identical to
        ``construct().fingerprint`` by construction."""
        return self.construct().fingerprint

    def decoder(
        self,
        *,
        rng: Any = None,
        cache: Any = None,
    ):
        """This family's :class:`~repro.core.decoders.Decoder` over the
        constructed placement (the registry's linear-time decoder, or
        the exact-MIS decoder where that *is* the documented decoder —
        explicit tables)."""
        # Imported lazily: scheme.py must stay importable from the
        # decoder modules without a cycle.
        from .decoders import decoder_for

        return decoder_for(self.construct(), rng=rng, cache=cache)

    def decode_batch(
        self,
        masks: Any,
        *,
        rng: Any = None,
        cache: Any = None,
    ):
        """Decode a whole batch of availability masks through this
        family's decoder — ``self.decoder(...).decode_batch(masks)``.

        One-shot convenience for analysis code; callers decoding many
        batches should hold on to :meth:`decoder` (its adjacency /
        partition matrices are built once per decoder instance).
        """
        return self.decoder(rng=rng, cache=cache).decode_batch(masks)

    def describe(self) -> str:
        """Human-readable family + placement description."""
        lines = [f"[{self.family}] {self.summary}".rstrip()]
        if self.paper:
            lines.append(f"paper: {self.paper}")
        lines.append(self.construct().describe())
        return "\n".join(lines)

    # -- spec admission hook ---------------------------------------------
    @classmethod
    def spec_problems(
        cls,
        *,
        num_workers: int,
        partitions_per_worker: Optional[int] = None,
        params: Optional[Mapping[str, Any]] = None,
    ) -> List[str]:
        """Arithmetic-only feasibility problems (for spec admission).

        Must not construct anything; return constraint-citing messages.
        A family states each constraint once, as a function beside its
        placement type returning these messages, whose first one the
        constructor raises (``fr_problems``, ``hr_problems``).  The
        default accepts everything (constraints then surface at
        :meth:`construct` time only).
        """
        return []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(family={self.family!r})"


# ----------------------------------------------------------------------
# Registered families.  This module is the sanctioned construction
# layer, mirroring engine/spec.py for strategies/backends: the rest of
# the library builds placements through make_placement, which reaches
# the direct ``*Repetition(...)`` / ``*Placement(...)`` calls below.


class _RepetitionScheme(PlacementScheme):
    """A family built as ``placement_type(n, c)`` whose recovered
    partitions Theorems 10/11 bracket (FR, CR, and comm-efficient's FR)."""

    def __init__(self, *, num_workers: int, partitions_per_worker: int = 1):
        super().__init__()
        self._n = int(num_workers)
        self._c = int(partitions_per_worker)

    def _construct(self) -> Placement:
        return self.placement_type(self._n, self._c)

    def recovery_bounds(self, wait_for: int) -> Tuple[int, int]:
        placement = self.construct()
        return recovered_partitions_bounds(
            placement.num_workers, placement.partitions_per_worker, wait_for
        )


@register_placement("fr", aliases=("fractional",))
class FRScheme(_RepetitionScheme):
    """Fractional repetition: ``n/c`` disjoint groups of ``c`` clones."""

    summary = (
        "fractional repetition — n/c disjoint groups of c identical "
        "replicas (requires c | n); best recovery, least flexible"
    )
    paper = "Sec. III; decoder Alg. 1; bounds Thms. 10-11; Fig. 4(a)"
    placement_type = FractionalRepetition

    @classmethod
    def spec_problems(
        cls, *, num_workers, partitions_per_worker=None, params=None,
    ) -> List[str]:
        return fr_problems(num_workers, partitions_per_worker)


@register_placement("cr", aliases=("cyclic",))
class CRScheme(_RepetitionScheme):
    """Cyclic repetition: worker ``i`` stores ``(i .. i+c-1) mod n``."""

    summary = (
        "cyclic repetition — worker i stores partitions (i..i+c-1) mod n; "
        "always valid, most flexible wait choices"
    )
    paper = "Sec. III; conflict graph Thm. 1 (circulant C_n^{1..c-1}); decoder Alg. 2"
    placement_type = CyclicRepetition

    @classmethod
    def spec_problems(
        cls, *, num_workers, partitions_per_worker=None, params=None,
    ) -> List[str]:
        n, c = num_workers, partitions_per_worker
        if c is not None and c >= n:
            return [
                f"CR placement requires 1 <= c < n: with c = n = {n} "
                "every pair of workers shares a partition (Theorem 1: "
                "conflict iff circular distance < c), so at most one "
                "payload is ever decodable"
            ]
        return []


@register_placement("hr", aliases=("hybrid",))
class HRScheme(PlacementScheme):
    """Hybrid repetition ``HR(n, c1, c2)`` with ``g`` groups."""

    summary = (
        "hybrid repetition — HR(n, c1, c2) with g groups interpolates "
        "FR and CR (c = c1 + c2); Theorem 5-7 constraints apply"
    )
    paper = "Sec. VI; conflict test Alg. 4; decoder Alg. 3; Thms. 5-7"
    uses_uniform_c = False
    placement_type = HybridRepetition

    def __init__(
        self,
        *,
        num_workers: int,
        c1: int,
        c2: int,
        num_groups: int,
        partitions_per_worker: Optional[int] = None,
    ):
        super().__init__()
        self._n = int(num_workers)
        self._c1 = int(c1)
        self._c2 = int(c2)
        self._g = int(num_groups)
        if (
            partitions_per_worker is not None
            and int(partitions_per_worker) != self._c1 + self._c2
        ):
            raise ConfigurationError(
                f"HR stores c1 + c2 = {self._c1 + self._c2} partitions "
                "per worker but partitions_per_worker="
                f"{partitions_per_worker} was given; make them agree "
                "(or drop partitions_per_worker)"
            )

    def _construct(self) -> Placement:
        return HybridRepetition(self._n, self._c1, self._c2, self._g)

    def recovery_bounds(self, wait_for: int) -> Tuple[int, int]:
        # Corrected group-wise α bounds (see bounds.hr_alpha_bounds for
        # why the printed Theorem 10 fails when n0 > c), scaled to
        # partitions.
        p = self.construct()
        n, c = p.num_workers, p.partitions_per_worker
        lo, hi = hr_alpha_bounds(n, p.c1, p.c2, p.num_groups, wait_for)
        return min(lo * c, n), min(hi * c, n)

    @classmethod
    def spec_problems(
        cls, *, num_workers, partitions_per_worker=None, params=None,
    ) -> List[str]:
        params = params or {}
        c1, c2, g = (
            spec_int(params.get(key)) for key in ("c1", "c2", "num_groups")
        )
        if c1 is None or c2 is None or g is None:
            return [
                "HR placement needs integer params c1, c2 and "
                "num_groups (HR(n, c1, c2) with g groups, Sec. VI)"
            ]
        problems = hr_problems(num_workers, c1, c2, g)
        # c = c1 + c2 >= 2 for a feasible HR, so a spec's default c = 1
        # means "not given".
        if partitions_per_worker not in (None, 1, c1 + c2):
            problems.append(
                "HR spec declares partitions_per_worker="
                f"{partitions_per_worker} but the placement stores "
                f"c1 + c2 = {c1 + c2} partitions per worker; make "
                "them agree"
            )
        return problems


@register_placement("explicit", aliases=("table",))
class ExplicitScheme(PlacementScheme):
    """A user-supplied worker → partitions table."""

    summary = (
        "explicit table — any worker->partitions assignment; decoded "
        "by the exact-MIS decoder, bounds are the generic bracket"
    )
    paper = "Sec. V-A (conflict graphs) + exact-MIS decoding"
    uses_uniform_c = False
    placement_type = ExplicitPlacement

    def __init__(
        self,
        *,
        rows: Optional[Sequence[Sequence[int]]] = None,
        assignments: Optional[Mapping[int, Sequence[int]]] = None,
        num_workers: Optional[int] = None,
    ):
        super().__init__()
        if (rows is None) == (assignments is None):
            raise ConfigurationError(
                "explicit placement needs exactly one of rows= "
                "(row-per-worker list) or assignments= (worker -> "
                "partitions mapping)"
            )
        # A shallow copy is enough here: ExplicitPlacement.from_rows
        # tuple-normalizes every row at construction time anyway.
        self._rows = list(rows) if rows is not None else None
        self._assignments = (
            {int(w): tuple(p) for w, p in assignments.items()}
            if assignments is not None
            else None
        )
        expected = num_workers
        actual = (
            len(self._rows) if self._rows is not None
            else len(self._assignments)
        )
        if expected is not None and int(expected) != actual:
            raise ConfigurationError(
                f"explicit table has {actual} workers but "
                f"num_workers={expected} was given; make them agree"
            )

    def _construct(self) -> Placement:
        if self._rows is not None:
            return ExplicitPlacement.from_rows(self._rows)
        return ExplicitPlacement(self._assignments)


@register_placement("hetero", aliases=("heterogeneous",))
class HeteroScheme(PlacementScheme):
    """A base family with a machine → worker-index re-assignment.

    Heterogeneity-aware operation (:mod:`repro.core.hetero_placement`)
    picks which physical machine plays which worker index; the placed
    table is the base family's, rows permuted so machine ``m`` stores
    what worker ``assignment[m]`` would.  Conflict structure and
    bounds are the base family's up to vertex relabelling.
    """

    summary = (
        "heterogeneity-aware — a base family's table with machines "
        "permuted onto worker indices (assignment from "
        "optimize_assignment)"
    )
    paper = "Sec. VIII discussion; related work [21]"

    def __init__(
        self,
        *,
        num_workers: int,
        assignment: Sequence[int],
        base: str = "cr",
        partitions_per_worker: Optional[int] = None,
        **base_params: Any,
    ):
        super().__init__()
        self._n = int(num_workers)
        self._assignment = [int(a) for a in assignment]
        if sorted(self._assignment) != list(range(self._n)):
            raise ConfigurationError(
                "assignment must be a permutation of worker indices "
                f"0..{self._n - 1}, got {assignment!r}"
            )
        self._base = spec_placement_scheme(
            base,
            num_workers=num_workers,
            partitions_per_worker=partitions_per_worker,
            **base_params,
        )

    @property
    def base(self) -> PlacementScheme:
        """The underlying family whose table is being permuted."""
        return self._base

    @property
    def assignment(self) -> List[int]:
        """machine ``m`` → base worker index it plays."""
        return list(self._assignment)

    def _construct(self) -> Placement:
        base = self._base.construct()
        return ExplicitPlacement(
            {
                m: base.partitions_of(w)
                for m, w in enumerate(self._assignment)
            }
        )

    def recovery_bounds(self, wait_for: int) -> Tuple[int, int]:
        # α is invariant under vertex relabelling.
        return self._base.recovery_bounds(wait_for)


@register_placement("comm-efficient", aliases=("comm_efficient", "ye-abbe"))
class CommEfficientScheme(_RepetitionScheme):
    """FR placement + Ye-Abbe Vandermonde block coding (ICML'18).

    The placement (hence conflict graph, fingerprint and IS-GC
    decoding semantics) is plain FR; :meth:`coder` yields the
    :class:`~repro.codes.comm_efficient.CommEfficientGC` codec with
    ``k = blocks``, tolerating ``c - k`` stragglers per group at a
    ``k×`` upload saving.
    """

    summary = (
        "communication-efficient GC (Ye-Abbe) — FR placement whose "
        "workers upload k-block Vandermonde combinations (k x smaller)"
    )
    paper = "related work [17] (Ye & Abbe ICML'18); IS extension in codes/comm_efficient.py"

    def __init__(
        self,
        *,
        num_workers: int,
        partitions_per_worker: int = 1,
        blocks: int = 1,
    ):
        super().__init__(
            num_workers=num_workers, partitions_per_worker=partitions_per_worker
        )
        self._blocks = int(blocks)

    @property
    def blocks(self) -> int:
        """``k``: blocks per group gradient (upload shrinks ``k×``)."""
        return self._blocks

    def _construct(self) -> Placement:
        # Imported lazily: core must stay importable without codes.
        from ..codes.comm_efficient import comm_efficient_problems

        problems = comm_efficient_problems(self._n, self._c, self._blocks)
        if problems:
            raise PlacementError(problems[0])
        return FractionalRepetition(self._n, self._c)

    def coder(self):
        """The Vandermonde codec over this scheme's FR placement."""
        # Imported lazily: core must stay importable without codes.
        from ..codes.comm_efficient import CommEfficientGC

        return CommEfficientGC(self.construct(), self._blocks)

    @classmethod
    def spec_problems(
        cls, *, num_workers, partitions_per_worker=None, params=None,
    ) -> List[str]:
        from ..codes.comm_efficient import comm_efficient_problems

        return comm_efficient_problems(
            num_workers, partitions_per_worker,
            (params or {}).get("blocks", 1),
        )


@register_placement("multimessage", aliases=("multi-message",))
class MultiMessageScheme(PlacementScheme):
    """A base family operated with per-partition uploads.

    The placement is the base family's; :meth:`round` yields the
    :class:`~repro.partial.multimessage.MultiMessageRound` simulator
    (each partition's gradient ships as soon as it is computed, so
    stragglers' partial work counts).
    """

    summary = (
        "multi-message uploads — a base family's placement where each "
        "partition gradient ships as computed (partial straggler work "
        "counts, up to c x the bytes)"
    )
    paper = "related work [19]-[21] (Ozfatura et al.); partial/multimessage.py"

    def __init__(
        self,
        *,
        num_workers: int,
        partitions_per_worker: Optional[int] = None,
        base: str = "cr",
        **base_params: Any,
    ):
        super().__init__()
        resolve_placement(base)  # fail fast on an unknown base family
        self._base_family = base
        self._base_kwargs = dict(
            num_workers=num_workers,
            partitions_per_worker=partitions_per_worker,
            **base_params,
        )
        self._base: Optional[PlacementScheme] = None

    @property
    def base(self) -> PlacementScheme:
        """The placement family whose table is uploaded per-partition."""
        if self._base is None:
            self._base = spec_placement_scheme(
                self._base_family, **self._base_kwargs
            )
        return self._base

    def _construct(self) -> Placement:
        return self.base.construct()

    def recovery_bounds(self, wait_for: int) -> Tuple[int, int]:
        return self.base.recovery_bounds(wait_for)

    def round(self, environment, **kwargs):
        """A :class:`MultiMessageRound` simulator over this placement,
        in ``environment``."""
        # Imported lazily: core must stay importable without partial.
        from ..partial.multimessage import MultiMessageRound

        return MultiMessageRound(self.construct(), environment, **kwargs)

    @classmethod
    def spec_problems(
        cls, *, num_workers, partitions_per_worker=None, params=None,
    ) -> List[str]:
        params = dict(params or {})
        base = params.pop("base", "cr")
        return placement_spec_problems(
            base,
            num_workers=num_workers,
            partitions_per_worker=partitions_per_worker,
            params=params,
        )
