"""Dataset-partition placements (Sec. III of the paper).

A *placement* assigns each of ``n`` workers a tuple of ``c`` dataset
partitions out of ``n`` total partitions.  Everything downstream —
conflict graphs, decoders, coded-gradient payloads — is derived from the
placement, so this module is the single source of truth for "who stores
what".

Indexing convention
-------------------
The paper is 1-indexed; this library is 0-indexed throughout: workers
``0..n-1``, partitions ``0..n-1``.  Docstrings note the paper formula
being implemented whenever the translation is non-trivial.

One object per family
---------------------
A registered placement family (``fr``, ``cr``, ``hr``, ``explicit``,
``hetero``; see :mod:`repro.core.scheme`) *is* a :class:`Placement`
subclass: the class carries the family's name, summary, paper pointer
and arithmetic-only ``spec_problems`` hook, and an instance carries
everything the paper derives from the table — the conflict graph
(Sec. V-A), the decoder (Algs. 1–4) and the recovery bounds
(Theorems 10/11).
"""

from __future__ import annotations

import abc
import hashlib
import numbers
from typing import (
    Any,
    ClassVar,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..exceptions import PlacementError
from ..graphs.graph import Graph


def spec_int(value: Any) -> Optional[int]:
    """``value`` as an int, or ``None`` when it is not one: floats,
    strings and bools are refused, never truncated; numpy integers
    pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        return None
    return int(value)


class Placement(abc.ABC):
    """Base class for dataset-partition placements and their families.

    Subclasses must populate ``_assignments`` (worker → partition tuple)
    during ``__init__`` via :meth:`_finalize`, which validates the
    standard invariants:

    * every worker stores exactly ``c`` distinct partitions,
    * every partition index lies in ``[0, n)``,
    * every partition is stored on at least one worker (no data loss).

    The conflict graph (partition-intersection ground truth) and the
    generic recovery bracket hold for **any** placement, so a minimal
    new family is a constructor plus its registration; it overrides
    :meth:`_recovery_bounds` where a theorem gives more.
    """

    #: short machine-readable identifier, e.g. ``"fr"``, ``"cr"``, ``"hr"``;
    #: :meth:`fingerprint` hashes it.
    scheme: str = "abstract"
    #: canonical registry name, set by
    #: :func:`~repro.core.scheme.register_placement`.
    family: ClassVar[str] = "abstract"
    #: accepted alternate spellings, set with :attr:`family`.
    aliases: ClassVar[Tuple[str, ...]] = ()
    #: one-line human description for listings.
    summary: ClassVar[str] = ""
    #: pointer into the paper (section / theorem / algorithm).
    paper: ClassVar[str] = ""
    #: whether spec-driven construction forwards the uniform
    #: ``partitions_per_worker`` count; families deriving ``c`` from
    #: their own parameters (HR's ``c1 + c2``, explicit tables) set
    #: this ``False`` (see :func:`~repro.core.scheme.spec_placement_scheme`).
    uses_uniform_c: ClassVar[bool] = True

    def __init__(self, num_workers: int, partitions_per_worker: int):
        n, c = spec_int(num_workers), spec_int(partitions_per_worker)
        if n is None or c is None:
            raise PlacementError(
                "a placement needs integer n and c; got "
                f"n={num_workers!r}, c={partitions_per_worker!r}"
            )
        if n <= 0:
            raise PlacementError(f"need at least one worker, got n={n}")
        if not 1 <= c <= n:
            raise PlacementError(
                "partitions per worker must satisfy 1 <= c <= n; "
                f"got c={c}, n={n}"
            )
        self._n = n
        self._c = c
        self._assignments: Dict[int, Tuple[int, ...]] = {}
        self._replicas: Dict[int, FrozenSet[int]] = {}
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # Subclass hook
    # ------------------------------------------------------------------
    def _finalize(self, assignments: Dict[int, Tuple[int, ...]]) -> None:
        """Install and validate the worker → partitions table."""
        n, c = self._n, self._c
        if set(assignments) != set(range(n)):
            raise PlacementError(
                f"assignments must cover workers 0..{n - 1} exactly"
            )
        covered: Dict[int, List[int]] = {p: [] for p in range(n)}
        for worker, parts in assignments.items():
            if len(parts) != c or len(set(parts)) != c:
                raise PlacementError(
                    f"worker {worker} must store exactly c={c} distinct "
                    f"partitions, got {parts}"
                )
            for p in parts:
                if not 0 <= p < n:
                    raise PlacementError(
                        f"worker {worker} references partition {p} "
                        f"outside [0, {n})"
                    )
                covered[p].append(worker)
        orphans = [p for p, ws in covered.items() if not ws]
        if orphans:
            raise PlacementError(f"partitions never placed: {orphans}")
        self._assignments = dict(assignments)
        self._replicas = {p: frozenset(ws) for p, ws in covered.items()}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        """``n``: number of workers (equals the number of partitions)."""
        return self._n

    @property
    def num_partitions(self) -> int:
        """Total dataset partitions; the paper always uses ``n``."""
        return self._n

    @property
    def partitions_per_worker(self) -> int:
        """``c``: storage/computation overhead per worker."""
        return self._c

    def partitions_of(self, worker: int) -> Tuple[int, ...]:
        """Partitions stored on ``worker`` (paper's ``D_{i,1..c}``)."""
        try:
            return self._assignments[worker]
        except KeyError:
            raise PlacementError(
                f"worker {worker} out of range [0, {self._n})"
            ) from None

    def workers_of(self, partition: int) -> FrozenSet[int]:
        """All workers holding a replica of ``partition``."""
        try:
            return self._replicas[partition]
        except KeyError:
            raise PlacementError(
                f"partition {partition} out of range [0, {self._n})"
            ) from None

    def conflicts(self, worker_a: int, worker_b: int) -> bool:
        """Ground-truth conflict: do the two workers share a partition?

        Two workers' coded (summed) gradients can be added up iff their
        partition sets are disjoint; sharing any partition would double-
        count its gradient (Sec. V-A).
        """
        if worker_a == worker_b:
            return True
        return bool(
            set(self.partitions_of(worker_a)) & set(self.partitions_of(worker_b))
        )

    @property
    def kind(self) -> str:
        """The class name the table is described and digested under
        (:meth:`describe`, :attr:`fingerprint`)."""
        return type(self).__name__

    @property
    def fingerprint(self) -> str:
        """Content digest of this placement, stable across processes.

        Unlike ``hash()`` (salted per interpreter for strings, and only
        process-stable here by accident of implementation), this is a
        deterministic function of (kind, scheme, n, c, assignments) —
        the contract cache keys need to survive process-pool boundaries.
        """
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(
                f"{self.kind}|{self.scheme}|{self._n}|{self._c}".encode()
            )
            for worker, parts in sorted(self._assignments.items()):
                h.update(f"|{worker}:{','.join(map(str, parts))}".encode())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def assignment_table(self) -> Dict[int, Tuple[int, ...]]:
        """A defensive copy of the full worker → partitions mapping."""
        return dict(self._assignments)

    def replication_factor(self) -> float:
        """Average number of replicas per partition (always ``c`` here)."""
        total = sum(len(ws) for ws in self._replicas.values())
        return total / self._n

    # ------------------------------------------------------------------
    # What the paper derives from the table
    # ------------------------------------------------------------------
    def conflict_graph(self) -> Graph:
        """The conflict graph ``G`` (Sec. V-A): the partition-intersection
        ground truth (:func:`repro.core.conflict.conflict_graph`), one
        builder for every family."""
        from .conflict import conflict_graph

        return conflict_graph(self)

    def recovery_bounds(self, wait_for: int) -> Tuple[int, int]:
        """Bracket on recovered partitions ``|I|`` at ``w = wait_for``,
        an integer in ``[0, n]``; the family's bracket is
        :meth:`_recovery_bounds`."""
        w = spec_int(wait_for)
        if w is None or not 0 <= w <= self._n:
            raise ValueError(
                f"need an integer 0 <= w <= n, got w={wait_for!r}, n={self._n}"
            )
        return self._recovery_bounds(w)

    def _recovery_bounds(self, w: int) -> Tuple[int, int]:
        """Default bracket, valid for **any** placement: at least one
        available worker is always selected (``c`` partitions), and at
        most ``min(w, ⌊n/c⌋)`` pairwise-disjoint ``c``-sets fit
        (Theorem 11's counting argument needs nothing about the
        placement's structure).  Theorem 10's stronger lower bound
        ``⌈w/c⌉`` does *not* hold for arbitrary placements — e.g. a
        star-shaped table where every worker shares partition 0 pins
        ``α = 1`` — so it lives in the FR/CR overrides where the paper
        proves it.
        """
        n, c = self._n, self._c
        if w == 0:
            return 0, 0
        return c, min(min(w, n // c) * c, n)

    def decoder(self, *, rng: Any = None, cache: Any = None):
        """This placement's :class:`~repro.core.decoders.Decoder`: the
        exact-MIS decoder, correct for *any* placement and the one
        explicit and hetero tables are meant to use; FR, CR and HR
        override it with their linear-time algorithms.  Only the
        exact-MIS decoder reads ``cache``, the
        :class:`~repro.parallel.DecodeCache` of its optima."""
        from .exact_decoder import ExactDecoder

        return ExactDecoder(self, rng=rng, cache=cache)

    def decode_batch(self, masks: Any, *, rng: Any = None, cache: Any = None):
        """Decode a batch of availability masks —
        ``self.decoder(...).decode_batch(masks)``.  One-shot convenience
        for analysis code; callers decoding many batches should hold on
        to :meth:`decoder`."""
        return self.decoder(rng=rng, cache=cache).decode_batch(masks)

    @classmethod
    def spec_problems(
        cls,
        *,
        num_workers: int,
        partitions_per_worker: Optional[int] = None,
        params: Optional[Mapping[str, Any]] = None,
    ) -> List[str]:
        """Arithmetic-only feasibility problems (for spec admission).

        Must not construct anything larger than the spec spells out (an
        ``explicit`` table may be built; an ``FR(n, c)`` may not);
        return constraint-citing messages.  A family states each
        constraint once, as a function beside its class returning these
        messages, whose first one the constructor raises
        (``fr_problems``, ``hr_problems``).  The default accepts
        everything (constraints then surface at construction only).
        """
        return []

    def describe(self) -> str:
        """Multi-line human-readable table, mirroring the paper figures."""
        lines = [f"{self.kind}(n={self._n}, c={self._c})"]
        for worker in range(self._n):
            parts = ", ".join(f"D{p}" for p in self.partitions_of(worker))
            lines.append(f"  W{worker}: [{parts}]")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self._n}, c={self._c})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return (
            self._n == other._n
            and self._c == other._c
            and self._assignments == other._assignments
        )

    def __hash__(self) -> int:
        return hash(
            (self._n, self._c, tuple(sorted(self._assignments.items())))
        )
