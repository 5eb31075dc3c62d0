"""Hybrid repetition (HR) placement — Sec. VI.

``HR(n, c1, c2)`` with ``g`` groups interpolates between FR and CR.  The
placement gives each worker ``c = c1 + c2`` partitions in two parts:

* the *lower part* (``c2`` rows of the global CR placement): worker
  ``i`` holds partitions ``(i + r) mod n`` for ``r = 0..c2-1`` — these
  wrap around the whole circle, so the last ``c2 - 1`` workers of a
  group "spill" into the next group's partition range;
* the *upper part* (``c1`` rows wrapping **within the group**): for
  worker ``i`` in group ``q`` with local index ``j = i mod n0``
  (``n0 = n/g``), the partitions ``q·n0 + ((j - r) mod n0)`` for
  ``r = 1..c1`` — the ``c1`` partitions *behind* it in its group.

This is the unique reading of Fig. 7/8 under which the paper's
closed-form conflict test (Alg. 4) is exact; we verified it against
partition-intersection ground truth over the full valid parameter grid
(see ``tests/test_hybrid.py``).  Note Alg. 4's spill threshold is
``j1 ≥ n0 - c2 + 2`` in the paper's 1-indexing (its printed
``n0 - c2 + 1`` includes one worker whose CR rows end exactly at the
group boundary and therefore never conflict across it — an off-by-one
we correct and document).

Endpoints (verified by tests):

* ``c1 = 0`` (or ``g = 1``)  →  conflict-equivalent to ``CR(n, c)``;
* ``c2 = 0`` with ``n0 = c``  →  placement-equivalent to ``FR(n, c)``;
* ``HR(n, c, 0)`` equals ``HR(n, c-1, 1)`` (the first CR row is the
  identity row, same as one within-group wrap step).

Theorem 6 restricts the general scheme (``c1, c2 > 0``) to
``c ≤ n0 ≤ c + c1`` so that workers within a group always pairwise
conflict — the invariant the HR decoder (Alg. 3) relies on.  Since
``c1 ≤ c - 1`` this implies the paper's stated range ``n0 ≤ 2c - 1``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..exceptions import ConfigurationError, PlacementError
from .bounds import hr_alpha_bounds
from .placement import Placement, spec_int


def hr_problems(n: int, c1: int, c2: int, g: int) -> List[str]:
    """Theorem 5-7 feasibility of ``HR(n, c1, c2)`` with ``g`` groups:
    why it cannot exist, as messages (empty when it can)."""
    if any(spec_int(value) is None for value in (n, c1, c2, g)):
        return [
            "HR placement needs integer n and params c1, c2 and "
            "num_groups (HR(n, c1, c2) with g groups, Sec. VI)"
        ]
    c = c1 + c2
    if c1 < 0 or c2 < 0 or c < 1:
        return [
            "HR needs c1, c2 >= 0 with c = c1 + c2 >= 1; got "
            f"c1={c1}, c2={c2}"
        ]
    if g < 1 or n % g != 0:
        return [
            "HR requires g | n (workers split into g equal groups, "
            f"Sec. VI); got n={n}, num_groups={g}"
        ]
    if c > n:
        return [f"HR needs c = c1 + c2 <= n; got c={c}, n={n}"]
    problems: List[str] = []
    n0 = n // g
    if c1 > 0 and g > 1:
        if c > n0:
            problems.append(
                "HR requires c <= n0 = n/g (Theorem 5: a group must "
                f"hold all its partitions); got c={c}, n0={n0}"
            )
        if c1 > n0:
            problems.append(
                "HR upper part needs c1 <= n0 (at most one within-group "
                f"wrap); got c1={c1}, n0={n0}"
            )
        if c2 > 0 and n0 > c + c1:
            problems.append(
                "general HR needs n0 <= c + c1 (Theorem 6 within-group "
                "completeness: workers of one group must pairwise "
                f"conflict); got n0={n0}, c={c}, c1={c1}"
            )
    return problems


class HybridRepetition(Placement):
    """The HR placement ``HR(n, c1, c2)`` with ``g`` groups.

    ``partitions_per_worker``, when given, must equal ``c1 + c2``.
    """

    scheme = "hr"
    summary = (
        "hybrid repetition — HR(n, c1, c2) with g groups interpolates "
        "FR and CR (c = c1 + c2); Theorem 5-7 constraints apply"
    )
    paper = "Sec. VI; conflict test Alg. 4; decoder Alg. 3; Thms. 5-7"
    uses_uniform_c = False

    def __init__(
        self,
        num_workers: int,
        c1: int,
        c2: int,
        num_groups: int,
        partitions_per_worker: Optional[int] = None,
    ):
        problems = hr_problems(num_workers, c1, c2, num_groups)
        if problems:
            raise PlacementError(problems[0])
        if (
            partitions_per_worker is not None
            and spec_int(partitions_per_worker) != c1 + c2
        ):
            raise ConfigurationError(
                f"HR stores c1 + c2 = {c1 + c2} partitions per worker "
                f"but partitions_per_worker={partitions_per_worker} was "
                "given; make them agree (or drop partitions_per_worker)"
            )
        super().__init__(num_workers, c1 + c2)
        n = self._n
        n0 = n // num_groups
        self._c1 = c1
        self._c2 = c2
        self._g = num_groups
        self._n0 = n0

        assignments = {}
        for worker in range(n):
            group = worker // n0
            local = worker % n0
            parts = []
            # Lower part: global cyclic wrap (CR rows 0..c2-1).
            for r in range(c2):
                parts.append((worker + r) % n)
            # Upper part: the c1 partitions behind, wrapping in-group.
            for r in range(1, c1 + 1):
                parts.append(group * n0 + ((local - r) % n0))
            assignments[worker] = tuple(parts)
        self._finalize(assignments)

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------
    @property
    def c1(self) -> int:
        """Rows taken from the grouped (FR-like) upper part."""
        return self._c1

    @property
    def c2(self) -> int:
        """Rows taken from the global CR lower part."""
        return self._c2

    @property
    def num_groups(self) -> int:
        """``g``: number of worker groups."""
        return self._g

    @property
    def group_size(self) -> int:
        """``n0 = n / g``: workers (and partitions) per group."""
        return self._n0

    def group_of(self, worker: int) -> int:
        """Group index of ``worker`` (0-indexed)."""
        if not 0 <= worker < self._n:
            raise PlacementError(f"worker {worker} out of range [0, {self._n})")
        return worker // self._n0

    def workers_in_group(self, group: int) -> Tuple[int, ...]:
        """All workers of ``group``, in ascending index order."""
        if not 0 <= group < self._g:
            raise PlacementError(f"group {group} out of range [0, {self._g})")
        return tuple(range(group * self._n0, (group + 1) * self._n0))

    # ------------------------------------------------------------------
    # Fast conflict predicate (Alg. 4, corrected)
    # ------------------------------------------------------------------
    def conflicts_fast(self, worker_a: int, worker_b: int) -> bool:
        """O(1) conflict test; exact (tests assert agreement with the
        shared-partition ground truth over the valid parameter grid).

        Alg. 4 is directional (``i1`` clockwise-before ``i2``), so this
        symmetric wrapper tests both orientations.
        """
        if worker_a == worker_b:
            return True
        n, n0, c = self._n, self._n0, self._c
        if self._c1 == 0 or self._g == 1:
            # Pure CR: Theorem 1 distance rule on the global circle.
            diff = abs(worker_a - worker_b) % n
            return min(diff, n - diff) < c
        if self._c2 == 0:
            # Grouped CR (Sec. VI-A): conflicts only within a group,
            # following the within-group CR distance rule.
            if worker_a // n0 != worker_b // n0:
                return False
            diff = abs(worker_a - worker_b) % n0
            return min(diff, n0 - diff) < c
        return self._conflicts_directional(
            worker_a, worker_b
        ) or self._conflicts_directional(worker_b, worker_a)

    def _conflicts_directional(self, i1: int, i2: int) -> bool:
        """Alg. 4 (corrected): conflict when ``i2``'s group follows ``i1``'s.

        Same group → conflict (complete within-group graph, Theorem 6).
        Adjacent groups → conflict iff ``i1``'s CR rows actually spill
        past its group boundary (``j1 ≥ n0 - c2 + 1``, 0-indexed) and
        the clockwise gap to ``i2`` is below ``c``.
        """
        g1 = i1 // self._n0
        g2 = i2 // self._n0
        if g1 == g2:
            return True
        if (g2 - g1) % self._g == 1:
            j1 = i1 % self._n0
            if j1 >= self._n0 - self._c2 + 1 and (i2 - i1) % self._n < self._c:
                return True
        return False

    def _recovery_bounds(self, w: int) -> Tuple[int, int]:
        # Corrected group-wise α bounds (see bounds.hr_alpha_bounds for
        # why the printed Theorem 10 fails when n0 > c), scaled to
        # partitions.
        n, c = self._n, self._c
        lo, hi = hr_alpha_bounds(n, self._c1, self._c2, self._g, w)
        return min(lo * c, n), min(hi * c, n)

    @classmethod
    def spec_problems(
        cls, *, num_workers, partitions_per_worker=None, params=None,
    ) -> List[str]:
        params = params or {}
        c1, c2, g = (params.get(key) for key in ("c1", "c2", "num_groups"))
        problems = hr_problems(num_workers, c1, c2, g)
        if any(spec_int(value) is None for value in (c1, c2, g)):
            return problems
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

    def __repr__(self) -> str:
        return (
            f"HybridRepetition(n={self._n}, c1={self._c1}, c2={self._c2}, "
            f"g={self._g})"
        )
