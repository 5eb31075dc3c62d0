"""Communication-efficient gradient coding (Ye & Abbe, ICML'18).

The related work the paper cites for shrinking *upload size*: instead
of sending the full ``d``-dimensional group gradient, each worker in an
FR group sends one Vandermonde-coded combination of ``k`` blocks of it
(``d/k`` elements).  Any ``k`` of the group's ``c`` workers suffice to
solve for the blocks and reassemble the group sum, so the scheme
tolerates ``c − k`` stragglers per group at a ``k×`` communication
saving — the tolerance/communication trade-off the original paper
analyses.

Two decoders are provided:

* :meth:`CommEfficientGC.decode` — the original synchronous semantics:
  every group must have ≥ k survivors or decoding fails outright;
* :meth:`CommEfficientGC.decode_partial` — an **ignore-straggler
  extension in the spirit of IS-GC** (this repo's contribution, not in
  either paper): recover whichever groups have ≥ k survivors and return
  the partial sum plus the recovered partition set, exactly mirroring
  the IS-GC decode contract.  This composes the paper's "arbitrary
  ignorance" idea with Ye-Abbe compression.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from ..core.coding import as_block
from ..core.fractional import FractionalRepetition, fr_problems
from ..core.placement import spec_int
from ..exceptions import CodingError


def comm_efficient_problems(n: int, c: Optional[int], blocks: Any) -> List[str]:
    """Why ``k = blocks`` Vandermonde blocks over ``FR(n, c)`` cannot
    exist, as messages (empty when they can); ``c = None`` (not
    statically known) checks only what does not need it."""
    problems = fr_problems(n, c)
    k = spec_int(blocks)
    if k is None or (c is not None and not 1 <= k <= c):
        problems.append(
            "communication-efficient GC needs integer blocks k with "
            f"1 <= k <= c; got blocks={blocks!r}, c={c}"
        )
    return problems


class CommEfficientGC:
    """Vandermonde block coding over an FR placement."""

    def __init__(self, placement: FractionalRepetition, blocks: int):
        if not isinstance(placement, FractionalRepetition):
            raise CodingError(
                "communication-efficient GC is defined over FR placements, "
                f"got {type(placement).__name__}"
            )
        c = placement.partitions_per_worker
        problems = comm_efficient_problems(placement.num_workers, c, blocks)
        if problems:
            raise CodingError(problems[0])
        self._placement = placement
        self._k = blocks
        # Distinct real evaluation points keep every k×k Vandermonde
        # minor invertible; points spread in (0, 2] avoid huge powers.
        points = 2.0 * (np.arange(1, c + 1) / c)
        self._vandermonde = np.vander(points, blocks, increasing=True)

    # ------------------------------------------------------------------
    @property
    def placement(self) -> FractionalRepetition:
        return self._placement

    @property
    def blocks(self) -> int:
        """``k``: blocks per group gradient; upload shrinks by ``k×``."""
        return self._k

    @property
    def max_stragglers_per_group(self) -> int:
        return self._placement.partitions_per_worker - self._k

    def payload_elements(self, gradient_elements: int) -> int:
        """Upload size per worker for a ``gradient_elements``-dim model."""
        return -(-gradient_elements // self._k)  # ceil division

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _split_blocks(self, vec: np.ndarray) -> np.ndarray:
        """Zero-pad to a multiple of k and reshape to (k, d/k)."""
        block_len = self.payload_elements(vec.size)
        padded = np.zeros(block_len * self._k)
        padded[: vec.size] = vec
        return padded.reshape(self._k, block_len)

    def encode(self, partition_gradients: np.ndarray) -> np.ndarray:
        """Coded uploads for every worker from the ``(P, D)`` gradient
        block: row ``i`` is ``Σ_b V[j, b] · block_b`` of worker ``i``'s
        group sum (``j`` its place in the group), ``⌈D/k⌉`` long."""
        c = self._placement.partitions_per_worker
        block = as_block(
            partition_gradients, self._placement.num_partitions,
            "partition gradients",
        )
        # FR groups are runs of c partitions: sum each in index order.
        grouped = block.reshape(-1, c, block.shape[1])
        sums = grouped[:, 0].copy()
        for j in range(1, c):
            sums += grouped[:, j]
        blocks = [self._split_blocks(total) for total in sums]
        return np.stack([
            self._vandermonde[worker % c] @ blocks[worker // c]
            for worker in range(self._placement.num_workers)
        ])

    # ------------------------------------------------------------------
    # Master side
    # ------------------------------------------------------------------
    def _recover_group(
        self,
        group: int,
        survivors: list[int],
        payloads: np.ndarray,
        gradient_elements: int,
    ) -> np.ndarray:
        """Solve the k×k Vandermonde system for one group's blocks."""
        c = self._placement.partitions_per_worker
        chosen = survivors[: self._k]
        locals_ = [w - group * c for w in chosen]
        system = self._vandermonde[locals_, :]
        blocks = np.linalg.solve(system, payloads[chosen])
        return blocks.reshape(-1)[:gradient_elements]

    def decode(
        self,
        available_workers: Iterable[int],
        payloads: np.ndarray,
        gradient_elements: int,
    ) -> np.ndarray:
        """Synchronous semantics: full gradient or :class:`CodingError`."""
        total, recovered = self.decode_partial(
            available_workers, payloads, gradient_elements
        )
        n = self._placement.num_partitions
        if len(recovered) != n:
            missing = sorted(set(range(n)) - recovered)
            raise CodingError(
                f"groups covering partitions {missing} have fewer than "
                f"k={self._k} survivors; full recovery impossible"
            )
        return total

    def decode_partial(
        self,
        available_workers: Iterable[int],
        payloads: np.ndarray,
        gradient_elements: int,
    ) -> Tuple[np.ndarray, FrozenSet[int]]:
        """Ignore-straggler semantics: best partial sum + recovered set,
        from the ``(n, ⌈D/k⌉)`` payload block."""
        available = sorted(set(available_workers))
        if not available:
            raise CodingError("cannot decode with zero available workers")
        payloads = as_block(
            payloads, self._placement.num_workers, "worker payloads"
        )
        c = self._placement.partitions_per_worker
        total = np.zeros(gradient_elements)
        recovered: set[int] = set()
        for group in range(self._placement.num_groups):
            survivors = [w for w in available if w // c == group]
            if len(survivors) < self._k:
                continue
            total += self._recover_group(
                group, survivors, payloads, gradient_elements
            )
            recovered.update(range(group * c, (group + 1) * c))
        if not recovered:
            raise CodingError(
                f"no group has the k={self._k} survivors needed to "
                "recover anything"
            )
        return total, frozenset(recovered)
