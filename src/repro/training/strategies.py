"""Training strategies: the schemes compared in the paper.

A strategy bundles (placement, wait policy, encode, decode) behind one
interface so the trainer — and the experiment harnesses — can swap
schemes freely:

* :class:`SyncSGDStrategy` — ``c = 1``, wait for all ``n`` workers.
* :class:`ISSGDStrategy` — ``c = 1``, wait for the ``w`` fastest
  workers, ignore the rest (k-sync / fastest-k SGD).
* :class:`ClassicGCStrategy` — gradient coding with exact recovery;
  must wait for ``n - c + 1`` workers.
* :class:`ISGCStrategy` — the paper's contribution: summation coding
  over any placement, wait for any ``w`` workers, decode the maximal
  partial sum via the scheme's conflict-graph decoder.

One round is two blocks: ``encode`` maps the ``(P, D)`` block of
per-partition gradients (row ``p`` is ``g_p``) to the ``(n, D)`` block
of worker payloads (row ``i`` is worker ``i``'s upload).  Each scheme's
``weights`` turns a survivor set into payload rows, their weights and
the recovered set; ``decode`` adds the rows with
:func:`~repro.core.coding.combine` into the *sum* of recovered
per-partition gradients, and the trainer divides by the count so every
scheme performs an unbiased mean-gradient update (Assumption 2).
"""

from __future__ import annotations

import abc
import copy
from typing import FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from ..codes.gc_scheme import ClassicGradientCode
from ..core.batch import validate_mask
from ..core.coding import SummationCode, as_block, combine
from ..core.scheme import make_placement
from ..core.decoders import Decoder
from ..core.placement import Placement
from ..exceptions import ConfigurationError
from ..parallel.cache import DecodeCache
from ..simulation.policies import WaitForAll, WaitForK, WaitPolicy
from ..types import DecodeResult


class TrainingStrategy(abc.ABC):
    """One straggler-mitigation scheme, end to end."""

    name: str = "abstract"

    def __init__(self, placement: Placement, policy: WaitPolicy):
        self._placement = placement
        self._policy = policy

    @property
    def placement(self) -> Placement:
        return self._placement

    @property
    def policy(self) -> WaitPolicy:
        return self._policy

    @abc.abstractmethod
    def encode(self, partition_gradients: np.ndarray) -> np.ndarray:
        """The ``(n, D)`` payload block from the ``(P, D)`` gradient
        block; a block of the wrong row count raises
        :class:`~repro.exceptions.CodingError`."""

    #: What ``decode``'s sum starts from (see :func:`combine`).
    sum_start = 0.0

    @abc.abstractmethod
    def weights(self, survivors: FrozenSet[int]) -> Tuple[
        List[int], Optional[np.ndarray], FrozenSet[int]
    ]:
        """(payload rows, their weights or ``None`` for unit weights,
        recovered partitions) for a checked survivor set."""

    def decode(
        self,
        available_workers: Iterable[int],
        payloads: np.ndarray,
    ) -> Tuple[np.ndarray, FrozenSet[int]]:
        """(sum of recovered per-partition gradients, recovered set);
        a malformed survivor set raises
        :class:`~repro.exceptions.DecodeError`."""
        rows, weights, recovered = self.weights(
            self._survivors(available_workers)
        )
        block = as_block(
            payloads, self._placement.num_workers, "worker payloads"
        )
        return combine(block, rows, weights, self.sum_start), recovered

    def _survivors(self, available_workers):
        """``W'`` checked by :func:`~repro.core.batch.validate_mask`."""
        return validate_mask(available_workers, self._placement.num_workers)

    def spawn(self, seed: int) -> "TrainingStrategy":
        """This scheme for one more run: what is fixed before training
        (placement, code, wait policy) shared, what a run mutates new
        and seeded by ``seed``.  Schemes without run state are shared
        whole; the others override this."""
        return self

    def describe(self) -> str:
        """Short human-readable identification of the scheme."""
        return (
            f"{self.name} (n={self._placement.num_workers}, "
            f"c={self._placement.partitions_per_worker})"
        )


class SyncSGDStrategy(TrainingStrategy):
    """Synchronous SGD: one partition per worker, wait for everyone."""

    name = "sync-sgd"

    def __init__(self, num_workers: int):
        placement = make_placement(
            "cr", num_workers=num_workers, partitions_per_worker=1
        )
        super().__init__(placement, WaitForAll(num_workers))

    def encode(self, partition_gradients: np.ndarray) -> np.ndarray:
        # c = 1: worker i's payload is exactly partition i's gradient.
        return as_block(
            partition_gradients, self._placement.num_workers,
            "partition gradients",
        )

    def weights(self, survivors):
        n = self._placement.num_workers
        if len(survivors) != n:
            raise ConfigurationError(
                f"sync SGD requires all {n} workers, got {len(survivors)}"
            )
        return list(range(n)), None, frozenset(range(n))


class ISSGDStrategy(TrainingStrategy):
    """Ignore-straggler SGD: sum whatever the ``w`` fastest sent."""

    name = "is-sgd"

    def __init__(self, num_workers: int, wait_for: int, policy: WaitPolicy | None = None):
        if not 1 <= wait_for <= num_workers:
            raise ConfigurationError(
                f"need 1 <= w <= n, got w={wait_for}, n={num_workers}"
            )
        placement = make_placement(
            "cr", num_workers=num_workers, partitions_per_worker=1
        )
        super().__init__(placement, policy or WaitForK(wait_for))
        self._w = wait_for

    @property
    def wait_for(self) -> int:
        return self._w

    def encode(self, partition_gradients: np.ndarray) -> np.ndarray:
        return as_block(
            partition_gradients, self._placement.num_workers,
            "partition gradients",
        )

    def weights(self, survivors):
        rows = sorted(survivors)
        return rows, None, frozenset(rows)


class ClassicGCStrategy(TrainingStrategy):
    """Classic gradient coding: exact recovery from ``n - c + 1`` workers."""

    name = "gc"

    def __init__(
        self,
        placement: Placement,
        rng: np.random.Generator | None = None,
    ):
        self._code = ClassicGradientCode(placement, rng=rng)
        super().__init__(placement, WaitForK(self._code.required_workers))
        # A decode vector is a pure function of the survivor set, like
        # the code it is solved from: the memo is no run state, and
        # ``spawn`` shares it with the code.
        self._vectors = DecodeCache()

    @property
    def code(self) -> ClassicGradientCode:
        return self._code

    @property
    def decode_cache(self) -> DecodeCache:
        """The memo of decode vectors, one per survivor set seen."""
        return self._vectors

    def decode_vector(self, available_workers: Iterable[int]) -> np.ndarray:
        """The code's decode vector for ``sorted(W')``, solved (and
        residual-checked) on the first sight of the set only; a
        malformed (:func:`~repro.core.batch.validate_mask`) or
        undecodable set raises every time and is never stored."""
        return self.weights(self._survivors(available_workers))[1]

    def encode(self, partition_gradients: np.ndarray) -> np.ndarray:
        return self._code.encode(partition_gradients)

    def weights(self, survivors):
        rows = sorted(survivors)
        vector = self._vectors.get_or_compute(
            self._placement.fingerprint, "gc", tuple(rows),
            lambda: self._code.solve(rows),
        )
        return rows, vector, frozenset(range(self._placement.num_workers))


class ISGCStrategy(TrainingStrategy):
    """IS-GC: summation code + conflict-graph decoding, arbitrary ``w``."""

    name = "is-gc"
    #: -0.0: the sum starts from the first selected payload row.
    sum_start = -0.0

    def __init__(
        self,
        placement: Placement,
        wait_for: int,
        rng: np.random.Generator | None = None,
        decoder: Decoder | None = None,
        policy: WaitPolicy | None = None,
    ):
        n = placement.num_workers
        if not 1 <= wait_for <= n:
            raise ConfigurationError(
                f"need 1 <= w <= n, got w={wait_for}, n={n}"
            )
        super().__init__(placement, policy or WaitForK(wait_for))
        self._w = wait_for
        self._code = SummationCode(placement)
        self._decoder = decoder or placement.decoder(rng=rng)
        self.name = f"is-gc-{placement.scheme}"
        #: The most recent DecodeResult, for observability (trainers
        #: read num_searches / recovered counts from here).
        self.last_decode: DecodeResult | None = None

    @property
    def wait_for(self) -> int:
        return self._w

    @property
    def decoder(self) -> Decoder:
        return self._decoder

    def spawn(self, seed):
        """Own fairness generator and ``last_decode``; the decoder's
        search tables (and memo, if it keeps one) are shared."""
        twin = copy.copy(self)
        twin._decoder = self._decoder.fork(rng=np.random.default_rng(seed))
        twin.last_decode = None
        return twin

    def encode(self, partition_gradients: np.ndarray) -> np.ndarray:
        return self._code.encode(partition_gradients)

    def _survivors(self, available_workers):
        # The decoder checks W' with validate_mask itself.
        return available_workers

    def weights(self, survivors):
        decision = self._decoder.decode(survivors)
        self.last_decode = decision
        rows = sorted(decision.selected_workers)
        return rows, None, decision.recovered_partitions
