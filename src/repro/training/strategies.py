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

The decode contract returns the *sum* of recovered per-partition
gradients plus the recovered set; the trainer divides by the count so
every scheme performs an unbiased mean-gradient update (Assumption 2).
"""

from __future__ import annotations

import abc
import copy
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

import numpy as np

from ..codes.gc_scheme import ClassicGradientCode
from ..core.coding import SummationCode
from ..core.scheme import make_placement
from ..core.decoders import Decoder, decoder_for
from ..core.placement import Placement
from ..exceptions import ConfigurationError
from ..parallel.cache import DecodeCache
from ..simulation.policies import WaitForAll, WaitForK, WaitPolicy
from ..types import DecodeResult

GradientMap = Mapping[int, np.ndarray]


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
    def encode(self, partition_gradients: GradientMap) -> Dict[int, np.ndarray]:
        """Worker payloads from per-partition gradients."""

    @abc.abstractmethod
    def decode(
        self,
        available_workers: Iterable[int],
        payloads: GradientMap,
    ) -> Tuple[np.ndarray, FrozenSet[int]]:
        """(sum of recovered per-partition gradients, recovered set)."""

    def spawn(
        self, seed: int, cache: "DecodeCache | None" = None
    ) -> "TrainingStrategy":
        """This scheme for one more run: what is fixed before training
        (placement, code, wait policy) shared, what a run mutates new
        and seeded by ``seed`` (``cache``: an explicit
        :class:`DecodeCache` in place of a new one).  Schemes without
        run state are shared whole; the others override this."""
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

    def encode(self, partition_gradients: GradientMap) -> Dict[int, np.ndarray]:
        # c = 1: worker i's payload is exactly partition i's gradient.
        return {
            w: np.asarray(partition_gradients[w], dtype=float)
            for w in range(self._placement.num_workers)
        }

    def decode(self, available_workers, payloads):
        workers = sorted(available_workers)
        n = self._placement.num_workers
        if len(workers) != n:
            raise ConfigurationError(
                f"sync SGD requires all {n} workers, got {len(workers)}"
            )
        total = sum(np.asarray(payloads[w], dtype=float) for w in workers)
        return total, frozenset(range(n))


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

    def encode(self, partition_gradients: GradientMap) -> Dict[int, np.ndarray]:
        return {
            w: np.asarray(partition_gradients[w], dtype=float)
            for w in range(self._placement.num_workers)
        }

    def decode(self, available_workers, payloads):
        workers = sorted(available_workers)
        total = sum(np.asarray(payloads[w], dtype=float) for w in workers)
        return total, frozenset(workers)


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

    @property
    def code(self) -> ClassicGradientCode:
        return self._code

    def encode(self, partition_gradients: GradientMap) -> Dict[int, np.ndarray]:
        return self._code.encode(partition_gradients)

    def decode(self, available_workers, payloads):
        total = self._code.decode(available_workers, payloads)
        n = self._placement.num_workers
        return total, frozenset(range(n))


class ISGCStrategy(TrainingStrategy):
    """IS-GC: summation code + conflict-graph decoding, arbitrary ``w``."""

    name = "is-gc"

    def __init__(
        self,
        placement: Placement,
        wait_for: int,
        rng: np.random.Generator | None = None,
        decoder: Decoder | None = None,
        policy: WaitPolicy | None = None,
        cache: "DecodeCache | None" = None,
    ):
        n = placement.num_workers
        if not 1 <= wait_for <= n:
            raise ConfigurationError(
                f"need 1 <= w <= n, got w={wait_for}, n={n}"
            )
        super().__init__(placement, policy or WaitForK(wait_for))
        self._w = wait_for
        self._code = SummationCode(placement)
        self._decoder = decoder or decoder_for(placement, rng=rng, cache=cache)
        if decoder is not None and cache is not None:
            decoder.attach_cache(cache)
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

    @property
    def decode_cache(self) -> "DecodeCache | None":
        """The decoder's :class:`DecodeCache`, if one is attached."""
        return self._decoder.cache

    def spawn(self, seed, cache=None):
        """Own fairness generator, decode cache and ``last_decode``."""
        twin = copy.copy(self)
        twin._decoder = self._decoder.fork(
            rng=np.random.default_rng(seed),
            cache=cache if cache is not None else DecodeCache(),
        )
        twin.last_decode = None
        return twin

    def encode(self, partition_gradients: GradientMap) -> Dict[int, np.ndarray]:
        return self._code.encode(partition_gradients)

    def decode(self, available_workers, payloads):
        decision = self._decoder.decode(available_workers)
        self.last_decode = decision
        total = self._code.decode_sum(decision, payloads)
        return total, decision.recovered_partitions
