"""The decoder interface.

A *decoder* implements the master's ``Decode()`` function: given the set
``W'`` of workers whose coded gradients arrived, select a pairwise
non-conflicting subset (an independent set of ``G[W']``) whose summed
payloads recover ``ĝ = Σ_{i∈I} g_i`` with ``|I|`` maximal.

All decoders share two contracts the paper relies on:

* **optimality** — the returned worker set is a *maximum* independent
  set of ``G[W']`` (verified against the exact MIS solver in tests);
* **fairness** — under homogeneous stragglers every partition has the
  same probability of appearing in ``I`` (randomized tie-breaking).

The fairness draws
------------------
A decoder holds an integer **key** and a **decode counter**.  Decode
``k`` (the counter's value when it starts) draws from the stream keyed
``S(key, k)``, where ``S`` is SplitMix64 used as a counter hash
(:func:`repro.splitmix.counter_hash`): draw ``j`` on circle ``c`` is
the word ``S(S(key, k), c·2³² + j)``, a pure function of
``(key, k, c, j)``.  A decoder with one circle draws on circle 0; HR
with ``c2 = 0`` draws group ``g``'s window on circle ``g``.  A bounded
index (a seed vertex, a seed group, a pick among optima) is
:func:`~repro.splitmix.bounded_index` of one word, exactly uniform; a start order is an ascending sort of one word
per start, ties broken by the start's index.  So the draws need no
generator state: :meth:`Decoder.decode` hashes on Python ints, and
:meth:`Decoder.decode_batch` hashes every row of a batch as arrays and
equals looping ``decode`` because row ``i`` is decode ``k + i`` by
definition.  A decode that fails validation does not count.

The key is one 64-bit word drawn from the ``rng`` a decoder is built
(or :meth:`~Decoder.fork`-ed) with; nothing draws from that generator
afterwards, and :attr:`Decoder.rng` reads it back unchanged.  The key
and the counter are the whole of a decoder's run state
(:class:`~repro.engine.state.EngineState` keeps both).

Public API
----------
:meth:`Decoder.decode` is the per-mask entry point: it validates the
availability mask, runs the scheme's search, checks the disjointness
invariant and returns a :class:`~repro.types.DecodeResult`.
:meth:`Decoder.decode_batch` decodes a whole ``(num_masks, n)``
boolean array (or list of masks) at once, bit-for-bit equal to
looping ``decode`` — same selections, same counter at the end — with
the draws and the deterministic kernels vectorized through
:mod:`repro.splitmix` and :mod:`repro.core.batch`.  Subclasses
implement the :meth:`Decoder._decode` hook returning a typed
:class:`Selection`, and may override ``decode_batch`` with a
vectorized path.

A placement picks its own decoder: :meth:`Placement.decoder
<repro.core.placement.Placement.decoder>` is the exact-MIS decoder,
and FR, CR and HR override it with Algs. 1–3 (``fr_decoder``,
``cr_decoder``, ``hr_decoder``).  :func:`decoder_for` is that method
as a function.  ``rng`` and ``cache`` are keyword-only in both and in
every decoder constructor.

Caching
-------
Only a search worth memoising has a memo.  The exact-MIS decoder keeps
its optima per availability mask in a
:class:`~repro.parallel.DecodeCache` (its own unless ``cache=`` hands
one in), under the fairness draw, so memoised decoding is bit-for-bit
identical to a fresh search.  Algs. 1–3 are linear-time walks: FR, CR
and HR accept ``cache`` and ignore it.
"""

from __future__ import annotations

import abc
import copy
from functools import cached_property
from typing import (
    Any,
    FrozenSet,
    Iterable,
    NamedTuple,
    Sequence,
)

import numpy as np

from ..exceptions import ConfigurationError, DecodeError
from ..splitmix import counter_hash, counter_hashes, weyl_terms
from ..types import DecodeResult
from .batch import (
    BatchDecodeResult,
    MaskBatch,
    masks_to_array,
    partition_matrix,
    validate_mask,
)
from .placement import Placement


class Selection(NamedTuple):
    """What a decoder's search found for one availability mask."""

    #: the pairwise non-conflicting workers whose payloads are summed.
    workers: FrozenSet[int]
    #: how many greedy searches (start vertices) were run.
    num_searches: int


#: Circle ``c``'s draws start at counter ``c · CIRCLE`` of a decode's
#: stream.
CIRCLE = 2**32


def _key_from(rng: np.random.Generator) -> int:
    """A stream key: one 64-bit word of ``rng``."""
    return int(rng.integers(2**64, dtype=np.uint64))


def _check_word(name: str, value) -> int:
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or not 0 <= value < 2**64
    ):
        raise ConfigurationError(
            f"decoder {name} must be an integer in [0, 2**64), "
            f"got {value!r}"
        )
    return int(value)


def decoder_for(
    placement: Placement,
    *,
    rng: np.random.Generator | None = None,
    cache: "Any | None" = None,
) -> "Decoder":
    """``placement.decoder(rng=rng, cache=cache)``: Algs. 1–3 for FR,
    CR and HR, the exact-MIS decoder for any other placement."""
    return placement.decoder(rng=rng, cache=cache)


class Decoder(abc.ABC):
    """Base class for the master's ``Decode()`` function."""

    scheme: str = "abstract"

    def __init__(
        self,
        placement: Placement,
        *,
        rng: np.random.Generator | None = None,
        cache: "Any | None" = None,
    ):
        # ``cache`` is accepted for every family and read only by the
        # decoders with a search worth memoising (the exact one).
        self._placement = placement
        # The fallback stays: the README, the tutorial and the benchmark
        # harness's self-test build decoders without an rng.
        self._rng = rng if rng is not None else np.random.default_rng()  # repro: noqa[DET003] deliberate opt-in to entropy when no rng is injected
        self._key = _key_from(self._rng)
        self._count = 0

    @property
    def rng(self) -> np.random.Generator:
        """The generator :attr:`key` was drawn from (one word, when the
        decoder was built or forked; nothing draws from it since)."""
        return self._rng

    @property
    def key(self) -> int:
        """The fairness stream's key (see the module docstring)."""
        return self._key

    @key.setter
    def key(self, value: int) -> None:
        self._key = _check_word("key", value)

    @property
    def decode_count(self) -> int:
        """How many masks this decoder has decoded: decode ``k`` draws
        from the stream keyed ``S(key, k)``."""
        return self._count

    @decode_count.setter
    def decode_count(self, value: int) -> None:
        self._count = _check_word("decode_count", value)

    @property
    def placement(self) -> Placement:
        return self._placement

    def fork(self, *, rng: np.random.Generator) -> "Decoder":
        """A decoder for one more run over the same placement: its key
        is one word of ``rng``, its counter starts at zero, and it
        shares this one's search tables (built here if need be; arrays
        made read-only), a memo among them."""
        for table in self._search_tables():
            if isinstance(table, np.ndarray):
                table.flags.writeable = False
        twin = copy.copy(self)
        twin._rng = rng
        twin._key = _key_from(rng)
        twin._count = 0
        return twin

    def _stream_keys(self, num_masks: int) -> np.ndarray:
        """The next ``num_masks`` decodes' stream keys ``S(key, k)`` as
        a ``uint64`` array; the counter moves past them."""
        first = self._count
        self._count = first + num_masks
        return counter_hashes(
            np.uint64(self._key),
            weyl_terms(np.arange(first, first + num_masks, dtype=np.uint64)),
        )

    def _search_tables(self) -> Sequence[Any]:
        """The placement-only tables, lazily built ones included
        (subclass hook)."""
        return ()

    def decode(self, available_workers: Iterable[int]) -> DecodeResult:
        """Run one decoding round — the single public entry point.

        Parameters
        ----------
        available_workers:
            The workers ``W'`` whose coded gradients the master received
            this step.  Must be non-empty, duplicate-free integer ids
            within ``[0, n)`` — validated by the shared
            :func:`~repro.core.batch.validate_mask`, so malformed
            masks raise the same :class:`DecodeError` here as on the
            batched path, for every decoder family.
        """
        available = validate_mask(
            available_workers, self._placement.num_workers
        )
        stream = counter_hash(self._key, self._count)
        self._count += 1
        selection = self._decode(available, stream)
        selected, searches = selection
        if not selected:
            raise DecodeError(
                "decoder selected no workers despite availability "
                f"{sorted(available)}"
            )
        partitions_of = self._placement.partitions_of
        covered = [p for w in selected for p in partitions_of(w)]
        recovered = frozenset(covered)
        if len(covered) != len(recovered):
            # Some partition is covered twice: let the full check name it.
            self._check_disjoint(selected)
        return DecodeResult(
            selected_workers=frozenset(selected),
            recovered_partitions=recovered,
            available_workers=available,
            num_searches=searches,
        )

    def decode_batch(self, masks: MaskBatch) -> BatchDecodeResult:
        """Decode a whole batch of availability masks at once.

        ``masks`` is either a ``(num_masks, n)`` boolean indicator
        array or a sequence of worker-id iterables.  The contract is
        **bit-for-bit equivalence** with the looped path: the returned
        :meth:`BatchDecodeResult.results` equal
        ``[self.decode(m) for m in masks]`` element by element, *and*
        :attr:`decode_count` ends where the loop leaves it — row ``i``
        is decode ``decode_count + i``, whose draws are a function of
        ``(key, decode_count + i)`` alone (see the module docstring).

        The one deliberate difference: malformed rows fail fast.  All
        rows are validated up front (lowest bad row raises, same
        :class:`DecodeError` as the looped path) before the counter
        moves, whereas a loop would decode rows 0..k-1 before raising
        on row k.

        This base implementation validates then loops ``decode`` — the
        correct-by-construction fallback for decoders without a
        vectorized kernel.  FR, CR, HR and the exact decoder override
        it: each hashes the whole batch's draws as arrays, and the
        exact decoder batches its memo lookups as well.
        """
        avail, originals = masks_to_array(
            masks, self._placement.num_workers
        )
        if originals is None:
            originals = [np.flatnonzero(row) for row in avail]
        return BatchDecodeResult.from_results(
            avail,
            [self.decode(mask) for mask in originals],
            self._placement.num_partitions,
        )

    # ------------------------------------------------------------------
    def _decode(self, available: FrozenSet[int], stream: int) -> Selection:
        """Search hook: the :class:`Selection` for ``available``, its
        fairness draws keyed by ``stream`` (``S(key, k)``)."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement _decode()"
        )

    # ------------------------------------------------------------------
    def _finalize_batch(
        self,
        avail: np.ndarray,
        selected: np.ndarray,
        searches: np.ndarray,
    ) -> BatchDecodeResult:
        """Shared tail of every vectorized ``decode_batch`` override:
        invariant checks and recovery via the partition matrix."""
        empty = ~selected.any(axis=1)
        if empty.any():
            row = int(np.flatnonzero(empty)[0])
            raise DecodeError(
                "decoder selected no workers despite availability "
                f"{np.flatnonzero(avail[row]).tolist()}"
            )
        # float64 matmul takes the BLAS path (integer matmul does not);
        # counts are small exact integers either way.
        counts = selected.astype(np.float64) @ self._partition_matrix_f64
        if (counts > 1.5).any():
            row, part = (int(v) for v in np.argwhere(counts > 1.5)[0])
            raise DecodeError(
                f"decoder bug: batch row {row} re-covers partition {part}"
            )
        recovered = counts > 0.5
        return BatchDecodeResult(
            available=avail,
            selected=selected,
            recovered=recovered,
            num_searches=np.asarray(searches, dtype=np.intp),
        )

    @cached_property
    def _partition_matrix_f64(self) -> np.ndarray:
        """The placement's worker→partition indicator as a float matrix
        (used to batch recovery + the disjointness check via one matrix
        product)."""
        return partition_matrix(self._placement).astype(np.float64)

    def _check_disjoint(self, selected: Iterable[int]) -> None:
        """Internal invariant: selected workers' partitions are disjoint.
        :meth:`decode` runs it only once a partition count says they
        are not, so the error names the first re-covering worker."""
        seen: set[int] = set()
        for w in selected:
            parts = set(self._placement.partitions_of(w))
            overlap = seen & parts
            if overlap:
                raise DecodeError(
                    f"decoder bug: worker {w} re-covers partitions "
                    f"{sorted(overlap)}"
                )
            seen |= parts
