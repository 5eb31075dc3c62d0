"""The decoder interface.

A *decoder* implements the master's ``Decode()`` function: given the set
``W'`` of workers whose coded gradients arrived, select a pairwise
non-conflicting subset (an independent set of ``G[W']``) whose summed
payloads recover ``ĝ = Σ_{i∈I} g_i`` with ``|I|`` maximal.

All decoders share two contracts the paper relies on:

* **optimality** — the returned worker set is a *maximum* independent
  set of ``G[W']`` (verified against the exact MIS solver in tests);
* **fairness** — under homogeneous stragglers every partition has the
  same probability of appearing in ``I`` (randomized tie-breaking,
  driven by an injected :class:`numpy.random.Generator`).

Public API
----------
:meth:`Decoder.decode` is the per-mask entry point: it validates the
availability mask, runs the scheme's search, checks the disjointness
invariant and returns a :class:`~repro.types.DecodeResult`.
:meth:`Decoder.decode_batch` decodes a whole ``(num_masks, n)``
boolean array (or list of masks) at once, bit-for-bit equivalent to
looping ``decode`` — same selections, same generator stream — with the
deterministic kernels vectorized through :mod:`repro.core.batch`.
Subclasses implement the :meth:`Decoder._decode` hook returning a
typed :class:`Selection`, and may override ``decode_batch`` with a
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
identical to a fresh search.  Algs. 1–3 are linear-time walks whose
fairness draws stay live: FR, CR and HR accept ``cache`` and ignore
it.
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

from ..exceptions import DecodeError
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

    @property
    def rng(self) -> np.random.Generator:
        """The fairness tie-break generator (checkpointing surface)."""
        return self._rng

    @property
    def placement(self) -> Placement:
        return self._placement

    def fork(self, *, rng: np.random.Generator) -> "Decoder":
        """A decoder for one more run over the same placement: it owns
        ``rng`` and shares this one's search tables (built here if need
        be; arrays made read-only), a memo among them."""
        for table in self._search_tables():
            if isinstance(table, np.ndarray):
                table.flags.writeable = False
        twin = copy.copy(self)
        twin._rng = rng
        return twin

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
        selection = self._decode(available)
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
        the injected generator ends in the identical stream position —
        fairness draws happen per mask in batch order, outside the
        vectorized kernels (see :mod:`repro.core.batch`).

        The one deliberate difference: malformed rows fail fast.  All
        rows are validated up front (lowest bad row raises, same
        :class:`DecodeError` as the looped path) before any RNG is
        consumed, whereas a loop would decode rows 0..k-1 before
        raising on row k.

        This base implementation validates then loops ``decode`` — the
        correct-by-construction fallback for decoders without a
        vectorized kernel.  CR/HR override it with the batched chain
        kernel; FR draws every group of the batch in one ``integers``
        call and picks the survivors with array ops; the exact decoder
        overrides it to batch its memo lookups and result assembly
        (its per-mask work is search-bound, so there is no
        deterministic inner loop to vectorize).
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
    def _decode(self, available: FrozenSet[int]) -> Selection:
        """Search hook: the :class:`Selection` for ``available``."""
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
