"""Vectorized batch decoding: bitset masks, adjacency matrices, kernels.

The paper's decoders are linear-time per mask, but a sweep decodes
*thousands* of masks — and a Python-level walk per mask leaves most of
the speed on the table.  This module is the data layer behind
:meth:`~repro.core.decoders.Decoder.decode_batch`:

* availability masks become one ``(num_masks, n)`` boolean array
  (:func:`masks_to_array`, with the same validation errors as the
  looped path);
* conflict graphs are ``(n, n)`` boolean adjacency matrices
  (:func:`circulant_adjacency` is Theorem 1's closed form for the CR/HR
  circles; :func:`repro.core.conflict.conflict_graph` builds any
  placement's from :func:`partition_matrix`);
* the clockwise greedy walk of Algs. 2/3 exists exactly twice — one
  mask at a time (:func:`greedy_chain`) and across every (mask, start)
  pair at once (:func:`batched_greedy_chains`) — both driven by an
  adjacency, with the start vertices of a ``c``-window read off the
  sorted survivors by :func:`window_starts`;
* results stay column-oriented in a :class:`BatchDecodeResult` so
  consumers (recovery stats, variance moments) can keep doing linear
  algebra instead of iterating ``DecodeResult`` objects.

**The fairness-RNG invariant.**  Nothing in this module touches a
random generator.  Decoders draw their fairness randomisation (which
vertex seeds the window, which start order to try) *per mask, in batch
order, before* calling the kernels here — the same discipline that
makes :class:`~repro.parallel.DecodeCache` bit-for-bit safe.  Batched
decoding therefore produces the identical selections *and* leaves the
generator in the identical stream position as the looped path.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import (
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..exceptions import DecodeError
from ..types import DecodeResult
from .placement import Placement

#: Accepted batch inputs: a ``(num_masks, n)`` boolean indicator array,
#: or a sequence of per-mask worker-id iterables.
MaskBatch = Union[np.ndarray, Sequence[Iterable[int]]]


# ----------------------------------------------------------------------
# Mask validation — the single source of truth for all seven families.


def validate_mask(available_workers: Iterable[int], num_workers: int):
    """Validate one availability mask; return its frozenset of Python
    ``int`` ids (numpy integers are converted, in listed order, so the
    set iterates as one built from the mask itself would).

    The canonical checks every decoder family shares, in a fixed order:
    empty masks, non-integer worker ids (``bool`` included — ``True``
    is not worker 1), duplicate ids, then out-of-range ids — each
    raising :class:`~repro.exceptions.DecodeError` with one message
    shape.  Both :meth:`Decoder.decode` and every ``decode_batch``
    implementation route through here, so malformed input fails
    identically on either path.
    """
    workers = list(available_workers)
    if not workers:
        raise DecodeError("cannot decode with zero available workers")
    types = set(map(type, workers))
    bad_types = {
        t
        for t in types
        if t is bool or not issubclass(t, (int, np.integer))
    }
    if bad_types:
        raise DecodeError(
            "available workers must be integer ids, got "
            f"{[w for w in workers if type(w) in bad_types]!r}"
        )
    if types != {int}:
        workers = [int(w) for w in workers]
    available = frozenset(workers)
    if len(workers) != len(available):
        seen: set = set()
        dups: set = set()
        for w in workers:
            if w in seen:
                dups.add(w)
            seen.add(w)
        raise DecodeError(
            f"duplicate available workers: {sorted(dups)}"
        )
    bad = sorted(w for w in available if not 0 <= w < num_workers)
    if bad:
        raise DecodeError(
            f"available workers out of range [0, {num_workers}): {bad}"
        )
    return available


def masks_to_array(
    masks: MaskBatch, num_workers: int
) -> Tuple[np.ndarray, Optional[list]]:
    """Canonicalise a batch of masks to a ``(num_masks, n)`` bool array.

    Accepts either a 2-D boolean indicator array (used as-is) or a
    sequence of per-mask worker-id iterables.  Validation is fail-fast:
    the lowest malformed row raises the same
    :class:`~repro.exceptions.DecodeError` the looped ``decode`` path
    would, before any row is decoded (so no RNG is consumed on error).

    Returns ``(avail, originals)`` where ``originals`` is the list of
    original mask objects (``None`` for array input).
    """
    n = num_workers
    if (
        isinstance(masks, np.ndarray)
        and masks.ndim == 2
        and masks.dtype == np.bool_
    ):
        if masks.shape[1] != n:
            raise DecodeError(
                f"mask array has width {masks.shape[1]} but the "
                f"placement has {n} workers"
            )
        if masks.shape[0] and not masks.any(axis=1).all():
            raise DecodeError("cannot decode with zero available workers")
        return masks, None
    originals = list(masks)
    avail = np.zeros((len(originals), n), dtype=bool)
    for i, mask in enumerate(originals):
        avail[i, list(validate_mask(mask, n))] = True
    return avail, originals


def enumerate_masks(num_workers: int, size: int) -> np.ndarray:
    """All ``C(n, size)`` availability masks of one size, as a boolean
    array whose rows follow ``itertools.combinations`` order — the
    exact-enumeration input for :mod:`repro.analysis.variance`."""
    if not 1 <= size <= num_workers:
        raise DecodeError(
            f"mask size must be in [1, {num_workers}], got {size}"
        )
    combos = np.fromiter(
        (v for combo in combinations(range(num_workers), size) for v in combo),
        dtype=np.intp,
    ).reshape(-1, size)
    avail = np.zeros((combos.shape[0], num_workers), dtype=bool)
    avail[np.arange(combos.shape[0])[:, None], combos] = True
    return avail


def mask_members(avail: np.ndarray) -> Iterator[List[int]]:
    """Each row's available worker ids, ascending, as plain python ints
    (one ``nonzero`` pass for the whole batch, so per-mask fairness
    draws work on lists and leave numpy to the generator calls)."""
    flat = np.nonzero(avail)[1].tolist()
    bounds = np.concatenate(([0], np.cumsum(avail.sum(axis=1)))).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        yield flat[lo:hi]


# ----------------------------------------------------------------------
# Graph and placement bitset representations.


def circulant_adjacency(n: int, c: int) -> np.ndarray:
    """``(n, n)`` boolean adjacency of the circulant conflict graph
    ``C_n^{1..c-1}`` (Theorem 1): distinct vertices conflict iff their
    circular distance is below ``c``.  Diagonal is ``False``."""
    idx = np.arange(n)
    diff = (idx[None, :] - idx[:, None]) % n
    dist = np.minimum(diff, n - diff)
    return (dist > 0) & (dist < c)


def partition_matrix(placement: Placement) -> np.ndarray:
    """``(num_workers, num_partitions)`` boolean storage indicator:
    entry ``[w, p]`` iff worker ``w`` stores partition ``p``.  A batch
    of selections recovers ``selected @ partition_matrix``."""
    mat = np.zeros(
        (placement.num_workers, placement.num_partitions), dtype=bool
    )
    for w in range(placement.num_workers):
        mat[w, list(placement.partitions_of(w))] = True
    return mat


# ----------------------------------------------------------------------
# The clockwise greedy walk (Algs. 2/3 inner loop): scalar and batched.


def window_starts(
    members: Sequence[int], index: int, c: int, n: int
) -> List[int]:
    """Alg. 2's start vertices: the available members of the clockwise
    window ``{u, u+1, …, u+c-1}`` on an ``n``-circle, ascending, where
    ``u = members[index]`` and ``members`` is the ascending list of
    available vertices.  Read straight off the sorted list: the run
    from ``index`` up while ``< u+c``, preceded (when the window wraps
    past ``n``) by the prefix below ``u+c-n``.  Needs ``c <= n``."""
    size = len(members)
    top = members[index] + c
    starts: List[int] = []
    if top > n:
        k = 0
        while k < index and members[k] < top - n:
            starts.append(members[k])
            k += 1
    k = index
    while k < size and members[k] < top:
        starts.append(members[k])
        k += 1
    return starts


def greedy_chain(
    adj: Sequence[Sequence[bool]], members: Sequence[int], start: int
) -> FrozenSet[int]:
    """One clockwise greedy walk (Alg. 2 lines 4-12, Alg. 3's loop).

    From ``start``, visit the other available vertices clockwise and
    admit a candidate iff it is adjacent (in ``adj``) to neither the
    last admitted vertex nor the start.  Consecutive + wrap checks
    suffice for pairwise independence: on a circulant, gaps ``>= c``
    sum to arcs ``>= c``; under Alg. 4, by Theorem 9's monotonicity.

    ``members`` is the ascending list of available vertices (it must
    contain ``start``); ``adj`` is any ``adj[a][b]`` adjacency — pass
    ``matrix.tolist()``, nested lists index an order of magnitude
    faster than numpy scalars.  Row for row this is
    :func:`batched_greedy_chains` (pinned by a hypothesis property).
    """
    at = bisect_left(members, start)
    near_start = near_last = adj[start]
    chain = [start]
    for cand in members[at + 1:] + members[:at]:
        if not (near_last[cand] or near_start[cand]):
            chain.append(cand)
            near_last = adj[cand]
    return frozenset(chain)


def batched_greedy_chains(
    adj: np.ndarray, avail_rows: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Run every clockwise greedy walk of a batch at once.

    Reproduces, per row, exactly :func:`greedy_chain`: start at
    ``starts[p]``, scan offsets ``1..n-1`` clockwise, and admit
    candidate ``(start + offset) % n`` iff it is available and adjacent
    (in ``adj``) to neither the last admitted vertex nor the start.
    The CR condition ``circular_distance >= c`` is exactly
    non-adjacency in the circulant graph, and the HR Alg. 4 predicate
    is exactly adjacency in the HR conflict graph, so one kernel serves
    both.

    Parameters are ``adj`` ``(n, n)`` bool (``False`` diagonal),
    ``avail_rows`` ``(P, n)`` bool (the mask each walk runs under), and
    ``starts`` ``(P,)`` int (each must be available in its row).
    Returns the chains as a ``(P, n)`` boolean array.  Deterministic —
    consumes no randomness (the fairness-RNG invariant above).
    """
    num_walks, n = avail_rows.shape
    chains = np.zeros((num_walks, n), dtype=bool)
    if not num_walks:
        return chains
    starts = np.asarray(starts, dtype=np.intp)
    # Flat 1-D gathers (``take``) in place of 2-D fancy indexing — same
    # walk, roughly half the kernel time at benchmark batch sizes.
    adj_flat = adj.ravel()
    avail_flat = np.ascontiguousarray(avail_rows).ravel()
    chains_flat = chains.ravel()
    row_base = np.arange(num_walks, dtype=np.intp) * n
    chains_flat[row_base + starts] = True
    last_base = starts * n
    for offset in range(1, n):
        cand = starts + offset
        cand[cand >= n] -= n
        cand_base = cand * n
        ok = avail_flat.take(row_base + cand)
        ok &= ~adj_flat.take(last_base + cand)
        ok &= ~adj_flat.take(cand_base + starts)
        chains_flat[(row_base + cand)[ok]] = True
        last_base = np.where(ok, cand_base, last_base)
    return chains


def segment_argmax(
    sizes: Sequence[int], counts: Sequence[int]
) -> List[int]:
    """Index of the first maximum inside each contiguous segment.

    ``sizes`` holds one value per greedy walk; ``counts[i]`` consecutive
    walks belong to mask (or group) ``i``.  Keeping the *first*
    occurrence of each segment's maximum reproduces the looped
    decoders' tie-break (``>`` against the best so far, in shuffled
    start order).  Segments must be non-empty — every decoded mask runs
    at least one walk.
    """
    sizes_arr = np.asarray(sizes, dtype=np.intp)
    counts_arr = np.asarray(counts, dtype=np.intp)
    num_walks = sizes_arr.shape[0]
    offsets = np.zeros(counts_arr.shape[0], dtype=np.intp)
    np.cumsum(counts_arr[:-1], out=offsets[1:])
    seg_max = np.maximum.reduceat(sizes_arr, offsets)
    # First index attaining the segment max = the ``>``-scan winner.
    at_max = sizes_arr == np.repeat(seg_max, counts_arr)
    candidate_idx = np.where(at_max, np.arange(num_walks), num_walks)
    return np.minimum.reduceat(candidate_idx, offsets).tolist()


# ----------------------------------------------------------------------
# Column-oriented batch results.


@dataclass(frozen=True, eq=False)
class BatchDecodeResult:
    """What ``decode_batch`` returns: one decode per row, kept dense.

    Consumers that want per-mask objects call :meth:`results` (each
    entry compares equal to the looped path's
    :class:`~repro.types.DecodeResult`); consumers doing statistics
    over the whole batch use the arrays directly and never materialise
    Python objects at all.
    """

    #: (num_masks, n) bool — the validated availability masks.
    available: np.ndarray
    #: (num_masks, n) bool — the selected independent set per mask.
    selected: np.ndarray
    #: (num_masks, num_partitions) bool — partitions recovered per mask.
    recovered: np.ndarray
    #: (num_masks,) int — greedy searches run per mask.
    num_searches: np.ndarray

    @classmethod
    def from_results(
        cls,
        available: np.ndarray,
        results: Iterable[DecodeResult],
        num_partitions: int,
    ) -> "BatchDecodeResult":
        """Looped ``decode`` results (one per row of ``available``) as
        the batch's column-oriented arrays."""
        num_masks = available.shape[0]
        selected = np.zeros_like(available)
        recovered = np.zeros((num_masks, num_partitions), dtype=bool)
        searches = np.empty(num_masks, dtype=np.intp)
        for i, res in enumerate(results):
            selected[i, list(res.selected_workers)] = True
            recovered[i, list(res.recovered_partitions)] = True
            searches[i] = res.num_searches
        return cls(
            available=available,
            selected=selected,
            recovered=recovered,
            num_searches=searches,
        )

    def __len__(self) -> int:
        return self.available.shape[0]

    @property
    def num_selected(self) -> np.ndarray:
        """``|I|`` per mask (α of the induced conflict graph)."""
        return self.selected.sum(axis=1)

    @property
    def num_recovered(self) -> np.ndarray:
        """Recovered partition count per mask."""
        return self.recovered.sum(axis=1)

    def result_at(self, index: int) -> DecodeResult:
        """Row ``index`` as the looped path's :class:`DecodeResult`."""
        return DecodeResult(
            selected_workers=frozenset(
                np.flatnonzero(self.selected[index]).tolist()
            ),
            recovered_partitions=frozenset(
                np.flatnonzero(self.recovered[index]).tolist()
            ),
            available_workers=frozenset(
                np.flatnonzero(self.available[index]).tolist()
            ),
            num_searches=int(self.num_searches[index]),
        )

    def results(self) -> List[DecodeResult]:
        """Every row materialised — equal, element by element, to
        ``[decoder.decode(m) for m in masks]``."""
        return [self.result_at(i) for i in range(len(self))]
