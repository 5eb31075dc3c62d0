"""Decode memoisation: :class:`DecodeCache`.

Two decode searches are worth memoising, and each owns one of these:
the exact-MIS decoder's list of optima per availability mask
(exponential worst case) and classic GC's ``lstsq`` decode vector per
survivor set.  Both are *pure functions* of the survivor set for one
placement (and, for GC, one code), so they memoise perfectly, and each
memo is held beside what it is computed from and shared by every run
of a plan.  The fairness randomisation (which optimum to
return) is drawn per decode in the decoder, so memoised decoding is
**bit-for-bit identical** to a fresh search: the memo sits *under* the
draws, and each decode's draw is a function of its decode counter
either way.  The linear-time FR/CR/HR decoders keep none — a memo of their
walks costs more than it saves.

Keys are ``(placement fingerprint, kind, key)``: the fingerprint (a
content digest, stable across processes — see
:meth:`repro.core.placement.Placement.fingerprint`) isolates
placements and ``kind`` isolates searches.  Eviction is LRU; the cache
counts its own hits, misses and evictions (:meth:`DecodeCache.snapshot`).

Pool workers each grow their own memo — decode results never cross
process boundaries.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Sequence, Tuple

from ..exceptions import ConfigurationError

CacheKey = Tuple[str, str, Hashable]

#: sentinel distinguishing "absent" from a cached ``None``.
_MISSING = object()


class DecodeCache:
    """Bounded LRU memo for deterministic decode search kernels."""

    def __init__(self, maxsize: int = 65536):
        if maxsize <= 0:
            raise ConfigurationError(
                f"cache maxsize must be positive, got {maxsize}"
            )
        self._maxsize = maxsize
        self._data: "OrderedDict[CacheKey, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    @property
    def maxsize(self) -> int:
        return self._maxsize

    @property
    def size(self) -> int:
        return len(self._data)

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def evictions(self) -> int:
        return self._evictions

    @property
    def hit_rate(self) -> float:
        """Hits over lookups, ``0.0`` before the first lookup."""
        lookups = self._hits + self._misses
        return self._hits / lookups if lookups else 0.0

    # ------------------------------------------------------------------
    def get_or_compute(
        self,
        fingerprint: str,
        kind: str,
        key: Hashable,
        compute: Callable[[], Any],
    ) -> Any:
        """The memoised value for ``(fingerprint, kind, key)``.

        On a miss, ``compute()`` runs and its result is stored.  Stored
        values must be immutable (frozensets, tuples) — they are handed
        back to every future hit without copying.
        """
        full_key: CacheKey = (fingerprint, kind, key)
        try:
            value = self._data[full_key]
        except KeyError:
            self._misses += 1
            value = compute()
            self._data[full_key] = value
            if len(self._data) > self._maxsize:
                self._data.popitem(last=False)
                self._evictions += 1
            return value
        self._data.move_to_end(full_key)
        self._hits += 1
        return value

    def get_or_compute_batch(
        self,
        fingerprint: str,
        kind: str,
        keys: Sequence[Hashable],
        compute_missing: Callable[[List[Hashable]], List[Any]],
    ) -> List[Any]:
        """Batch lookup: partition ``keys`` into hits and misses in one
        pass, compute only the unique misses, return values aligned
        with ``keys``.

        ``compute_missing`` receives the missing keys (first-occurrence
        order, duplicates collapsed) and must return their values,
        aligned.  A key that repeats within the batch is computed once;
        repeats count as hits — exactly what a sequential
        :meth:`get_or_compute` loop over the same keys would record.
        Counter parity with the sequential loop holds whenever the
        batch's unique misses fit the cache (no mid-batch eviction of a
        key the same batch still needs).
        """
        data = self._data
        values: List[Any] = []
        missing_keys: List[Hashable] = []
        missing_at: Dict[Hashable, List[int]] = {}
        hits = 0
        for i, key in enumerate(keys):
            full_key: CacheKey = (fingerprint, kind, key)
            value = data.get(full_key, _MISSING)
            if value is not _MISSING:
                data.move_to_end(full_key)
                hits += 1
                values.append(value)
                continue
            slots = missing_at.get(key)
            if slots is None:
                # First sighting of a missing key — one compute.
                missing_at[key] = [i]
                missing_keys.append(key)
                self._misses += 1
            else:
                # A duplicate of a pending miss: a sequential loop
                # would find it cached by now — count it as a hit.
                slots.append(i)
                hits += 1
            values.append(_MISSING)
        self._hits += hits
        if missing_keys:
            computed = compute_missing(missing_keys)
            if len(computed) != len(missing_keys):
                raise ConfigurationError(
                    f"compute_missing returned {len(computed)} values "
                    f"for {len(missing_keys)} missing keys"
                )
            for key, value in zip(missing_keys, computed):
                full_key = (fingerprint, kind, key)
                data[full_key] = value
                if len(data) > self._maxsize:
                    data.popitem(last=False)
                    self._evictions += 1
                for i in missing_at[key]:
                    values[i] = value
        return values

    def clear(self) -> None:
        """Drop all entries (counters are left untouched)."""
        self._data.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Counters + hit rate as a JSON-ready dict."""
        return {
            "size": float(len(self._data)),
            "maxsize": float(self._maxsize),
            "hits": float(self._hits),
            "misses": float(self._misses),
            "evictions": float(self._evictions),
            "hit_rate": self.hit_rate,
        }

    def describe(self) -> str:
        """One-line summary for trace summaries and bench reports."""
        return (
            f"decode cache: {self._hits} hits / "
            f"{self._hits + self._misses} lookups "
            f"({100 * self.hit_rate:.1f}% hit rate), "
            f"{len(self._data)}/{self._maxsize} entries, "
            f"{self._evictions} evictions"
        )
