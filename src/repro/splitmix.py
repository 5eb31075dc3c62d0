"""SplitMix64 used as a counter hash: draws that are pure functions of
their coordinates.

SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) has a bijective output
function ``mix`` and a Weyl increment ``γ``; output ``i`` of the
generator seeded with ``s`` is ``mix(s + i·γ)``, so any output is one
hash away and a stream needs no state beyond its key.  Two streams are
built on it: the mini-batch indices
(:func:`repro.training.datasets.draw_indices`) and the decoders'
fairness draws (:class:`repro.core.decoders.Decoder`).

The hash has a scalar form on Python ints (:func:`counter_hash`: one
key at a time costs no array calls) and an array form
(:func:`counter_hashes`) that takes its counters' :func:`weyl_terms`
precomputed.  :func:`bounded_index` and :func:`bounded_indices` turn
words into exactly uniform integers below a bound, by Lemire's
multiply-and-reject, one word at a time and a whole batch at once.

This module imports nothing from the package, so every layer can use
it.
"""

from __future__ import annotations

import numpy as np

_MASK = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_MULTIPLIERS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_MIX_MULTIPLIERS = tuple(np.uint64(m) for m in _MULTIPLIERS)
_MIX_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))
_HALF = np.uint64(32)
_LOW = np.uint64(2**32 - 1)


def counter_hash(key: int, counter: int) -> int:
    """``S(key, counter)``: output ``counter + 1`` of the SplitMix64
    generator seeded with ``key``, on Python ints in ``[0, 2⁶⁴)``."""
    m1, m2 = _MULTIPLIERS
    z = (key + (counter + 1) * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * m1) & _MASK
    z = ((z ^ (z >> 27)) * m2) & _MASK
    return z ^ (z >> 31)


def weyl_terms(counters) -> np.ndarray:
    """``(counter + 1)·γ mod 2⁶⁴`` of ``uint64`` counters, read-only:
    the counter half of :func:`counter_hashes`, computed once per
    stream rather than once per draw."""
    terms = (
        np.asarray(counters, dtype=np.uint64) + np.uint64(1)
    ) * np.uint64(_GAMMA)
    terms.flags.writeable = False
    return terms


def counter_hashes(keys, terms: np.ndarray) -> np.ndarray:
    """``S(key, counter)`` broadcast over ``uint64`` keys and the
    counters' :func:`weyl_terms`, as a new array."""
    (m1, m2), (s1, s2, s3) = _MIX_MULTIPLIERS, _MIX_SHIFTS
    z = keys + terms
    z ^= z >> s1
    z *= m1
    z ^= z >> s2
    z *= m2
    z ^= z >> s3
    return z


def bounded_index(word: int, bound: int) -> int:
    """An integer uniform in ``[0, bound)`` from the 64-bit ``word``.

    Lemire's multiply-and-reject (ACM TOMACS 2019): the high word of
    ``word · bound`` is the index unless the low word falls below
    ``2⁶⁴ mod bound``, the few products that would make some indices
    one draw likelier.  A rejected word draws again from the stream
    it keys, ``S(word, 0)``, ``S(word, 1)``, …, so the result is a
    function of ``word`` alone and exactly uniform over uniform words.
    """
    product = word * bound
    if (product & _MASK) < bound:
        threshold = (_MASK + 1 - bound) % bound
        retry = 0
        while (product & _MASK) < threshold:
            product = counter_hash(word, retry) * bound
            retry += 1
    return product >> 64


def bounded_indices(words: np.ndarray, bounds) -> np.ndarray:
    """:func:`bounded_index` over ``uint64`` arrays, as ``intp``.

    ``words`` and ``bounds`` broadcast; each bound is positive.  The
    128-bit product is assembled from 32-bit halves, exact for bounds
    below ``2³²``; a word the multiply may reject (probability below
    ``bound / 2⁶⁴``) or a larger bound goes through the scalar form.
    """
    words, bounds = np.broadcast_arrays(
        np.asarray(words, dtype=np.uint64),
        np.asarray(bounds, dtype=np.uint64),
    )
    high_half = words >> _HALF
    a = high_half * bounds
    b = (words & _LOW) * bounds
    high = (a + (b >> _HALF)) >> _HALF
    low = (a << _HALF) + b
    # The threshold ``2⁶⁴ mod bound`` is below the bound, so only a low
    # word below the bound can be rejected; the scalar form decides it.
    slow = (low < bounds) | (bounds > _LOW)
    if slow.any():
        for at in zip(*np.nonzero(slow)):
            high[at] = bounded_index(int(words[at]), int(bounds[at]))
    return high.astype(np.intp)
