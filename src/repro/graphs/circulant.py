"""Circular distance on the worker circle.

Theorem 1 of the paper proves that the conflict graph of cyclic
repetition ``CR(n, c)`` is the circulant graph ``C_n^{1..c-1}``: vertices
``0..n-1`` arranged on a circle, with an edge between ``x`` and ``y``
whenever their circular distance is below ``c``
(:func:`repro.core.batch.circulant_adjacency` builds it).
"""

from __future__ import annotations


def circular_distance(x: int, y: int, n: int) -> int:
    """Minimal clockwise/counterclockwise distance between ``x`` and ``y``.

    This is the paper's ``d(x, y) = min(|x - y|, n - |x - y|)`` with
    0-indexed vertices on a circle of ``n`` positions.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    diff = abs(x - y) % n
    return min(diff, n - diff)
