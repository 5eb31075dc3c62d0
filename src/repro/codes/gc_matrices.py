"""Coding matrices for classic gradient coding (Tandon et al., ICML'17).

Classic GC encodes worker payloads as *general* linear combinations
``payload_i = Σ_p B[i, p] · g_p`` and decodes the exact full gradient
``Σ_p g_p`` from any ``n - s`` workers, ``s ≤ c - 1``.  The paper under
reproduction uses it as the synchronous baseline (Sec. III, Fig. 2) that
IS-GC relaxes.

Two constructions are provided:

* :func:`fractional_b_matrix` — FR placement; each worker simply sums
  its group's partitions (coefficients 1), decode picks one worker per
  group.
* :func:`cyclic_b_matrix` — CR placement; Tandon et al.'s Algorithm 2:
  draw a random ``(s × n)`` matrix ``H`` whose rows sum to zero, then
  fill each cyclic-support row of ``B`` so that ``H · B[i]ᵀ = 0``.  All
  rows then lie in ``null(H) ∋ 𝟙``, and any ``n - s`` of them span a
  space containing ``𝟙ᵀ`` almost surely.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import CodingError


def fractional_b_matrix(n: int, c: int) -> np.ndarray:
    """FR coding matrix: row ``i`` indicates worker ``i``'s group block."""
    if n <= 0 or not 1 <= c <= n or n % c != 0:
        raise CodingError(f"fractional GC needs c | n with 1 <= c <= n; got n={n}, c={c}")
    b = np.zeros((n, n))
    for worker in range(n):
        group = worker // c
        b[worker, group * c:(group + 1) * c] = 1.0
    return b


def cyclic_b_matrix(
    n: int, c: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """CR coding matrix via Tandon et al. Algorithm 2 (``s = c - 1``).

    Row ``i`` is supported on partitions ``{i, …, i+c-1 mod n}`` with
    ``B[i, i] = 1`` and the remaining ``c - 1`` coefficients solving
    ``H[:, rest] · x = -H[:, i]``.
    """
    if n <= 0 or not 1 <= c <= n:
        raise CodingError(f"cyclic GC needs 1 <= c <= n; got n={n}, c={c}")
    if c == 1:
        return np.eye(n)
    rng = rng if rng is not None else np.random.default_rng(0)
    s = c - 1
    h = rng.normal(size=(s, n))
    h[:, -1] = -h[:, :-1].sum(axis=1)  # each row of H sums to zero

    b = np.zeros((n, n))
    for i in range(n):
        support = [(i + r) % n for r in range(c)]
        rest = support[1:]
        try:
            x = np.linalg.solve(h[:, rest], -h[:, i])
        except np.linalg.LinAlgError as exc:  # measure-zero event
            raise CodingError(
                "singular sub-matrix in cyclic GC construction; "
                "retry with a different rng seed"
            ) from exc
        b[i, i] = 1.0
        b[i, rest] = x
    return b


def decode_vector(
    b_matrix: np.ndarray,
    surviving_rows: list[int] | tuple[int, ...],
    rcond: float | None = None,
    atol: float = 1e-6,
) -> np.ndarray:
    """Find ``a`` with ``aᵀ · B[surv] = 𝟙ᵀ`` (the classic GC decode step).

    Returns the coefficient vector ``a`` (one weight per surviving
    worker).  Raises :class:`CodingError` when the all-ones vector is
    not in the row span — i.e. when too many workers straggled.

    ``rcond=None`` is LAPACK's machine-precision cut-off.  A random
    :func:`cyclic_b_matrix` draw can have entries ~1e4 and genuine
    singular values ~1e-11 of the largest; a coarser cut-off truncates
    those and rejects a legal straggler pattern, so span membership is
    decided by the ``atol`` residual check alone.
    """
    rows = np.asarray(surviving_rows, dtype=int)
    if rows.size == 0:
        raise CodingError("cannot decode classic GC with zero survivors")
    sub = b_matrix[rows, :]
    ones = np.ones(b_matrix.shape[1])
    a, residuals, _rank, _sv = np.linalg.lstsq(sub.T, ones, rcond=rcond)
    achieved = sub.T @ a
    if not np.allclose(achieved, ones, atol=atol):
        raise CodingError(
            f"all-ones vector not in the span of {rows.size} surviving "
            "rows: classic GC cannot tolerate this straggler pattern"
        )
    return a


def supports_full_recovery(
    b_matrix: np.ndarray, surviving_rows: list[int] | tuple[int, ...]
) -> bool:
    """True iff classic GC can fully decode from ``surviving_rows``."""
    try:
        decode_vector(b_matrix, surviving_rows)
    except CodingError:
        return False
    return True
