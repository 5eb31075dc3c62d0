"""Synthetic datasets and dataset partitioning.

The paper trains ResNet-18 on CIFAR-10/ImageNet; per DESIGN.md we
substitute NumPy-friendly synthetic workloads that preserve what the
experiments measure (recovered-gradient fraction → convergence speed):

* :func:`make_regression` — noisy linear teacher (convex, analysable);
* :func:`make_classification` — Gaussian class blobs for logistic /
  softmax models;
* :func:`make_cifar_like` — random-feature "images" with a planted
  non-linear teacher, sized like small vision inputs, for the MLP.

Partitioning follows Sec. VIII-A's seed discipline: each partition owns
an independent seeded batch stream, so every scheme sees byte-identical
mini-batches for the same (partition, step) pair.  :func:`draw_indices`
is the one definition of that stream; :meth:`BatchStream.indices` is
one partition's row of it and
:class:`~repro.training.gradients.BatchStreams` draws all partitions'
rows of a round in one call.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from ..exceptions import ConfigurationError, TrainingError


@dataclass(frozen=True)
class Dataset:
    """An in-memory supervised dataset."""

    features: np.ndarray  # shape (num_samples, num_features)
    labels: np.ndarray  # shape (num_samples,) or (num_samples, k)
    name: str = "dataset"

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ConfigurationError(
                f"features must be 2-D, got shape {self.features.shape}"
            )
        if self.labels.shape[0] != self.features.shape[0]:
            raise ConfigurationError(
                f"features/labels row mismatch: {self.features.shape[0]} "
                f"vs {self.labels.shape[0]}"
            )

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """A new dataset holding copies of the rows at ``indices``."""
        return Dataset(
            features=self.features[indices],
            labels=self.labels[indices],
            name=self.name,
        )


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def make_regression(
    num_samples: int,
    num_features: int,
    noise: float = 0.1,
    seed: int = 0,
) -> Dataset:
    """Noisy linear-teacher regression: ``y = Xβ* + ε``."""
    _check_sizes(num_samples, num_features)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(num_samples, num_features))
    beta = rng.normal(size=num_features) / np.sqrt(num_features)
    y = x @ beta + noise * rng.normal(size=num_samples)
    return Dataset(features=x, labels=y, name="regression")


def make_classification(
    num_samples: int,
    num_features: int,
    num_classes: int = 2,
    separation: float = 2.0,
    seed: int = 0,
) -> Dataset:
    """Gaussian blobs: ``num_classes`` clusters with unit covariance."""
    _check_sizes(num_samples, num_features)
    if num_classes < 2:
        raise ConfigurationError(
            f"need at least 2 classes, got {num_classes}"
        )
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(num_classes, num_features)) * separation
    labels = rng.integers(num_classes, size=num_samples)
    x = centers[labels] + rng.normal(size=(num_samples, num_features))
    return Dataset(features=x, labels=labels.astype(np.int64), name="blobs")


def make_cifar_like(
    num_samples: int = 2048,
    side: int = 8,
    num_classes: int = 10,
    seed: int = 0,
) -> Dataset:
    """A CIFAR-10 stand-in: ``side × side × 3`` random images whose class
    is a planted non-linear function of random projections.

    Small enough for laptop-scale runs, non-linear enough that the MLP
    has something real to learn (training loss falls well below the
    trivial ``log(num_classes)``).
    """
    _check_sizes(num_samples, side)
    rng = np.random.default_rng(seed)
    dim = side * side * 3
    x = rng.normal(size=(num_samples, dim)).astype(np.float64)
    # Planted teacher: class = argmax over random ReLU features.
    w1 = rng.normal(size=(dim, 4 * num_classes)) / np.sqrt(dim)
    w2 = rng.normal(size=(4 * num_classes, num_classes))
    logits = np.maximum(x @ w1, 0.0) @ w2
    labels = logits.argmax(axis=1).astype(np.int64)
    return Dataset(features=x, labels=labels, name="cifar-like")


def _check_sizes(num_samples: int, num_features: int) -> None:
    if num_samples <= 0 or num_features <= 0:
        raise ConfigurationError(
            f"sizes must be positive, got samples={num_samples}, "
            f"features={num_features}"
        )


# ----------------------------------------------------------------------
# Partitioning & batch streams
# ----------------------------------------------------------------------
class Partitions(Sequence):
    """The partitions of one dataset, stored as one padded block.

    ``features`` is ``(P, max_n, d)`` and ``labels`` ``(P, max_n, ...)``;
    partition ``pid`` owns the first ``sizes[pid]`` rows of its slab
    (the rest is zero padding no batch ever indexes).  As a sequence it
    yields the per-partition :class:`Dataset` objects, which are views
    of the block.  The block is made read-only: it is shared by every
    engine of an :class:`~repro.engine.plan.EnginePlan`.
    """

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        sizes: Iterable[int],
        name: str = "dataset",
    ):
        self.features = features
        self.labels = labels
        features.flags.writeable = labels.flags.writeable = False
        self._views = [
            Dataset(features[pid, :size], labels[pid, :size], name)
            for pid, size in enumerate(sizes)
        ]

    @classmethod
    def stack(cls, datasets: "Sequence[Dataset]") -> "Partitions":
        """``datasets`` as one block (itself when it already is one)."""
        if isinstance(datasets, cls):
            return datasets
        datasets = list(datasets)
        if not datasets:
            raise ConfigurationError("no partitions given")
        first = datasets[0]
        sizes = [part.num_samples for part in datasets]
        shape = (len(datasets), max(sizes))
        features = np.zeros(
            shape + first.features.shape[1:], first.features.dtype
        )
        labels = np.zeros(shape + first.labels.shape[1:], first.labels.dtype)
        for pid, part in enumerate(datasets):
            features[pid, : sizes[pid]] = part.features
            labels[pid, : sizes[pid]] = part.labels
        return cls(features, labels, sizes, first.name)

    def __len__(self) -> int:
        return len(self._views)

    def __getitem__(self, index):
        return self._views[index]


def partition_dataset(
    dataset: Dataset, num_partitions: int, seed: int = 0
) -> Partitions:
    """Shuffle once, then split into ``num_partitions`` near-equal parts.

    Sizes differ by at most one sample (the first ``N mod P`` partitions
    hold the extra one, as ``np.array_split`` cuts); the shuffle keeps
    class balance statistical rather than positional.
    """
    if num_partitions <= 0:
        raise ConfigurationError(
            f"num_partitions must be positive, got {num_partitions}"
        )
    if num_partitions > dataset.num_samples:
        raise ConfigurationError(
            f"cannot split {dataset.num_samples} samples into "
            f"{num_partitions} partitions"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(dataset.num_samples)
    small, larger = divmod(dataset.num_samples, num_partitions)
    cut = larger * (small + 1)
    sizes = [small + 1] * larger + [small] * (num_partitions - larger)

    def block(rows: np.ndarray) -> np.ndarray:
        shuffled = rows[order]
        padded = np.zeros(
            (num_partitions, max(sizes)) + rows.shape[1:], rows.dtype
        )
        if larger:
            padded[:larger] = shuffled[:cut].reshape(
                (larger, small + 1) + rows.shape[1:]
            )
        padded[larger:, :small] = shuffled[cut:].reshape(
            (num_partitions - larger, small) + rows.shape[1:]
        )
        return padded

    return Partitions(
        block(dataset.features), block(dataset.labels), sizes, dataset.name
    )


def _is_counter(value) -> bool:
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, np.integer))
        and 0 <= value < 2**64
    )


def check_step(step: int) -> int:
    """``step`` as a plain ``int``; anything but an integer in
    ``[0, 2⁶⁴)`` is rejected (``"3"`` or ``1.5`` would otherwise seed
    *some* stream, and the stream counts steps in 64 bits)."""
    if not _is_counter(step):
        raise TrainingError(
            f"step must be a non-negative integer below 2**64, got {step!r}"
        )
    return int(step)


# ----------------------------------------------------------------------
# The batch-index stream: SplitMix64 (Steele, Lea & Flood, OOPSLA 2014)
# used as a counter hash.  ``mix`` is its bijective output function and
# ``γ`` its Weyl increment; output ``i`` of the generator seeded with
# ``s`` is ``mix(s + i·γ)``, so any output is one hash away.  The
# scalar form works on Python ints (one key at a time costs no array
# calls); the array form takes its counters' Weyl terms precomputed.

_MASK = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_MULTIPLIERS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_MIX_MULTIPLIERS = tuple(np.uint64(m) for m in _MULTIPLIERS)
_MIX_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))
_HALF = np.uint64(32)


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


def stream_key(seed: int) -> int:
    """The key of master seed ``seed``: the first ``uint64`` word of
    ``SeedSequence(seed)``, so any non-negative integer seeds a
    well-mixed key."""
    if (
        isinstance(seed, bool)
        or not isinstance(seed, (int, np.integer))
        or seed < 0
    ):
        raise ConfigurationError(
            f"seed must be a non-negative integer, got {seed!r}"
        )
    return int(
        np.random.SeedSequence(int(seed)).generate_state(1, np.uint64)[0]
    )


def draw_indices(
    key: int,
    step: int,
    partitions,
    sizes,
    draws: np.ndarray,
) -> np.ndarray:
    """The batch-index stream: ``(R, width)`` rows of indices.

    Row ``r`` holds draws ``0 … width-1`` of partition ``pid`` at
    ``step``, where ``draws`` is the ``(width,)`` :func:`weyl_terms` of
    ``0 … width-1``.  ``partitions`` is either the ``(R, 1)``
    :func:`weyl_terms` column of the partition ids, with ``sizes`` the
    matching ``(R, 1)`` ``uint64`` column of partition sizes, or one
    partition id as an ``int`` with its size, giving the one row as a
    ``(width,)`` array.  With ``S(s, i)`` = :func:`counter_hash`, draw
    ``k`` is::

        round  = S(key, step)
        row    = S(round, pid)
        word   = S(row, k)
        index  = ⌊(word >> 32) · size / 2³²⌋      (multiply-shift)

    The round key, and a single row's key, are hashed on Python ints;
    a round's row keys and every word are hashed as arrays.

    Every index is a fixed number of hashes of its own coordinates, so
    one partition's row (an async arrival's) costs no more than its
    share of the round, and the first ``b`` draws of a row do not
    depend on ``width``.  Multiply-shift on the top 32 bits is uniform
    to within ``size / 2³²`` per index.
    """
    round_key = counter_hash(key, step)
    if isinstance(partitions, np.ndarray):
        rows = counter_hashes(np.uint64(round_key), partitions)
    else:
        rows = np.uint64(counter_hash(round_key, partitions))
    words = counter_hashes(rows, draws)
    words >>= _HALF
    words *= sizes
    words >>= _HALF
    return words.astype(np.intp)


class BatchStream:
    """Reproducible mini-batch stream over one partition.

    :meth:`indices` is this partition's row of :func:`draw_indices`:
    ``batch_size`` draws with replacement, a pure function of (seed,
    partition id, step) — stateless, so batches can be re-materialised
    in any order and any two runs, regardless of scheme, draw identical
    batches for the same (partition, step).  This is the paper's
    "carefully control all random seeds" discipline (Sec. VIII-A).
    Batches are clamped to the partition size.
    """

    def __init__(self, partition: Dataset, partition_id: int, batch_size: int, seed: int = 0):
        if batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be positive, got {batch_size}"
            )
        if not _is_counter(partition_id) or partition.num_samples >= 2**32:
            raise ConfigurationError(
                f"partition {partition_id!r} of {partition.num_samples} "
                "samples: need an id in [0, 2**64) and fewer than 2**32 "
                "samples"
            )
        self._partition = partition
        self._batch_size = min(batch_size, partition.num_samples)
        self._key = stream_key(seed)
        self._id = int(partition_id)
        self._size = np.uint64(partition.num_samples)
        self._draws = weyl_terms(np.arange(self._batch_size))

    @property
    def batch_size(self) -> int:
        return self._batch_size

    def indices(self, step: int) -> np.ndarray:
        """Partition-local row indices of the mini-batch at ``step``
        (see :func:`check_step`)."""
        return draw_indices(
            self._key, check_step(step), self._id, self._size, self._draws
        )

    def batch(self, step: int) -> Tuple[np.ndarray, np.ndarray]:
        """The (features, labels) mini-batch for ``step``."""
        idx = self.indices(step)
        return self._partition.features[idx], self._partition.labels[idx]
