"""Block encode/decode against an independent per-partition loop.

A round hands the strategy one ``(P, D)`` gradient block and gets one
``(n, D)`` payload block back; ``decode`` adds payload rows.  These
tests hold every strategy, over every registered placement family, to
the loop that defines the arithmetic — a worker's payload starts from
its first partition's row (IS-GC) or from zero (classic GC) and adds
the rest in ``partitions_of`` order; IS-GC's decode starts from the
first selected payload, IS-SGD's and sync-SGD's from ``0`` — bit for
bit, signed zeros included.  Classic GC's decode vector is memoised
per survivor set; the memo must return exactly what a fresh solve
returns and must never store a failure.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.codes import decode_vector
from repro.core import CyclicRepetition, FractionalRepetition
from repro.core.explicit import ExplicitPlacement
from repro.core.scheme import make_placement, registered_placements
from repro.exceptions import CodingError, PlacementError
from repro.training import (
    ClassicGCStrategy,
    ISGCStrategy,
    ISSGDStrategy,
    SyncSGDStrategy,
)

#: one placement per registered family; the explicit table is in no
#: family's order, and hetero permutes CR's rows onto machines.
FAMILIES = {
    "cr": dict(num_workers=7, partitions_per_worker=3),
    "fr": dict(num_workers=8, partitions_per_worker=4),
    "hr": dict(num_workers=12, c1=1, c2=2, num_groups=3),
    "explicit": dict(rows=[
        [0, 1, 2], [3, 0, 4], [2, 5, 1], [4, 3, 5], [1, 4, 0], [5, 2, 3],
    ]),
    "hetero": dict(
        num_workers=6, partitions_per_worker=3,
        assignment=[3, 0, 5, 1, 4, 2],
    ),
}


def test_every_registered_family_is_covered():
    assert sorted(FAMILIES) == registered_placements()


def planted_block(rows, dim, seed):
    """Random rows over twelve decades, with signed zeros planted: row
    0 is all ``-0.0`` and row 1 all ``0.0``; when ``dim > 2``, column 0
    is ``-0.0`` in every row and column 1 alternates ``0.0``/``-0.0``."""
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(rows, dim)) * 10.0 ** rng.integers(
        -6, 6, size=(rows, dim)
    )
    block[0] = -0.0
    block[1] = 0.0
    if dim > 2:
        block[:, 0] = -0.0
        block[:, 1] = np.where(np.arange(rows) % 2, -0.0, 0.0)
    return block


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# -- the reference arithmetic, one vector at a time --------------------
def summation_payload(placement, worker, grads):
    first, *rest = placement.partitions_of(worker)
    total = np.array(grads[first], copy=True)
    for p in rest:
        total += grads[p]
    return total


def classic_payload(code, worker, grads):
    b = code.b_matrix
    total = np.zeros(grads.shape[1])
    for p in code.placement.partitions_of(worker):
        if b[worker, p] != 0.0:
            total = total + b[worker, p] * grads[p]
    return total


def copy_start_sum(payloads, workers):
    total = np.array(payloads[workers[0]], copy=True)
    for w in workers[1:]:
        total += payloads[w]
    return total


def zero_start_sum(payloads, workers, weights=None):
    total = np.zeros(payloads.shape[1])
    for k, w in enumerate(workers):
        weight = 1.0 if weights is None else weights[k]
        if weight != 0.0:
            total = total + weight * payloads[w]
    return total


def survivor_sets(n, seed, sizes):
    rng = np.random.default_rng(seed)
    return [
        sorted(rng.choice(n, size=size, replace=False).tolist())
        for size in sizes
    ]


# A (k, 1) block is the one layout numpy would sum pairwise.
DIMS = [5, 1]


class TestBlockEqualsLoop:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_isgc(self, family, dim):
        placement = make_placement(family, **FAMILIES[family])
        n = placement.num_workers
        strategy = ISGCStrategy(
            placement, wait_for=n, rng=np.random.default_rng(1)
        )
        grads = planted_block(n, dim, seed=2)
        encoded = strategy.encode(grads)
        for worker in range(n):
            assert_same_bits(
                encoded[worker], summation_payload(placement, worker, grads)
            )
        for payloads in (encoded, planted_block(n, dim, seed=3)):
            for available in survivor_sets(n, 4, range(1, n + 1)):
                total, recovered = strategy.decode(available, payloads)
                selected = sorted(strategy.last_decode.selected_workers)
                assert_same_bits(total, copy_start_sum(payloads, selected))
                assert recovered == strategy.last_decode.recovered_partitions

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("placement", [
        FractionalRepetition(8, 2), FractionalRepetition(8, 4),
        CyclicRepetition(7, 3), CyclicRepetition(12, 4),
    ], ids=repr)
    def test_classic_gc(self, placement, dim):
        n = placement.num_workers
        strategy = ClassicGCStrategy(placement, rng=np.random.default_rng(4))
        code = strategy.code
        grads = planted_block(n, dim, seed=5)
        encoded = strategy.encode(grads)
        for worker in range(n):
            assert_same_bits(
                encoded[worker], classic_payload(code, worker, grads)
            )
        sizes = [code.required_workers] * 3 + [n]
        for payloads in (encoded, planted_block(n, dim, seed=6)):
            for survivors in survivor_sets(n, 7, sizes):
                weights = decode_vector(code.b_matrix, survivors)
                want = zero_start_sum(payloads, survivors, weights)
                total, recovered = strategy.decode(survivors, payloads)
                assert_same_bits(total, want)
                assert_same_bits(code.decode(survivors, payloads), want)
                assert recovered == frozenset(range(n))

    @pytest.mark.parametrize("dim", DIMS)
    def test_issgd_and_sync_sgd(self, dim):
        n = 12
        grads = planted_block(n, dim, seed=8)
        issgd, sync = ISSGDStrategy(n, wait_for=3), SyncSGDStrategy(n)
        for strategy in (issgd, sync):
            assert_same_bits(strategy.encode(grads), grads)
        for available in survivor_sets(n, 8, range(1, n + 1)):
            total, recovered = issgd.decode(available, grads)
            assert_same_bits(total, zero_start_sum(grads, available))
            assert recovered == frozenset(available)
        total, _ = sync.decode(range(n), grads)
        assert_same_bits(total, zero_start_sum(grads, list(range(n))))


STRATEGIES = {
    "is-sgd": lambda: ISSGDStrategy(6, wait_for=2),
    "sync-sgd": lambda: SyncSGDStrategy(6),
    "gc": lambda: ClassicGCStrategy(
        CyclicRepetition(6, 2), rng=np.random.default_rng(0)
    ),
    **{
        f"is-gc-{family}": (
            lambda family=family: ISGCStrategy(
                make_placement(family, **FAMILIES[family]), 2
            )
        )
        for family in FAMILIES
    },
}


class TestRowCountIsChecked:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_wrong_row_count_raises(self, name):
        strategy = STRATEGIES[name]()
        n = strategy.placement.num_workers
        for bad in (np.zeros((n - 1, 3)), np.zeros((n + 1, 3)), np.zeros(n)):
            with pytest.raises(CodingError, match="partition gradients"):
                strategy.encode(bad)
            with pytest.raises(CodingError, match="worker payloads"):
                strategy.decode(range(n), bad)

    def test_ragged_tables_are_refused_by_the_placement(self):
        # ...which is why encode needs no per-worker fallback: every
        # placement's partition index is a full (n, c) table.
        with pytest.raises(PlacementError, match="same number"):
            ExplicitPlacement.from_rows([[0, 1], [1, 2, 0], [2, 0]])


class TestClassicGCMemo:
    @pytest.mark.parametrize("placement", [
        CyclicRepetition(8, 3), FractionalRepetition(8, 2),
    ], ids=repr)
    def test_memo_equals_a_fresh_solve_on_every_survivor_set(
        self, placement
    ):
        strategy = ClassicGCStrategy(placement, rng=np.random.default_rng(9))
        b = strategy.code.b_matrix
        memo = strategy.decode_cache
        decodable = 0
        for size in range(1, 9):
            for survivors in combinations(range(8), size):
                try:
                    fresh = decode_vector(b, list(survivors))
                except CodingError:
                    for _ in range(2):  # raises on every call
                        with pytest.raises(CodingError):
                            strategy.decode_vector(survivors)
                    continue
                decodable += 1
                first = strategy.decode_vector(reversed(survivors))
                assert_same_bits(first, fresh)
                assert not first.flags.writeable
                assert strategy.decode_vector(survivors) is first
        # one miss and one hit per decodable set; no failure is stored
        assert memo.size == memo.hits == decodable > 0
        assert memo.misses == 255 + (255 - decodable)

    def test_spawned_twins_share_one_memo(self):
        # The memo is a pure function of the survivor set, like the
        # code it is solved from, so twins share both.
        strategy = ClassicGCStrategy(
            CyclicRepetition(8, 3), rng=np.random.default_rng(9)
        )
        twin_a, twin_b = strategy.spawn(1), strategy.spawn(2)
        assert twin_a.code is twin_b.code is strategy.code
        memo = strategy.decode_cache
        assert twin_a.decode_cache is twin_b.decode_cache is memo
        vector = twin_a.decode_vector(range(6))
        assert twin_b.decode_vector(range(6)) is vector
        assert (memo.size, memo.misses, memo.hits) == (1, 1, 1)
