"""Record the FR/CR/HR decoders' exact behaviour on fixed seeded masks.

Run as ``PYTHONPATH=src python tests/golden/record_decoder_streams.py``
— it writes ``decoder_streams.json`` into this directory.  The CR and
HR cases checked into the repo were recorded at the commit *before* CR
and HR decoding were collapsed onto one greedy-chain implementation,
so ``tests/test_decoder_oracles.py`` proves that rewrite bit-for-bit
neutral where the trajectory goldens only see it through a trainer.
The FR cases were recorded before Alg. 1's per-group ``choice`` calls
became one bounded ``integers`` draw, and re-recorded once when FR's
groups began drawing in ascending order (``fr-48-3`` and ``fr-96-4``
moved; the others already drew ascending).  The ``exact-*`` cases
were recorded before the exact-MIS decoder's branch and bound became
a memoised bitset search.  Fair exact decoding draws an index into
the canonical list of optima, so these cases pin that list's order:
at ``n >= 11`` it is the order of branching on workers sorted by
``repr`` (``10`` before ``2``), not ascending.

Per case (FR with several groups, ``c = 1`` and one group, and with
ids past the frozenset's hash table, where set order is not ascending; CR
``window`` / ``all``; HR's ``c1 = 0``, ``g = 1``, ``c2 = 0`` and
general cases; the exact decoder on CR, HR and a hetero ``cr`` table
with a non-identity assignment) and per mode the golden stores:

* a digest of every ``(selected workers, num_searches)`` pair, in mask
  order;
* the injected generator's end state (the fairness draws consumed);
* the attached :class:`~repro.parallel.DecodeCache`'s hit/miss counts.

Modes: ``looped`` (``decode`` per mask), ``batch`` (``decode_batch``
on the boolean array), ``batch-lists`` (``decode_batch`` on id lists),
``cached-looped`` / ``cached-batch`` (two passes over one cache) and
``cached-mixed`` (a looped pass then a batched pass sharing entries).
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from repro.core.cr_decoder import CRDecoder
from repro.core.cyclic import CyclicRepetition
from repro.core.exact_decoder import ExactDecoder
from repro.core.fr_decoder import FRDecoder
from repro.core.fractional import FractionalRepetition
from repro.core.hr_decoder import HRDecoder
from repro.core.hybrid import HybridRepetition
from repro.core.scheme import HeteroScheme
from repro.parallel import DecodeCache

HERE = pathlib.Path(__file__).parent
DECODER_SEED = 20230711
NUM_MASKS = 40

#: Machine → base worker index for the ``exact-hetero-cr-12-3`` case.
HETERO_ASSIGNMENT = (5, 11, 2, 8, 0, 10, 3, 7, 1, 9, 4, 6)

#: name → decoder factory ``(rng, cache) -> Decoder``.
CASES = {
    "fr-12-3": lambda rng, cache: FRDecoder(
        FractionalRepetition(12, 3), rng=rng, cache=cache
    ),
    "fr-48-3": lambda rng, cache: FRDecoder(
        FractionalRepetition(48, 3), rng=rng, cache=cache
    ),
    "fr-48-1": lambda rng, cache: FRDecoder(
        FractionalRepetition(48, 1), rng=rng, cache=cache
    ),
    "fr-6-6": lambda rng, cache: FRDecoder(
        FractionalRepetition(6, 6), rng=rng, cache=cache
    ),
    "fr-96-4": lambda rng, cache: FRDecoder(
        FractionalRepetition(96, 4), rng=rng, cache=cache
    ),
    "cr-window-12-3": lambda rng, cache: CRDecoder(
        CyclicRepetition(12, 3), rng=rng, cache=cache
    ),
    "cr-window-48-4": lambda rng, cache: CRDecoder(
        CyclicRepetition(48, 4), rng=rng, cache=cache
    ),
    "cr-window-7-5": lambda rng, cache: CRDecoder(
        CyclicRepetition(7, 5), rng=rng, cache=cache
    ),
    "cr-all-12-3": lambda rng, cache: CRDecoder(
        CyclicRepetition(12, 3), rng=rng, cache=cache, starts="all"
    ),
    "cr-all-20-2": lambda rng, cache: CRDecoder(
        CyclicRepetition(20, 2), rng=rng, cache=cache, starts="all"
    ),
    "hr-c1-0-12": lambda rng, cache: HRDecoder(
        HybridRepetition(12, 0, 2, 3), rng=rng, cache=cache
    ),
    "hr-g-1-12": lambda rng, cache: HRDecoder(
        HybridRepetition(12, 1, 2, 1), rng=rng, cache=cache
    ),
    "hr-c2-0-12": lambda rng, cache: HRDecoder(
        HybridRepetition(12, 2, 0, 3), rng=rng, cache=cache
    ),
    "hr-c2-0-24": lambda rng, cache: HRDecoder(
        HybridRepetition(24, 3, 0, 3), rng=rng, cache=cache
    ),
    "hr-general-12": lambda rng, cache: HRDecoder(
        HybridRepetition(12, 1, 2, 3), rng=rng, cache=cache
    ),
    "hr-general-24": lambda rng, cache: HRDecoder(
        HybridRepetition(24, 2, 2, 4), rng=rng, cache=cache
    ),
    "exact-cr-12-3": lambda rng, cache: ExactDecoder(
        CyclicRepetition(12, 3), rng=rng, cache=cache
    ),
    "exact-hr-12": lambda rng, cache: ExactDecoder(
        HybridRepetition(12, 1, 3, 3), rng=rng, cache=cache
    ),
    "exact-hetero-cr-12-3": lambda rng, cache: ExactDecoder(
        HeteroScheme(
            num_workers=12,
            assignment=HETERO_ASSIGNMENT,
            base="cr",
            partitions_per_worker=3,
        ).construct(),
        rng=rng,
        cache=cache,
    ),
}


def masks_for(n: int, seed: int) -> np.ndarray:
    """``NUM_MASKS`` random masks of every size, then the first ten
    again (so a single cached pass already sees repeats)."""
    rng = np.random.default_rng(seed)
    masks = np.zeros((NUM_MASKS, n), dtype=bool)
    for i in range(NUM_MASKS):
        size = int(rng.integers(1, n + 1))
        masks[i, rng.choice(n, size=size, replace=False)] = True
    return np.concatenate([masks, masks[:10]])


def _lists(masks: np.ndarray) -> list:
    return [np.flatnonzero(row).tolist() for row in masks]


def _looped(decoder, masks):
    return [decoder.decode(mask) for mask in _lists(masks)]


def _batch(decoder, masks):
    return decoder.decode_batch(masks).results()


def _batch_lists(decoder, masks):
    return decoder.decode_batch(_lists(masks)).results()


#: mode → (uses a cache, the passes run in order on one decoder).
MODES = {
    "looped": (False, (_looped,)),
    "batch": (False, (_batch,)),
    "batch-lists": (False, (_batch_lists,)),
    "cached-looped": (True, (_looped, _looped)),
    "cached-batch": (True, (_batch, _batch)),
    "cached-mixed": (True, (_looped, _batch)),
}


def record_case(name: str) -> dict:
    """Every mode of one case, as JSON-ready dicts."""
    factory = CASES[name]
    out = {}
    for mode, (cached, passes) in MODES.items():
        rng = np.random.default_rng(DECODER_SEED)
        cache = DecodeCache() if cached else None
        decoder = factory(rng, cache)
        masks = masks_for(decoder.placement.num_workers, seed=len(name))
        rows = [
            [sorted(res.selected_workers), res.num_searches]
            for run in passes
            for res in run(decoder, masks)
        ]
        state = rng.bit_generator.state["state"]
        out[mode] = {
            "results_sha256": hashlib.sha256(
                json.dumps(rows).encode()
            ).hexdigest(),
            "total_searches": sum(row[1] for row in rows),
            "rng_state": str(state["state"]),
            "rng_inc": str(state["inc"]),
            "cache_hits": cache.hits if cached else None,
            "cache_misses": cache.misses if cached else None,
        }
    return out


def record() -> dict:
    return {name: record_case(name) for name in CASES}


def main() -> None:
    path = HERE / "decoder_streams.json"
    path.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
