"""Record golden placement fingerprints + decode selections.

Run as ``PYTHONPATH=src python tests/golden/record_placement_goldens.py``
— it writes ``placement_schemes.json`` into this directory.  The file
checked into the repo was recorded at the commit introducing
``repro.core.scheme``, using the **direct constructors** (the
pre-registry construction path), so the equivalence tests in
``tests/test_scheme.py`` prove the registry port is bit-for-bit
neutral: identical ``Placement.fingerprint`` digests and identical
per-seed decode selections through ``make_placement(...)`` as through
``FractionalRepetition(...)`` & co.

Per case the golden stores the family name + registry params, the
expected fingerprint, and a handful of decodes: (seed, availability
mask) → sorted selected workers.  Decoders draw fairness tie-breaks
from ``default_rng(seed)``, so a fresh decoder per decode makes the
selections exactly reproducible.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.core.cyclic import CyclicRepetition
from repro.core.decoders import decoder_for
from repro.core.explicit import ExplicitPlacement
from repro.core.fractional import FractionalRepetition
from repro.core.hybrid import HybridRepetition

HERE = pathlib.Path(__file__).parent

#: family → (registry params, direct construction).  The direct
#: constructions are the pre-port reference; the registry params must
#: reproduce them exactly (asserted at record time and in the tests).
EXPLICIT_ROWS = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]
HETERO_ASSIGNMENT = [1, 0, 3, 2, 5, 4]

CASES = [
    ("fr", {"num_workers": 6, "partitions_per_worker": 2},
     lambda: FractionalRepetition(6, 2)),
    ("fr", {"num_workers": 12, "partitions_per_worker": 3},
     lambda: FractionalRepetition(12, 3)),
    ("cr", {"num_workers": 5, "partitions_per_worker": 2},
     lambda: CyclicRepetition(5, 2)),
    ("cr", {"num_workers": 9, "partitions_per_worker": 3},
     lambda: CyclicRepetition(9, 3)),
    ("cr", {"num_workers": 8, "partitions_per_worker": 1},
     lambda: CyclicRepetition(8, 1)),
    ("hr", {"num_workers": 12, "c1": 2, "c2": 1, "num_groups": 3},
     lambda: HybridRepetition(12, 2, 1, 3)),
    ("hr", {"num_workers": 8, "c1": 2, "c2": 0, "num_groups": 2},
     lambda: HybridRepetition(8, 2, 0, 2)),
    ("hr", {"num_workers": 6, "c1": 0, "c2": 2, "num_groups": 1},
     lambda: HybridRepetition(6, 0, 2, 1)),
    ("explicit", {"rows": EXPLICIT_ROWS},
     lambda: ExplicitPlacement.from_rows(EXPLICIT_ROWS)),
    ("hetero",
     {"num_workers": 6, "partitions_per_worker": 2, "base": "cr",
      "assignment": HETERO_ASSIGNMENT},
     lambda: ExplicitPlacement({
         m: CyclicRepetition(6, 2).partitions_of(w)
         for m, w in enumerate(HETERO_ASSIGNMENT)
     })),
]


def masks_for(n: int) -> list:
    """Deterministic availability masks: full, evens, and two random."""
    masks = [list(range(n)), list(range(0, n, 2))]
    for i in (0, 1):
        rng = np.random.default_rng(99 + i)
        size = int(rng.integers(1, n))
        masks.append(sorted(int(x) for x in rng.choice(n, size, replace=False)))
    return [sorted(set(m)) for m in masks if m]


def record() -> dict:
    cases = []
    for family, params, build in CASES:
        placement = build()
        n = placement.num_workers
        decodes = []
        for seed in (0, 1, 2):
            for mask in masks_for(n):
                decoder = decoder_for(
                    placement, rng=np.random.default_rng(seed)
                )
                result = decoder.decode(mask)
                decodes.append({
                    "seed": seed,
                    "available": mask,
                    "selected": sorted(result.selected_workers),
                })
        cases.append({
            "family": family,
            "params": params,
            "fingerprint": placement.fingerprint,
            "scheme": placement.scheme,
            "decodes": decodes,
        })
    return {"cases": cases}


def main() -> None:
    payload = record()
    out = HERE / "placement_schemes.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    total = sum(len(c["decodes"]) for c in payload["cases"])
    print(f"wrote {out} ({len(payload['cases'])} cases, {total} decodes)")


if __name__ == "__main__":
    main()
