#!/usr/bin/env python3
"""Shrinking uploads: Ye-Abbe block coding + ignore-straggler decoding.

The paper's related work (Sec. II) covers communication-efficient GC,
where each worker uploads a 1/k-size coded block of its group gradient.
This example sweeps the block count ``k`` on FR(8, 4) and shows the
three-way trade-off — upload size vs guaranteed tolerance vs partial
recovery under random stragglers — including this repo's
ignore-straggler extension (`decode_partial`), which recovers whatever
groups still have ``k`` survivors instead of failing outright.

Run:  python examples/comm_efficient_coding.py
"""

import numpy as np

from repro import FractionalRepetition
from repro.analysis import Table
from repro.codes import CommEfficientGC
from repro.exceptions import CodingError

N, C, DIM = 8, 4, 1000
ROUNDS = 1000


def main() -> None:
    placement = FractionalRepetition(N, C)
    rng = np.random.default_rng(0)
    gradients = rng.normal(size=(N, DIM))  # row p: partition p's gradient
    full = gradients.sum(axis=0)

    # One concrete decode first: k=2, two stragglers per group.
    code = CommEfficientGC(placement, blocks=2)
    payloads = code.encode(gradients)
    survivors = [0, 3, 5, 6]  # two per group
    decoded = code.decode(survivors, payloads, DIM)
    print(
        f"k=2: upload {code.payload_elements(DIM)}/{DIM} elements per "
        f"worker; decoded exactly from {survivors}: "
        f"{np.allclose(decoded, full)}"
    )
    print()

    table = Table(
        title=(
            f"Block-count sweep on FR({N},{C}) — {ROUNDS} rounds of "
            f"4 random survivors, d={DIM}"
        ),
        columns=[
            "k", "upload elems", "guaranteed tolerance/group",
            "mean recovered %", "undecodable rounds %",
        ],
    )
    for k in (1, 2, 3, 4):
        code = CommEfficientGC(placement, blocks=k)
        payloads = code.encode(gradients)
        recovered = 0.0
        failed = 0
        for _ in range(ROUNDS):
            avail = rng.choice(N, size=4, replace=False).tolist()
            try:
                _, rec = code.decode_partial(avail, payloads, DIM)
                recovered += len(rec) / N
            except CodingError:
                failed += 1
        table.add_row(
            k,
            code.payload_elements(DIM),
            code.max_stragglers_per_group,
            f"{100 * recovered / ROUNDS:.1f}",
            f"{100 * failed / ROUNDS:.1f}",
        )
    table.show()
    print(
        "k buys bandwidth with straggler tolerance: k=1 is plain IS-GC\n"
        "over FR (full-size uploads, any single survivor per group\n"
        "suffices); k=c needs every group member.  The IS decode keeps\n"
        "partial recovery available at every point on the curve."
    )


if __name__ == "__main__":
    main()
