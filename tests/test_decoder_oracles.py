"""The FR/CR/HR decoders held to three independent references.

* **Recorded streams** — ``tests/golden/decoder_streams.json`` was
  recorded by ``tests/golden/record_decoder_streams.py``: its CR/HR
  cases at the commit *before* CR and HR decoding were collapsed onto
  one greedy-chain implementation, its FR cases before Alg. 1's
  per-group ``choice`` calls became one bounded ``integers`` draw
  (re-recorded once when FR's groups began drawing in ascending
  order, and once when CR/HR lost their chain memo, which moved only
  their cache counts, to zero).
  Selections, ``num_searches``, the generator's end state and the
  cache's hit/miss counts must not move, for looped, batched and cached
  decoding of every FR case, CR (``window`` / ``all``) and every HR
  case.
* **Scalar walk == kernel row** — :func:`repro.core.batch.greedy_chain`
  and :func:`repro.core.batch.batched_greedy_chains` are the only two
  spellings of the clockwise walk; a hypothesis property keeps them
  equal under every family adjacency.
* **Optimality** — on *every* availability mask of every CR/HR/FR
  placement with ``n ≤ 12`` the linear-time decoders select exactly as
  many workers as the exact solver's ``α(G[W'])`` (the first slice of
  ROADMAP item 3(i)) — bar one HR placement the check
  itself found, pinned in ``KNOWN_SUBOPTIMAL``.
"""

import importlib.util
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CyclicRepetition,
    FractionalRepetition,
    HybridRepetition,
    decoder_for,
)
from repro.core.batch import (
    batched_greedy_chains,
    circulant_adjacency,
    greedy_chain,
    window_starts,
)
from repro.core.conflict import conflict_graph
from repro.exceptions import PlacementError
from repro.graphs import independence_number

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "record_decoder_streams", GOLDEN_DIR / "record_decoder_streams.py"
)
recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorder)

GOLDEN = json.loads((GOLDEN_DIR / "decoder_streams.json").read_text())


class TestRecordedStreams:
    def test_golden_covers_every_case_and_mode(self):
        assert set(GOLDEN) == set(recorder.CASES)
        for case in GOLDEN.values():
            assert set(case) == set(recorder.MODES)

    @pytest.mark.parametrize("name", sorted(recorder.CASES))
    def test_matches_pre_refactor_recording(self, name):
        assert recorder.record_case(name) == GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(recorder.CASES))
    def test_batch_and_loop_agree_within_the_golden(self, name):
        # The recording itself says batched == looped (results, stream)
        # and that a cache changes neither — not just "unchanged".
        case = GOLDEN[name]
        assert case["batch"] == case["looped"] == case["batch-lists"]
        assert (
            case["cached-batch"] == case["cached-looped"] == case["cached-mixed"]
        )


def _hr_grid(sizes):
    """Every valid ``HR(n, c1, c2)`` with ``g`` groups, for ``n`` in ``sizes``."""
    for n in sizes:
        for g in range(1, n + 1):
            if n % g:
                continue
            for c1 in range(0, n + 1):
                for c2 in range(0, n + 1 - c1):
                    if c1 + c2 == 0:
                        continue
                    try:
                        yield HybridRepetition(n, c1, c2, g)
                    except PlacementError:
                        continue


ADJACENCIES = (
    [circulant_adjacency(n, c) for n in range(1, 14) for c in range(1, n + 1)]
    + [
        conflict_graph(p).adjacency
        for p in _hr_grid(range(2, 13))
        if p.c1 and p.c2
    ]
)


class TestScalarWalkIsTheKernelRow:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_greedy_chain_equals_batched_row(self, data):
        adj = data.draw(st.sampled_from(ADJACENCIES))
        n = adj.shape[0]
        members = sorted(
            data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        )
        start = data.draw(st.sampled_from(members))
        row = np.zeros((1, n), dtype=bool)
        row[0, members] = True
        kernel = batched_greedy_chains(adj, row, np.array([start]))
        scalar = greedy_chain(adj.tolist(), members, start)
        assert scalar == frozenset(np.flatnonzero(kernel[0]).tolist())

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_window_starts_is_the_available_window(self, data):
        n = data.draw(st.integers(1, 16))
        c = data.draw(st.integers(1, n))
        members = sorted(
            data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        )
        index = data.draw(st.integers(0, len(members) - 1))
        window = {(members[index] + v) % n for v in range(c)}
        assert window_starts(members, index, c, n) == sorted(
            window & set(members)
        )


#: Found by the exhaustive check below, present before the decoders
#: were unified and frozen with them: at ``n0 = c`` with ``c2 = 3`` a
#: lone survivor of the seeded group can conflict with survivors of
#: *both* neighbouring groups that do not conflict with each other
#: (mask ``{3, 6, 8}``: Alg. 3 seeded at group 1 returns ``{6}``, the
#: optimum is ``{3, 8}``), so Theorem 8's "every surviving group meets
#: some maximum independent set" does not hold for this placement.
KNOWN_SUBOPTIMAL = {12: {"HybridRepetition(n=12, c1=1, c2=3, g=3)"}}

def _placements(n):
    """``(placement, conflict edges)`` for every CR and FR placement on
    ``n`` workers and one HR placement per (decoder case, group size,
    conflict graph) — HR parameters that differ only in which rotation
    of the same layout a worker stores decode identically."""
    found = {}
    for c in range(1, n + 1):
        found["cr", c] = CyclicRepetition(n, c)
        if n % c == 0:
            found["fr", c] = FractionalRepetition(n, c)
    out = [(p, frozenset(conflict_graph(p).edges)) for p in found.values()]
    seen = set()
    for p in _hr_grid([n]):
        edges = frozenset(conflict_graph(p).edges)
        case = (p.c1 == 0 or p.num_groups == 1, p.c2 == 0, p.group_size, edges)
        if case not in seen:
            seen.add(case)
            out.append((p, edges))
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_every_mask_decodes_to_a_maximum_independent_set(n):
    masks = ((np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1).astype(bool)
    members = [np.flatnonzero(row).tolist() for row in masks]
    exact_sizes = {}
    suboptimal = set()
    for placement, edges in _placements(n):
        if edges not in exact_sizes:
            # α(G[W']) per mask by the exact solver, once per graph.
            graph = conflict_graph(placement)
            exact_sizes[edges] = np.array(
                [independence_number(graph, avail) for avail in members]
            )
        # Independence of each selection is _finalize_batch's own check
        # (no partition covered twice); maximality is the count.
        fast = decoder_for(
            placement, rng=np.random.default_rng(n)
        ).decode_batch(masks)
        if (fast.num_selected != exact_sizes[edges]).any():
            suboptimal.add(repr(placement))
    assert suboptimal == KNOWN_SUBOPTIMAL.get(n, set())
