"""Golden-trajectory regression: the round engine replays the old loops.

The JSON files under ``tests/golden/`` were recorded by
``tests/golden/record_goldens.py`` at the commit *before* the
``repro.engine`` extraction, when each training loop was still a
hand-rolled implementation, and re-recorded once when the batch-index
stream and FR's group order changed.  Re-running the same workloads
through ``RoundEngine`` must reproduce them **bit-for-bit** — JSON
floats round-trip exactly through ``repr``, so ``==`` on the decoded
structures is exact float equality on every loss, step time, recovered
count and final parameter — and the recorder's output must be the
committed bytes.

One golden per loop family (flat sync/GC/IS-SGD/IS-GC, no-eval
fallback, the actor round, async, adaptive with a real migration,
local-update) plus one cell of each figure runner, pinning the
registry-based rewiring of fig11/12/13.

Every engine a recorder builds also runs with a tracer, and its records
are held to the time-origin contract (``tests/time_origins.py``); the
recording still has to match, so the tracer is shown not to perturb it.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

from time_origins import assert_time_origins, trace_every_engine

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "record_goldens", GOLDEN_DIR / "record_goldens.py"
)
record_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_spec and record_goldens)


def _roundtrip(value):
    """Apply JSON's float normalisation so comparison mirrors the files."""
    return json.loads(json.dumps(value))


def _golden(name: str):
    return json.loads((GOLDEN_DIR / name).read_text())


@pytest.mark.parametrize(
    "filename, recorder",
    sorted(record_goldens.GOLDENS.items()),
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_engine_shims_match_pre_refactor_goldens(
    filename, recorder, monkeypatch
):
    engines = trace_every_engine(monkeypatch)
    fresh = _roundtrip(recorder())
    assert fresh == _golden(filename), (
        f"{filename}: engine-backed run diverged from the recording"
    )
    assert record_goldens.serialise(fresh) == (
        GOLDEN_DIR / filename
    ).read_text(), f"{filename}: the recorder would rewrite the file"
    for engine in engines:
        assert_time_origins(engine)


def test_goldens_cover_every_loop_family():
    names = set(record_goldens.GOLDENS)
    assert {
        "trainer_flat.json",
        "trainer_flat_no_eval.json",
        "runtime_actor.json",
        "async_sgd.json",
        "adaptive.json",
        "local_sgd.json",
        "fig11_cell.json",
        "fig12_small.json",
        "fig13_small.json",
    } <= names


def test_adaptive_golden_contains_a_migration():
    """The adaptive golden is only meaningful if a migration happened."""
    data = _golden("adaptive.json")
    assert len(data["migrations"]) >= 1
    # the recorded run migrates CR -> FR at the first review point
    assert data["migrations"][0]["step"] == 10
    assert data["placement_scheme"] == "fr"
