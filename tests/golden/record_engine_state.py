"""Record ``EngineState.to_json()`` of four pinned suspended runs.

Run as ``PYTHONPATH=src python tests/golden/record_engine_state.py``
— it writes ``engine_state.json`` into this directory.  The file was
first recorded at the commit *before* ``EngineState`` began carrying
record objects by reference, so ``tests/test_engine_state.py`` proved
the serialised form did not move by a byte; it was re-recorded once,
by this script, when the batch-index stream changed (the losses and
parameters it carries moved, its layout did not), and once more when
the layout went to version 2: each state now names the fingerprint of
the spec that built it, so a checked restore can refuse another spec's
state (besides the version, no other value of the four states moved).
"""

from __future__ import annotations

import json
import pathlib

from repro.engine.spec import ExperimentSpec, build_engine

HERE = pathlib.Path(__file__).parent

#: name → (backend, rule, rounds or updates run before the snapshot).
CASES = {
    "flat-sync@3": ("flat", "sync", 3),
    "flat-adaptive@5": ("flat", "adaptive", 5),
    "actor-sync@2": ("actor", "sync", 2),
    "async@5": ("flat", "async", 5),
}


def suspended_engine(backend, rule, cut):
    """The pinned spec's engine after ``cut`` rounds/updates."""
    spec = ExperimentSpec(
        name="state-test",
        scheme="is-gc-cr",
        num_workers=4,
        partitions_per_worker=2,
        wait_for=2,
        backend=backend,
        rule=rule,
        max_steps=10,
        seed=7,
        rule_params=(
            {"review_every": 3, "min_recovery_gain": 0.0}
            if rule == "adaptive" else {}
        ),
    )
    engine = build_engine(spec)
    if rule == "async":
        engine.start_updates(spec.max_steps)
        engine.step_updates(cut)
    else:
        engine.start_run(spec.max_steps)
        engine.step_rounds(cut)
    return engine


def main() -> None:
    golden = {
        name: suspended_engine(*case).snapshot().to_json()
        for name, case in CASES.items()
    }
    (HERE / "engine_state.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main()
