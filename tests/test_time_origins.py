"""The time-origin check fails, naming step and clause, on each bug shape.

``tests/time_origins.py`` holds every run of the golden, resume, spec
and serve tests to the absolute vs step-relative contract.  These cases
feed it one hand-built clean run, doctored into the shape of a known
bug: the time-origin plants of the checker audit in CHANGES.md (E1, E3
and E4; E2 sat in the ``round.clock`` gauge, which is gone), two
keyword-argument plants at other sites and a decreasing async clock.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine.rules import MigrationEvent
from repro.obs import RoundTrace
from repro.types import AsyncUpdateRecord, StepRecord

from time_origins import time_origin_problems

#: (step_start, arrivals, accepted, proceed_time) per round; every
#: value is a binary fraction, so the sums below are exact.
ROUNDS = [
    (0.0, {0: 0.5, 1: 0.75, 2: 1.5}, (0, 1), 0.75),
    (0.75, {1: 0.25, 0: 0.5, 2: 2.0}, (0, 1), 0.5),
    (1.25, {2: 0.25, 0: 1.0}, (0, 2), 1.0),
]
#: the adaptive rule migrates before step 2, charging 0.5 s.
COST = 0.5


def clean_run():
    traces = [
        RoundTrace(
            step=t, scheme="s", step_start=start,
            step_end=start + proceed, arrivals=arrivals,
            accepted_workers=accepted, policy="wait-for-k(k=2)",
            proceed_time=proceed,
        )
        for t, (start, arrivals, accepted, proceed) in enumerate(ROUNDS)
    ]
    records = [
        StepRecord(
            step=t.step,
            sim_time=t.step_end + (COST if t.step == 2 else 0.0),
            wait_time=t.step_end - t.step_start,
            num_available=2, num_recovered=2, recovery_fraction=1.0,
            loss=1.0,
        )
        for t in traces
    ]
    migration = MigrationEvent(
        step=2, sim_time=traces[2].step_start + COST, from_label="cr",
        to_label="fr", partition_copies=4, cost_seconds=COST,
    )
    return dict(
        traces=traces,
        records=records,
        migrations=[migration],
        async_records=[
            AsyncUpdateRecord(update_index=i + 1, sim_time=time, worker=0,
                              staleness=0, loss=1.0)
            for i, time in enumerate((0.5, 0.75, 1.25))
        ],
    )


def doctor(field, index, **changes):
    """A run whose ``field[index]`` has ``changes`` applied."""
    def apply(run):
        items = list(run[field])
        items[index] = replace(items[index], **changes)
        run[field] = items
    return apply


CASES = [
    pytest.param(
        # E1: run_round sets the clock to the step-relative proceed_time,
        # so the next round starts at round 1's proceed_time.
        doctor("traces", 2, step_start=0.5, step_end=1.5),
        "step 2: chain", id="E1-clock-is-proceed-time",
    ),
    pytest.param(
        # E3: wait_time recorded as step_end + step_start.
        doctor("records", 1, wait_time=1.25 + 0.75),
        "step 1: wait time", id="E3-wait-time-sum",
    ),
    pytest.param(
        # E4: wait_time=execution.step_end, an absolute reading.
        doctor("records", 1, wait_time=1.25),
        "step 1: wait time", id="E4-wait-time-keyword-absolute",
    ),
    pytest.param(
        # RoundExecution built with step_start=result.step_end: every
        # wait time the engine records is then zero.
        doctor("records", 1, wait_time=0.0),
        "step 1: wait time", id="kwarg-execution-step-start",
    ),
    pytest.param(
        # MigrationEvent built with sim_time=cost, a duration.
        doctor("migrations", 0, sim_time=COST),
        "step 2: migration time", id="kwarg-migration-sim-time",
    ),
    pytest.param(
        # The record's clock misses the migration charge.
        doctor("records", 2, sim_time=2.25),
        "step 2: sim time", id="sim-time-without-offset",
    ),
    pytest.param(
        # An accepted worker's arrival recorded as an absolute reading.
        doctor("traces", 1, arrivals={1: 0.75 + 0.25, 0: 0.5, 2: 2.0}),
        "step 1: arrival origin", id="absolute-arrival",
    ),
    pytest.param(
        doctor("traces", 1, arrivals={1: -0.25, 0: 0.5, 2: 2.0}),
        "step 1: arrival origin", id="negative-arrival",
    ),
    pytest.param(
        # proceed_time recorded as the absolute step_end.
        doctor("traces", 1, proceed_time=1.25),
        "step 1: proceed time", id="absolute-proceed-time",
    ),
    pytest.param(
        doctor("async_records", 2, sim_time=0.5),
        "update 3: async order", id="async-clock-goes-back",
    ),
]


class TestContract:
    def test_clean_run_holds(self):
        assert time_origin_problems(**clean_run()) == []

    @pytest.mark.parametrize("plant, expected", CASES)
    def test_bug_shape_fails(self, plant, expected):
        """Each shape fails with a message naming its step and clause."""
        run = clean_run()
        plant(run)
        problems = time_origin_problems(**run)
        assert any(p.startswith(expected + ": ") for p in problems), problems

    def test_resume_chains_from_the_restored_clock(self):
        run = clean_run()
        run["traces"] = run["traces"][1:]
        assert time_origin_problems(**run, start=0.75) == []
        problems = time_origin_problems(**run, start=0.0)
        assert problems[0].startswith("step 1: chain: "), problems
