"""The time-origin contract, checked on what a run already records.

All time is simulated seconds, and two origins coexist (the
:mod:`repro.simulation.cluster` module docstring): ``step_start``,
``step_end`` and the clock are *absolute* readings, while a round's
``arrivals`` and ``proceed_time`` are *step-relative* (seconds since
that round's ``step_start``).  :func:`time_origin_problems` reads a
run's :class:`~repro.obs.RoundTrace` stream, its
:class:`~repro.types.StepRecord`\\ s, the adaptive rule's migrations and the async
:class:`~repro.types.AsyncUpdateRecord`\\ s, and names every clause that
does not hold exactly (``==`` on floats, because each side is computed
by the same operations):

``chain``
    the first traced round starts at ``start`` (0, or the clock an
    engine was restored at) and each round starts where the previous
    one ended;
``proceed time``
    ``step_start + proceed_time == step_end``: the master moves on
    ``proceed_time`` after the round began;
``arrival origin``
    every arrival is step-relative, so ``>= 0``, and every accepted
    worker arrived, no later than ``proceed_time``;
``wait time``
    ``StepRecord.wait_time == step_end - step_start``;
``sim time``
    ``StepRecord.sim_time == step_end + offset``, where the offset is
    the running sum of the adaptive rule's migration ``cost_seconds``
    (``RoundEngine`` adds ``rule.time_offset()``; every other rule's is 0);
``migration time``
    a migration at step ``t`` is stamped ``step_start[t] + cost_seconds``;
``async order``
    ``AsyncUpdateRecord.sim_time`` never decreases (and starts >= 0).

Every message starts ``step <t>:`` (``update <i>:`` for async records)
and names its clause.  :func:`assert_time_origins` applies the check to
an engine; :func:`trace_every_engine` gives every engine a test builds a
tracer, so a test that already runs engines can check them afterwards.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.engine import FlatBackend, RoundEngine
from repro.obs import RoundTracer


def time_origin_problems(
    traces: Sequence = (),
    records: Sequence = (),
    *,
    start: float = 0.0,
    migrations: Sequence = (),
    async_records: Sequence = (),
) -> List[str]:
    """Every broken clause of the contract, one message each.

    ``traces`` are one run's rounds in order; ``records`` are its step
    records, of which the traces cover the *last* ``len(traces)`` (a
    restored engine traces only the rounds it ran itself).
    """
    if records and len(traces) > len(records):
        return [f"{len(traces)} traced rounds but only {len(records)} "
                "step records"]
    problems: List[str] = []
    covered = records[len(records) - len(traces):] if records else ()
    offsets = _offsets(migrations, records)
    by_step = {}
    previous_end = start
    for index, trace in enumerate(traces):
        t = trace.step
        by_step[t] = trace

        def fail(clause, detail):
            problems.append(f"step {t}: {clause}: {detail}")

        if trace.step_start != previous_end:
            where = "the previous round's end" if index else "the run start"
            fail("chain", f"step_start {trace.step_start!r} is not "
                          f"{where} {previous_end!r}")
        previous_end = trace.step_end
        if trace.step_start + trace.proceed_time != trace.step_end:
            fail("proceed time", f"step_start {trace.step_start!r} + "
                 f"proceed_time {trace.proceed_time!r} is not step_end "
                 f"{trace.step_end!r}")
        for worker, arrival in trace.arrivals.items():
            if arrival < 0:
                fail("arrival origin", f"worker {worker} arrives at "
                     f"{arrival!r}, before the round started")
        for worker in trace.accepted_workers:
            arrival = trace.arrivals.get(worker)
            if arrival is None or arrival > trace.proceed_time:
                fail("arrival origin", f"accepted worker {worker} arrives "
                     f"at {arrival!r}, after proceed_time "
                     f"{trace.proceed_time!r}")
        if covered:
            record = covered[index]
            if record.step != t:
                fail("chain", f"traced round is step {t} but its record "
                              f"is step {record.step}")
                continue
            if record.wait_time != trace.step_end - trace.step_start:
                fail("wait time", f"wait_time {record.wait_time!r} is not "
                     f"step_end - step_start "
                     f"{trace.step_end - trace.step_start!r}")
            expected = trace.step_end + offsets.get(t, 0.0)
            if record.sim_time != expected:
                fail("sim time", f"sim_time {record.sim_time!r} is not "
                     f"step_end + migration cost {expected!r}")

    for event in migrations:
        trace = by_step.get(event.step)
        if trace is None:
            continue
        expected = trace.step_start + event.cost_seconds
        if event.sim_time != expected:
            problems.append(
                f"step {event.step}: migration time: sim_time "
                f"{event.sim_time!r} is not step_start + cost_seconds "
                f"{expected!r}"
            )

    previous = 0.0
    for record in async_records:
        if record.sim_time < previous:
            problems.append(
                f"update {record.update_index}: async order: sim_time "
                f"{record.sim_time!r} precedes {previous!r}"
            )
        previous = record.sim_time
    return problems


def _offsets(migrations, records) -> dict:
    """Step → the rule's time offset while that step was recorded:
    migration costs summed in order, as the adaptive rule adds them."""
    offsets, penalty, pending = {}, 0.0, list(migrations)
    for record in records:
        while pending and pending[0].step <= record.step:
            penalty += pending.pop(0).cost_seconds
        offsets[record.step] = penalty
    return offsets


def assert_time_origins(engine, start: float = 0.0) -> None:
    """Fail with every broken clause of what ``engine`` recorded."""
    tracer = engine.tracer
    assert tracer is not None or not engine.records, (
        "a synchronous run needs a tracer for its records to be checked"
    )
    traces = tracer.traces if tracer is not None else []
    problems = time_origin_problems(
        traces,
        engine.records,
        start=start,
        migrations=getattr(engine.rule, "migrations", ()),
        async_records=engine.async_records,
    )
    assert not problems, "time-origin contract broken:\n" + "\n".join(
        problems
    )


def trace_every_engine(monkeypatch) -> List[RoundEngine]:
    """Give every :class:`RoundEngine` built from now on a tracer (when
    its backend records rounds and none was given); returns the list
    the engines are appended to.  A tracer never perturbs a run."""
    engines: List[RoundEngine] = []
    init = RoundEngine.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.tracer is None and isinstance(self.backend, FlatBackend):
            tracer = RoundTracer()
            self.backend.attach_tracer(tracer)
            self.tracer = tracer
        engines.append(self)

    monkeypatch.setattr(RoundEngine, "__init__", traced_init)
    return engines
