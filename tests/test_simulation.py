"""Tests for the discrete-event simulation layer."""

import copy
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.env import Environment, delay_model_from, failure_model_from
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation import (
    AdaptiveWaitK,
    BestEffortWaitForK,
    ClusterSimulator,
    ComputeModel,
    ContendedUploadModel,
    DeadlinePolicy,
    Event,
    EventQueue,
    NetworkModel,
    RoundResult,
    WaitForAll,
    WaitForK,
    linear_rampup,
)
from repro.simulation.events import arrival_race
from repro.obs import (
    RoundTracer,
    StepStatistics,
    steps_to_threshold,
)
from repro.straggler import NoDelay, PersistentStragglers, ShiftedExponentialDelay
from repro.types import StepRecord


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(Event(3.0, "b"))
        q.push(Event(1.0, "a"))
        q.push(Event(2.0, "c"))
        assert [e.kind for e in q.drain()] == ["a", "c", "b"]

    def test_fifo_tie_break(self):
        q = EventQueue()
        q.push(Event(1.0, "first"))
        q.push(Event(1.0, "second"))
        assert [e.kind for e in q.drain()] == ["first", "second"]

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_peek(self):
        q = EventQueue()
        q.push(Event(2.0, "x"))
        assert q.peek().kind == "x"
        assert len(q) == 1

    def test_peek_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().peek()

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(Event(-1.0, "bad"))

    def test_drain_until(self):
        q = EventQueue()
        for t in (1.0, 2.0, 3.0):
            q.push(Event(t, f"t{t}"))
        early = list(q.drain_until(2.0))
        assert [e.time for e in early] == [1.0, 2.0]
        assert len(q) == 1

    def test_bool(self):
        q = EventQueue()
        assert not q
        q.push(Event(0.0, "x"))
        assert q


class TestNetworkModel:
    def test_transfer_time_formula(self):
        net = NetworkModel(latency=0.01, bandwidth=1000.0, bytes_per_element=4)
        assert net.transfer_time(250) == pytest.approx(0.01 + 1.0)

    def test_zero_elements_costs_latency(self):
        net = NetworkModel(latency=0.5, bandwidth=1e9)
        assert net.transfer_time(0) == pytest.approx(0.5)

    def test_ideal_network(self):
        from repro.simulation import IDEAL_NETWORK
        assert IDEAL_NETWORK.transfer_time(10**9) == 0.0

    def test_broadcast_independent_of_worker_count(self):
        net = NetworkModel(latency=0.01, bandwidth=1e6)
        assert net.broadcast_time(1000, 2) == net.broadcast_time(1000, 64)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkModel(latency=-1)
        with pytest.raises(ConfigurationError):
            NetworkModel(bandwidth=0)
        with pytest.raises(ConfigurationError):
            NetworkModel(bytes_per_element=0)
        with pytest.raises(ConfigurationError):
            NetworkModel().transfer_time(-1)
        with pytest.raises(ConfigurationError):
            NetworkModel().broadcast_time(10, 0)


class TestComputeModel:
    def test_linear_in_partitions(self):
        cm = ComputeModel(base=0.1, per_partition=0.2)
        assert cm.step_time(1) == pytest.approx(0.3)
        assert cm.step_time(3) == pytest.approx(0.7)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ComputeModel(base=-0.1)
        with pytest.raises(ConfigurationError):
            ComputeModel().step_time(0)


class TestWaitPolicies:
    ARRIVALS = {0: 1.0, 1: 3.0, 2: 2.0, 3: 5.0}

    def test_wait_for_k_accepts_fastest(self):
        out = WaitForK(2).wait(self.ARRIVALS, step=0)
        assert out.accepted_workers == frozenset({0, 2})
        assert out.proceed_time == pytest.approx(2.0)

    def test_wait_for_all(self):
        out = WaitForAll(4).wait(self.ARRIVALS, step=0)
        assert out.accepted_workers == frozenset(range(4))
        assert out.proceed_time == pytest.approx(5.0)

    def test_wait_for_k_too_few_arrivals(self):
        with pytest.raises(SimulationError):
            WaitForK(5).wait(self.ARRIVALS, step=0)

    def test_wait_for_k_validation(self):
        with pytest.raises(ConfigurationError):
            WaitForK(0)

    def test_empty_arrivals_raise(self):
        with pytest.raises(SimulationError):
            WaitForK(1).wait({}, step=0)

    def test_deadline_accepts_within(self):
        out = DeadlinePolicy(2.5).wait(self.ARRIVALS, step=0)
        assert out.accepted_workers == frozenset({0, 2})
        assert out.proceed_time == pytest.approx(2.5)

    def test_deadline_nobody_made_it(self):
        out = DeadlinePolicy(0.5).wait(self.ARRIVALS, step=0)
        assert out.accepted_workers == frozenset({0})
        assert out.proceed_time == pytest.approx(1.0)

    def test_deadline_validation(self):
        with pytest.raises(ConfigurationError):
            DeadlinePolicy(-1.0)

    def test_adaptive_schedule(self):
        policy = AdaptiveWaitK(lambda step: 1 if step < 5 else 3)
        early = policy.wait(self.ARRIVALS, step=0)
        late = policy.wait(self.ARRIVALS, step=10)
        assert len(early.accepted_workers) == 1
        assert len(late.accepted_workers) == 3

    def test_adaptive_invalid_k(self):
        policy = AdaptiveWaitK(lambda step: 0)
        with pytest.raises(SimulationError):
            policy.wait(self.ARRIVALS, step=0)

    def test_adaptive_clamps_to_arrivals(self):
        policy = AdaptiveWaitK(lambda step: 99)
        out = policy.wait(self.ARRIVALS, step=0)
        assert len(out.accepted_workers) == 4

    def test_linear_rampup(self):
        sched = linear_rampup(2, 10, over_steps=8)
        assert sched(0) == 2
        assert sched(8) == 10
        assert sched(100) == 10
        assert 2 <= sched(4) <= 10

    def test_linear_rampup_validation(self):
        with pytest.raises(ConfigurationError):
            linear_rampup(0, 5, 10)


class TestClusterSimulator:
    def _sim(self, delay_model=None, **kw):
        return ClusterSimulator(
            num_workers=4,
            partitions_per_worker=2,
            compute=ComputeModel(base=0.1, per_partition=0.1),
            network=NetworkModel(latency=0.0, bandwidth=float("inf")),
            delay_model=delay_model or NoDelay(),
            rng=np.random.default_rng(0),
            **kw,
        )

    def test_clock_advances(self):
        sim = self._sim()
        assert sim.clock == 0.0
        sim.run_round(0, WaitForK(4))
        assert sim.clock > 0.0

    def test_no_delays_all_arrive_together(self):
        sim = self._sim()
        result = sim.run_round(0, WaitForK(4))
        times = list(result.arrivals.values())
        assert max(times) - min(times) == pytest.approx(0.0)
        # base + 2 partitions × 0.1 = 0.3 s of compute.
        assert result.step_time == pytest.approx(0.3)

    def test_persistent_straggler_excluded_by_wait_k(self):
        slow = PersistentStragglers([3], ShiftedExponentialDelay(10.0, 0.0))
        sim = self._sim(delay_model=slow)
        result = sim.run_round(0, WaitForK(3))
        assert result.outcome.accepted_workers == frozenset({0, 1, 2})
        assert result.step_time == pytest.approx(0.3)

    def test_wait_all_pays_the_straggler(self):
        slow = PersistentStragglers([3], ShiftedExponentialDelay(10.0, 0.0))
        sim = self._sim(delay_model=slow)
        result = sim.run_round(0, WaitForK(4))
        assert result.step_time == pytest.approx(10.3)

    def test_rounds_accumulate(self):
        sim = self._sim()
        for step in range(3):
            sim.run_round(step, WaitForK(4))
        assert sim.clock == pytest.approx(0.9)

    def test_reset(self):
        sim = self._sim()
        sim.run_round(0, WaitForK(4))
        sim.reset()
        assert sim.clock == 0.0

    def test_rng_is_required(self):
        # No entropy-seeded fallback: every simulator replays.
        with pytest.raises(TypeError, match="rng"):
            ClusterSimulator(2, 1)
        with pytest.raises(TypeError, match="rng"):
            Environment().simulator(2, 1)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            ClusterSimulator(num_workers=0, partitions_per_worker=1, rng=rng)
        with pytest.raises(ConfigurationError):
            ClusterSimulator(num_workers=2, partitions_per_worker=0, rng=rng)

    def test_network_time_counted(self):
        sim = ClusterSimulator(
            num_workers=2,
            partitions_per_worker=1,
            compute=ComputeModel(base=0.0, per_partition=0.0),
            network=NetworkModel(latency=0.5, bandwidth=float("inf")),
            delay_model=NoDelay(),
            rng=np.random.default_rng(0),
        )
        result = sim.run_round(0, WaitForK(2))
        # broadcast latency + upload latency
        assert result.step_time == pytest.approx(1.0)


class TestMetrics:
    def _records(self, times, recoveries):
        return [
            StepRecord(
                step=i, sim_time=sum(times[: i + 1]), wait_time=t,
                num_available=2, num_recovered=r, recovery_fraction=r / 4,
                loss=1.0,
            )
            for i, (t, r) in enumerate(zip(times, recoveries))
        ]

    def test_statistics(self):
        stats = StepStatistics.from_records(
            self._records([1.0, 2.0, 3.0], [2, 4, 4])
        )
        assert stats.count == 3
        assert stats.mean_step_time == pytest.approx(2.0)
        assert stats.total_time == pytest.approx(6.0)
        assert stats.mean_recovery_fraction == pytest.approx(10 / 12)

    def test_statistics_empty(self):
        with pytest.raises(ValueError):
            StepStatistics.from_records([])

    def test_steps_to_threshold(self):
        assert steps_to_threshold([3.0, 2.0, 0.9, 0.5], 1.0) == 3
        assert steps_to_threshold([3.0, 2.0], 1.0) is None

class TestUnitConvention:
    """Regression tests for the step-relative time convention.

    Policies see step-relative arrivals; RoundResult must carry the
    policy's outcome verbatim (it used to be rebuilt with absolute
    times, so ``proceed_time`` disagreed with ``arrivals`` after the
    first round)."""

    def _sim(self):
        from repro.straggler import ExponentialDelay
        return ClusterSimulator(
            num_workers=4,
            partitions_per_worker=2,
            compute=ComputeModel(base=0.1, per_partition=0.1),
            network=NetworkModel(latency=0.0, bandwidth=float("inf")),
            delay_model=ExponentialDelay(1.0),
            rng=np.random.default_rng(11),
        )

    def test_arrivals_relative_on_later_rounds(self):
        sim = self._sim()
        for step in range(50):
            sim.run_round(step, WaitForK(3))
        result = sim.run_round(50, WaitForK(3))
        # After 50 rounds the absolute clock dwarfs any single round;
        # relative arrivals stay bounded by compute + delay and must
        # not carry the clock offset.
        assert result.step_start > 10.0
        assert max(result.arrivals.values()) < result.step_start
        assert min(result.arrivals.values()) >= 0.3  # compute floor

    def test_outcome_is_policy_output_verbatim(self):
        sim = self._sim()
        sim.run_round(0, WaitForK(3))
        result = sim.run_round(1, WaitForK(3))
        # proceed_time is the k-th *relative* arrival, and step_end is
        # step_start + proceed_time — one convention, both rounds.
        kth = sorted(result.arrivals.values())[2]
        assert result.outcome.proceed_time == pytest.approx(kth)
        assert result.step_end == pytest.approx(
            result.step_start + result.outcome.proceed_time
        )
        assert result.step_time == pytest.approx(result.outcome.proceed_time)

    def test_deadline_meaningful_on_every_round(self):
        from repro.straggler import ExponentialDelay
        sim = ClusterSimulator(
            num_workers=4,
            partitions_per_worker=2,
            compute=ComputeModel(base=0.1, per_partition=0.1),
            network=NetworkModel(latency=0.0, bandwidth=float("inf")),
            delay_model=ExponentialDelay(0.2),
            rng=np.random.default_rng(3),
        )
        policy = DeadlinePolicy(1.0)
        for step in range(5):
            result = sim.run_round(step, policy)
            # A per-step deadline caps every round's duration; under the
            # old absolute-time rebuild this held only for round 0.
            assert result.step_time <= 1.0 + 1e-9


class TestResetDeterminism:
    def _stochastic_sim(self, delay_model):
        from repro.straggler import TransientDropouts
        return ClusterSimulator(
            num_workers=6,
            partitions_per_worker=2,
            compute=ComputeModel(base=0.1, per_partition=0.1),
            network=NetworkModel(latency=0.0, bandwidth=float("inf")),
            delay_model=delay_model,
            failure_model=TransientDropouts(0.2),
            rng=np.random.default_rng(42),
        )

    def _run(self, sim, rounds=8):
        from repro.simulation import BestEffortWaitForK
        out = []
        for step in range(rounds):
            r = sim.run_round(step, BestEffortWaitForK(3))
            out.append((r.arrivals, r.step_start, r.step_end))
        return out

    def test_reset_replays_stochastic_run_exactly(self):
        from repro.straggler import ExponentialDelay
        sim = self._stochastic_sim(ExponentialDelay(1.0))
        first = self._run(sim)
        sim.reset()
        assert sim.clock == 0.0
        assert self._run(sim) == first

    def test_state_dicts_do_not_alias_the_generator(self):
        # snapshot_state hands out, and restore_state takes, generator
        # dicts the simulator must not keep: mutating them afterwards
        # moves neither later draws nor a reset() replay.
        from repro.straggler import ExponentialDelay

        def scramble(state):
            rng = state["rng"]
            rng["state"]["state"] += 1
            rng["state"]["inc"] += 2
            rng["has_uint32"] = 1 - rng["has_uint32"]

        sim = self._stochastic_sim(ExponentialDelay(1.0))
        first = self._run(sim)
        sim.reset()
        self._run(sim, rounds=3)
        handed_out = sim.snapshot_state()
        taken_in = copy.deepcopy(handed_out)
        scramble(handed_out)
        assert self._run(sim, rounds=5) == first[3:]
        sim.restore_state(taken_in)
        scramble(taken_in)
        assert self._run(sim, rounds=5) == first[3:]
        sim.reset()
        assert self._run(sim) == first

    def test_reset_rewinds_bursty_markov_state(self):
        from repro.straggler import BurstyDelay, ExponentialDelay
        model = BurstyDelay(
            ExponentialDelay(2.0), enter_burst=0.5, exit_burst=0.1
        )
        sim = self._stochastic_sim(model)
        first = self._run(sim)
        sim.reset()
        assert not any(model.in_burst(w) for w in range(6))
        assert self._run(sim) == first

    def test_reset_replays_recorded_trace(self):
        from repro.straggler import (
            DelayTrace, ExponentialDelay, TraceReplayModel,
        )
        trace = DelayTrace.record(
            ExponentialDelay(1.5), 4, 6, np.random.default_rng(0)
        )
        sim = ClusterSimulator(
            num_workers=4,
            partitions_per_worker=2,
            compute=ComputeModel(base=0.1, per_partition=0.1),
            network=NetworkModel(latency=0.0, bandwidth=float("inf")),
            delay_model=TraceReplayModel(trace),
            rng=np.random.default_rng(0),
        )
        first = [sim.run_round(s, WaitForK(3)).arrivals for s in range(6)]
        sim.reset()
        second = [sim.run_round(s, WaitForK(3)).arrivals for s in range(6)]
        assert first == second


class TestWastedCompute:
    def _sim(self):
        return ClusterSimulator(
            num_workers=4,
            partitions_per_worker=2,
            compute=ComputeModel(base=0.1, per_partition=0.1),
            network=NetworkModel(latency=0.0, bandwidth=float("inf")),
            delay_model=NoDelay(),
            rng=np.random.default_rng(0),
        )

    def test_wait_all_wastes_nothing(self):
        result = self._sim().run_round(0, WaitForK(4))
        assert result.wasted_compute == pytest.approx(0.0)

    def test_ignored_workers_counted(self):
        result = self._sim().run_round(0, WaitForK(1))
        # 3 ignored workers × (0.1 + 2 × 0.1) compute-seconds each.
        assert result.wasted_compute == pytest.approx(3 * 0.3)

    def test_waste_monotone_in_ignored_count(self):
        sims = [self._sim() for _ in range(3)]
        wastes = [
            sims[i].run_round(0, WaitForK(k)).wasted_compute
            for i, k in enumerate((1, 2, 4))
        ]
        assert wastes[0] > wastes[1] > wastes[2]


# ----------------------------------------------------------------------
# The arrival race against the event-queue round it replaced
# ----------------------------------------------------------------------
class QueueRound:
    """Test-only reference: the event-queue round ``run_round`` ran
    before the vectorised race — one ``is_alive`` call per worker, one
    :class:`Event` per upload pushed through an :class:`EventQueue`,
    arrivals in pop order."""

    def __init__(self, n, c, compute, network, delays, failures, link,
                 rng, tracer, gradient_elements=10_000):
        self.n, self.c = n, c
        self.compute, self.network = compute, network
        self.delays, self.failures, self.link = delays, failures, link
        self.rng, self.tracer = rng, tracer
        self.elements = gradient_elements
        self.clock = 0.0

    def run_round(self, step, policy):
        start = self.clock
        broadcast = self.network.broadcast_time(self.elements, self.n)
        alive = [
            w for w in range(self.n)
            if self.failures.is_alive(w, step, self.rng)
        ]
        if not alive:
            raise SimulationError(
                f"step {step}: every worker failed; nothing to wait for"
            )
        compute_t = self.compute.step_time(self.c)
        straggles = self.delays.sample_round(alive, step, self.rng)
        upload_starts = {
            w: start + broadcast + compute_t + float(straggle_t)
            for w, straggle_t in zip(alive, straggles)
        }
        if self.link is not None:
            arrivals = self.link.round_arrivals(
                upload_starts, self.elements
            ).arrivals
        else:
            queue = EventQueue()
            upload_t = self.network.transfer_time(self.elements)
            for w, begun in upload_starts.items():
                queue.push(Event(
                    time=begun + upload_t, kind="gradient_arrival", worker=w
                ))
            arrivals = {ev.worker: ev.time for ev in queue.drain()}
        relative = {w: t - start for w, t in arrivals.items()}
        outcome = policy.wait(relative, step)
        end = start + outcome.proceed_time
        self.clock = end
        wasted = compute_t * sum(
            1 for w in relative if w not in outcome.accepted_workers
        )
        if self.tracer is not None:
            self.tracer.record_round(
                step=step, arrivals=relative, outcome=outcome,
                policy=policy.describe(), step_start=start, step_end=end,
                wasted_compute=wasted,
            )
        return RoundResult(
            arrivals=relative, outcome=outcome, step_start=start,
            step_end=end, wasted_compute=wasted, broadcast_time=broadcast,
        )


def _delay_spec(draw, n):
    amount = st.floats(min_value=0.0, max_value=2.0)
    family = draw(st.sampled_from([
        "none", "exponential", "shifted-exponential", "pareto",
        "bernoulli", "persistent", "mixture", "bursty", "trace-replay",
    ]))
    workers = st.lists(
        st.integers(min_value=0, max_value=n - 1), max_size=n, unique=True
    )
    if family == "none":
        return {"kind": "none"}
    if family == "exponential":
        affected = draw(st.one_of(st.none(), workers))
        return {"kind": "exponential", "mean": draw(amount),
                "affected": affected}
    if family == "shifted-exponential":
        return {"kind": family, "shift": draw(amount), "mean": draw(amount)}
    if family == "pareto":
        return {"kind": "pareto", "alpha": draw(st.floats(0.5, 4.0)),
                "scale": draw(amount)}
    if family == "bernoulli":
        return {"kind": "bernoulli", "probability": draw(st.floats(0, 1)),
                "delay": {"kind": "exponential", "mean": draw(amount)}}
    if family == "persistent":
        return {"kind": "persistent", "stragglers": draw(workers),
                "mean": draw(amount), "background_mean": draw(amount)}
    if family == "mixture":
        return {"kind": "mixture",
                "models": [{"kind": "none"},
                           {"kind": "exponential", "mean": draw(amount)},
                           {"kind": "pareto", "alpha": 2.5, "scale": 0.5}],
                "weights": draw(st.lists(st.floats(0.1, 1.0),
                                         min_size=3, max_size=3))}
    if family == "bursty":
        return {"kind": "bursty",
                "burst": {"kind": "exponential", "mean": draw(amount)},
                "enter_burst": draw(st.floats(0, 1)),
                "exit_burst": draw(st.floats(0, 1))}
    # Replayed delays from a three-value alphabet: ties between some
    # workers but not all.
    row = st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n)
    return {"kind": "trace-replay",
            "delays": draw(st.lists(row, min_size=1, max_size=3))}


def _failure_spec(draw, n):
    dropouts = {"kind": "transient-dropouts",
                "probability": draw(st.floats(0.0, 0.6))}
    crashes = {"kind": "permanent-crashes",
               "crashed_workers": draw(st.lists(
                   st.integers(0, n - 1), max_size=n - 1, unique=True)),
               "at_step": draw(st.integers(0, 3))}
    return draw(st.sampled_from([
        {"kind": "none"},
        dropouts,
        crashes,
        {"kind": "composite", "models": [dropouts, dropouts]},
        {"kind": "composite", "models": [crashes, dropouts]},
    ]))


def _policy(draw, n):
    kind = draw(st.sampled_from(["wait", "best-effort", "deadline", "adaptive"]))
    if kind == "wait":
        return WaitForK(draw(st.integers(1, n)))
    if kind == "best-effort":
        return BestEffortWaitForK(draw(st.integers(1, n + 2)))
    if kind == "deadline":
        return DeadlinePolicy(draw(st.floats(0.01, 5.0)))
    return AdaptiveWaitK(linear_rampup(
        draw(st.integers(1, n)), draw(st.integers(1, n)),
        draw(st.integers(1, 4)),
    ))


@st.composite
def race_scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    contention = draw(st.booleans())
    return {
        "n": n,
        "c": draw(st.integers(1, 3)),
        "compute": ComputeModel(
            draw(st.sampled_from([0.0, 0.05, 0.1])),
            draw(st.sampled_from([0.0, 0.1])),
        ),
        "network": NetworkModel(
            latency=draw(st.sampled_from([0.0, 0.001, 0.25])),
            bandwidth=draw(st.sampled_from([float("inf"), 1e6, 1.25e9])),
        ),
        "delay": _delay_spec(draw, n),
        "failure": _failure_spec(draw, n),
        "capacity": (
            draw(st.sampled_from([1e5, 4e5, 1e7])) if contention else None
        ),
        "policy": _policy(draw, n),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _jsonl_bytes(tracer):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "trace.jsonl"
        tracer.export_jsonl(path)
        return path.read_bytes()


def _play(run_round, policy, rounds):
    """Results (or the raised error) of ``rounds`` consecutive rounds."""
    played = []
    for step in range(rounds):
        try:
            played.append(run_round(step, policy))
        except Exception as exc:  # compared, never swallowed
            played.append((type(exc), str(exc)))
            break
    return played


class TestArrivalRace:
    @settings(max_examples=200, deadline=None)
    @given(scenario=race_scenarios())
    def test_run_round_equals_event_queue_reference(self, scenario):
        """Same results, arrival order, trace bytes and generator end
        state as the event-queue round, across delay, failure and
        contention families and the wait policies."""
        def parts():
            link = (
                None if scenario["capacity"] is None
                else ContendedUploadModel(scenario["capacity"])
            )
            return (
                delay_model_from(scenario["delay"]),
                failure_model_from(scenario["failure"]),
                link,
                np.random.default_rng(scenario["seed"]),
                RoundTracer(scheme="race"),
            )

        delays, failures, link, rng, tracer = parts()
        sim = ClusterSimulator(
            scenario["n"], scenario["c"], compute=scenario["compute"],
            network=scenario["network"], delay_model=delays,
            failure_model=failures, contended_link=link, rng=rng,
            tracer=tracer,
        )
        ref_delays, ref_failures, ref_link, ref_rng, ref_tracer = parts()
        ref = QueueRound(
            scenario["n"], scenario["c"], scenario["compute"],
            scenario["network"], ref_delays, ref_failures, ref_link,
            ref_rng, ref_tracer,
        )
        policy = scenario["policy"]
        got = _play(sim.run_round, policy, 4)
        expected = _play(ref.run_round, policy, 4)
        assert got == expected
        for ours, theirs in zip(got, expected):
            if isinstance(ours, RoundResult):
                assert list(ours.arrivals) == list(theirs.arrivals)
        assert sim.clock == ref.clock
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert _jsonl_bytes(tracer) == _jsonl_bytes(ref_tracer)

    def test_ties_break_by_worker_order(self):
        sim = ClusterSimulator(
            5, 1, network=NetworkModel(latency=0.0, bandwidth=float("inf")),
            rng=np.random.default_rng(0),
        )
        result = sim.run_round(0, WaitForK(3))
        assert list(result.arrivals) == [0, 1, 2, 3, 4]
        assert result.outcome.accepted_workers == frozenset({0, 1, 2})

    def test_race_orders_by_time_then_position(self):
        arrivals = arrival_race(
            [7, 3, 5, 1], 2.0, 0.5, np.array([1.0, 0.5, 1.0, 0.5]),
            [0.0, 0.5, 0.0, 0.0], 0.25,
        )
        # Finish times 3.75, 3.75, 3.75, 3.25: worker 1 first, then the
        # three-way tie in list order.
        assert list(arrivals) == [1, 7, 3, 5]
        assert arrivals[1] == ((2.0 + 0.5 + 0.5) + 0.0) + 0.25 - 2.0
        assert all(type(w) is int for w in arrivals)
        assert all(type(t) is float for t in arrivals.values())

    def test_race_rejects_negative_times(self):
        with pytest.raises(SimulationError, match="negative event time -0.5"):
            arrival_race([0, 1], 0.0, 0.0, 0.0, [1.0, -0.5], 0.0)
