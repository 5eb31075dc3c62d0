"""Tests for :mod:`repro.serve` — the asyncio multi-job coordinator.

The load-bearing property: *any* interleaving of N concurrent jobs is bit-for-bit identical to N sequential
``repro run`` invocations — trajectories AND streamed JSONL traces.
Hypothesis drives adversarial schedulers and weight assignments at it.
"""

import asyncio
import dataclasses
import json
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Coordinator,
    CoordinatorClient,
    ExperimentSpec,
    JobFailedError,
    RunReport,
    ServeMailbox,
    aggregate_traces,
    read_traces,
    run_jobs,
    run_spec,
)
from repro.exceptions import AdmissionError, ServeError
from repro.serve import (
    FairScheduler,
    JobCancelledError,
    JobState,
    RandomOrderScheduler,
)
from repro.serve.jobs import Job

SCHEMES = ("is-gc-cr", "is-gc-fr", "gc", "sync-sgd")


def make_spec(i, max_steps=6):
    return ExperimentSpec(
        name=f"serve-test-{i}",
        scheme=SCHEMES[i % len(SCHEMES)],
        num_workers=4,
        partitions_per_worker=2,
        wait_for=3,
        max_steps=max_steps,
        seed=100 + i,
    )


def sequential_reports(specs, trace_dir=None):
    """The ground truth: each spec run alone, one at a time."""
    reports = []
    for i, spec in enumerate(specs):
        sub_dir = None
        if trace_dir is not None:
            sub_dir = pathlib.Path(trace_dir) / f"solo-{i}"
        reports.extend(run_jobs([spec], trace_dir=sub_dir))
    return reports


def strip_trace(report):
    """Report payload minus the (path-dependent) trace location."""
    payload = report.to_dict()
    payload.pop("trace_path", None)
    return payload


# ----------------------------------------------------------------------
# Determinism: interleaved == sequential


class TestDeterminism:
    def test_concurrent_equals_sequential(self):
        specs = [make_spec(i) for i in range(4)]
        concurrent = run_jobs(specs, max_running=4)
        solo = sequential_reports(specs)
        assert [r.to_dict() for r in concurrent] == [
            r.to_dict() for r in solo
        ]

    def test_concurrent_equals_run_spec(self):
        spec = make_spec(0)
        (report,) = run_jobs([spec])
        summary = run_spec(spec)
        assert report.num_steps == summary.num_steps
        assert report.final_loss == summary.final_loss
        assert report.total_sim_time == summary.total_sim_time
        assert report.loss_curve == tuple(summary.loss_curve)

    def test_eight_jobs_bit_for_bit_with_traces(self, tmp_path):
        specs = [make_spec(i) for i in range(8)]
        concurrent_dir = tmp_path / "concurrent"
        concurrent = run_jobs(
            specs, max_running=4, trace_dir=concurrent_dir
        )
        solo = sequential_reports(specs, trace_dir=tmp_path / "solo")
        assert [strip_trace(r) for r in concurrent] == [
            strip_trace(r) for r in solo
        ]
        for conc, seq in zip(concurrent, solo):
            conc_trace = pathlib.Path(conc.trace_path).read_bytes()
            seq_trace = pathlib.Path(seq.trace_path).read_bytes()
            assert conc_trace == seq_trace
            # The streamed trace lost nothing: it re-reads to the
            # report's rounds and clocks, and re-aggregates to one
            # scheme label covering every round.
            traces = read_traces(conc.trace_path)
            assert [t.step for t in traces] == list(range(conc.num_steps))
            assert [t.step_end for t in traces] == list(conc.time_curve)
            (aggregate,) = aggregate_traces(traces).values()
            assert aggregate.rounds == conc.num_steps

    def test_adversarial_interleaving(self):
        specs = [make_spec(i) for i in range(4)]
        baseline = [r.to_dict() for r in sequential_reports(specs)]
        for seed in range(3):
            shuffled = run_jobs(
                specs,
                max_running=4,
                scheduler=RandomOrderScheduler(seed),
            )
            assert [r.to_dict() for r in shuffled] == baseline

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        weights=st.lists(st.integers(1, 5), min_size=3, max_size=3),
        max_running=st.integers(1, 3),
    )
    def test_any_interleaving_equals_sequential(
        self, seed, weights, max_running
    ):
        specs = [make_spec(i, max_steps=4) for i in range(3)]
        interleaved = run_jobs(
            specs,
            max_running=max_running,
            weights=weights,
            scheduler=RandomOrderScheduler(seed),
        )
        solo = sequential_reports(specs)
        assert [r.to_dict() for r in interleaved] == [
            r.to_dict() for r in solo
        ]


# ----------------------------------------------------------------------
# Scheduling: fairness and starvation-freedom


def _fake_jobs(weights):
    return [
        Job(
            job_id=f"fake-{i}",
            name=f"fake-{i}",
            spec=None,
            weight=w,
            seq=i,
        )
        for i, w in enumerate(weights)
    ]


class TestScheduling:
    def test_swrr_fairness_bound(self):
        # Over any window of Q quanta a job with weight w_i receives
        # Q * w_i / sum(w) quanta to within one.
        weights = [1, 2, 5]
        jobs = _fake_jobs(weights)
        scheduler = FairScheduler()
        quanta = 400
        counts = {job.job_id: 0 for job in jobs}
        for _ in range(quanta):
            counts[scheduler.pick(jobs).job_id] += 1
        total = sum(weights)
        for job, w in zip(jobs, weights):
            expected = quanta * w / total
            assert abs(counts[job.job_id] - expected) <= 1

    def test_swrr_no_starvation(self):
        # Even a weight-1 job among heavyweights runs regularly: the
        # gap between its quanta is bounded (no starvation).
        jobs = _fake_jobs([1, 10, 10])
        scheduler = FairScheduler()
        last_seen = 0
        max_gap = 0
        for tick in range(1, 301):
            if scheduler.pick(jobs).job_id == "fake-0" :
                max_gap = max(max_gap, tick - last_seen)
                last_seen = tick
        assert last_seen > 0, "weight-1 job never ran"
        assert max_gap <= 21  # one full cycle of sum(weights)

    def test_schedule_is_deterministic(self):
        picks = []
        for _ in range(2):
            jobs = _fake_jobs([3, 1, 2])
            scheduler = FairScheduler()
            picks.append(
                [scheduler.pick(jobs).job_id for _ in range(50)]
            )
        assert picks[0] == picks[1]


# ----------------------------------------------------------------------
# Lifecycle: admission, cancellation, failure isolation


class TestLifecycle:
    def test_admission_rejects_beyond_queue_limit(self):
        with Coordinator(queue_limit=2) as coord:
            coord.submit(make_spec(0))
            coord.submit(make_spec(1))
            with pytest.raises(ServeError, match="queue limit"):
                coord.submit(make_spec(2))

    def test_duplicate_job_id_rejected(self):
        with Coordinator() as coord:
            coord.submit(make_spec(0), job_id="twin")
            with pytest.raises(ServeError, match="duplicate"):
                coord.submit(make_spec(1), job_id="twin")

    def test_invalid_weight_rejected(self):
        with Coordinator() as coord:
            with pytest.raises(ServeError, match="weight"):
                coord.submit(make_spec(0), weight=0)

    def test_closed_coordinator_rejects(self):
        coord = Coordinator()
        coord.close()
        with pytest.raises(ServeError, match="closed"):
            coord.submit(make_spec(0))

    def test_cancel_queued_job(self):
        async def scenario():
            coord = Coordinator()
            handle = coord.submit(make_spec(0))
            assert handle.cancel() is True
            assert handle.state is JobState.CANCELLED
            assert handle.cancel() is False  # already terminal
            with pytest.raises(JobCancelledError):
                await handle.result()

        asyncio.run(scenario())

    def test_cancel_running_job_at_round_boundary(self):
        async def scenario():
            coord = Coordinator(max_running=2)
            victim = coord.submit(make_spec(0, max_steps=50))
            peer = coord.submit(make_spec(1))
            drain = asyncio.ensure_future(coord.drain())
            rounds = 0
            async for event in victim.watch():
                if event.kind == "round":
                    rounds += 1
                    if rounds == 2:
                        victim.cancel()
            await drain
            assert victim.state is JobState.CANCELLED
            # cancellation lands on a round boundary, not mid-round
            assert 2 <= victim._job.rounds_done < 50
            assert peer.state is JobState.DONE
            return peer

        peer = asyncio.run(scenario())
        # the surviving peer's result is unaffected by the cancellation
        (solo,) = run_jobs([make_spec(1)])
        assert peer.report.to_dict() == solo.to_dict()

    def test_each_terminal_state_frees_one_admission_slot(self):
        # DONE, FAILED, CANCELLED-while-queued and CANCELLED-while-
        # running each release exactly one ``queue_limit`` slot, and the
        # listing keeps every job, terminal or not, in submission order.
        fillers = iter(range(10, 20))

        def refill(coord, admitted):
            """Submit short jobs until admission refuses; how many fit."""
            before = len(admitted)
            while True:
                i = next(fillers)
                try:
                    coord.submit(make_spec(i, max_steps=1), job_id=f"f{i}")
                except AdmissionError:
                    return len(admitted) - before
                admitted.append(f"f{i}")

        async def scenario():
            coord = Coordinator(max_running=1, queue_limit=4)
            done = coord.submit(make_spec(0, max_steps=2), job_id="z-done")
            failed = coord.submit(
                dataclasses.replace(make_spec(1), scheme="nope"),
                job_id="y-failed",
            )
            running = coord.submit(
                make_spec(2, max_steps=50), job_id="x-running"
            )
            queued = coord.submit(make_spec(3), job_id="w-queued")
            admitted = [done.job_id, failed.job_id, running.job_id,
                        queued.job_id]
            assert refill(coord, admitted) == 0

            assert queued.cancel() and queued.state is JobState.CANCELLED
            assert refill(coord, admitted) == 1

            drain = asyncio.ensure_future(coord.drain())
            await done.result()
            assert refill(coord, admitted) == 1

            with pytest.raises(JobFailedError):
                await failed.result()
            assert refill(coord, admitted) == 1

            async for event in running.watch():
                if event.kind == "round" and not running._job.cancel_requested:
                    assert running.state is JobState.RUNNING
                    running.cancel()
            with pytest.raises(JobCancelledError):
                await running.result()
            assert refill(coord, admitted) == 1

            await drain
            with coord:
                return coord.jobs(), admitted

        listing, admitted = asyncio.run(scenario())
        assert [job["id"] for job in listing] == admitted
        assert [job["state"] for job in listing[:4]] == [
            "done", "failed", "cancelled", "cancelled",
        ]
        assert all(job["state"] == "done" for job in listing[4:])

    def test_failed_job_is_isolated(self):
        bad_names = [
            {"scheme": "nope"},
            {"backend": "warp-drive"},
            # Not even strings: what a hand-written JSON payload can
            # hold.  Must fail as ConfigurationError, not a raw
            # TypeError from a dict lookup.
            {"scheme": ["is-gc"]},
            {"backend": ["flat"]},
            {"backend": {"kind": "flat"}},
        ]

        async def scenario():
            coord = Coordinator(max_running=2)
            bad_spec = ExperimentSpec(
                name="bad",
                scheme="nope",
                num_workers=4,
                partitions_per_worker=2,
                wait_for=3,
                max_steps=4,
            )
            bad = coord.submit(bad_spec)
            others = [
                coord.submit(dataclasses.replace(make_spec(0), **names))
                for names in bad_names
            ]
            good = coord.submit(make_spec(1))
            await coord.drain()
            assert bad.state is JobState.FAILED
            assert "nope" in bad.error
            with pytest.raises(JobFailedError, match="nope"):
                await bad.result()
            for handle, names in zip(others, bad_names):
                (name,) = names.values()
                assert handle.state is JobState.FAILED
                assert "ConfigurationError" in handle.error
                assert repr(name) in handle.error
            assert good.state is JobState.DONE
            return good

        good = asyncio.run(scenario())
        (solo,) = run_jobs([make_spec(1)])
        assert good.report.to_dict() == solo.to_dict()

    def test_out_of_range_rule_params_fail_only_their_job(self):
        bad_params = [
            ("adaptive", {"review_every": 0}),
            ("adaptive", {"min_recovery_gain": 7.0}),
            ("local-update", {"local_steps": 0}),
            ("local-update", {"local_lr": -1.0}),
        ]

        async def scenario():
            coord = Coordinator(max_running=2)
            bad = [
                coord.submit(dataclasses.replace(
                    make_spec(0), rule=rule, rule_params=params
                ))
                for rule, params in bad_params
            ]
            good = coord.submit(make_spec(1))
            await coord.drain()
            for handle, (_, params) in zip(bad, bad_params):
                (key,) = params
                assert handle.state is JobState.FAILED
                assert "TrainingError" in handle.error
                assert key in handle.error
            assert good.state is JobState.DONE
            return good

        good = asyncio.run(scenario())
        (solo,) = run_jobs([make_spec(1)])
        assert good.report.to_dict() == solo.to_dict()

    def test_misspelt_scheme_params_and_bad_sections_fail_only_their_job(
        self,
    ):
        bad_fields = [
            ({"scheme_params": {"polcy": None}},
             "unknown scheme_params for scheme 'is-gc-cr': "
             "'polcy' — did you mean 'policy'?"),
            # Admission checks the environment sections; the dataset and
            # model kinds are resolved only when the job builds.
            ({"dataset": {"kind": "mnist"}}, "unknown dataset kind 'mnist'"),
            ({"model": {"kind": "resnet"}}, "unknown model kind 'resnet'"),
        ]
        by_name = dataclasses.replace(make_spec(0), delay="none")

        async def scenario():
            coord = Coordinator(max_running=2)
            bad = [
                coord.submit(dataclasses.replace(make_spec(0), **fields))
                for fields, _ in bad_fields
            ]
            named = coord.submit(by_name)
            good = coord.submit(make_spec(1))
            await coord.drain()
            for handle, (_, message) in zip(bad, bad_fields):
                assert handle.state is JobState.FAILED
                assert "ConfigurationError" in handle.error
                assert message in handle.error
            assert named.state is JobState.DONE
            assert good.state is JobState.DONE
            return named, good

        named, good = asyncio.run(scenario())
        solo_named, solo = run_jobs([by_name, make_spec(1)])
        # A section given as a kind string serves like any other spec,
        # and the failures never touched their peers.
        assert named.report.to_dict() == solo_named.to_dict()
        assert good.report.to_dict() == solo.to_dict()

    def test_run_jobs_raises_on_failed_job(self):
        bad = ExperimentSpec(
            name="bad", scheme="nope", num_workers=4,
            partitions_per_worker=2, wait_for=3,
        )
        with pytest.raises(JobFailedError):
            run_jobs([bad])

    def test_watch_streams_state_and_round_events(self):
        async def scenario():
            coord = Coordinator()
            handle = coord.submit(make_spec(0))
            events = []

            async def watcher():
                async for event in handle.watch():
                    events.append(event)

            task = asyncio.ensure_future(watcher())
            await asyncio.sleep(0)  # let the watcher attach first
            await coord.drain()
            await task
            return handle, events

        handle, events = asyncio.run(scenario())
        kinds = {event.kind for event in events}
        assert kinds == {"state", "round"}
        assert events[-1].state == "done"
        rounds = [e for e in events if e.kind == "round"]
        assert len(rounds) == handle.report.num_steps
        # round events carry the job's simulated clock, never wall time
        assert rounds[-1].sim_time == handle.report.total_sim_time

    def test_jobs_snapshot_listing(self):
        specs = [make_spec(i) for i in range(2)]
        coord = Coordinator()
        with coord:
            for spec in specs:
                coord.submit(spec)
            asyncio.run(coord.drain())
            snapshots = coord.jobs()
        assert [s["state"] for s in snapshots] == ["done", "done"]
        assert [s["id"] for s in snapshots] == ["job-0000", "job-0001"]
        for snapshot, spec in zip(snapshots, specs):
            assert snapshot["spec_fingerprint"] == spec.fingerprint()

    def test_bad_mode_rejected(self):
        # Quanta always run inline; "deterministic" is the one name.
        for mode in ("turbo", "live"):
            with pytest.raises(ServeError, match="mode"):
                Coordinator(mode=mode)
        Coordinator(mode="deterministic").close()


# ----------------------------------------------------------------------
# Mailbox protocol: CLI-side client against a serving coordinator


def serve_once(mailbox_root, **kwargs):
    coord = Coordinator(**kwargs)
    mailbox = ServeMailbox(mailbox_root)
    with coord:
        asyncio.run(coord.serve(mailbox, once=True))
    return coord


class TestMailbox:
    def test_cancel_and_submission_reach_a_running_job(self, tmp_path):
        # The coordinator polls the mailbox at every round boundary, so
        # a client's cancel stops a running job within a round and a
        # submission made mid-run is admitted and served.
        root = tmp_path / "mbox"
        client = CoordinatorClient(root)
        client.submit(make_spec(0, max_steps=400), job_id="long")
        coord = Coordinator(max_running=2)

        async def watch():
            while True:
                try:
                    handle = coord.handle("long")
                    break
                except ServeError:
                    await asyncio.sleep(0)
            async for event in handle.watch():
                if event.kind == "round" and event.step == 5:
                    client.cancel("long")
                    client.submit(make_spec(1, max_steps=3), job_id="short")

        async def main():
            watcher = asyncio.ensure_future(watch())
            await coord.serve(ServeMailbox(root), once=True)
            await watcher

        with coord:
            asyncio.run(main())
        long = client.state("long")
        assert long["state"] == "cancelled"
        assert long["rounds_done"] <= 6
        assert client.state("short")["state"] == "done"

    def test_submit_serve_roundtrip(self, tmp_path):
        root = tmp_path / "mbox"
        client = CoordinatorClient(root)
        job_id = client.submit(make_spec(0), job_id="rt-1")
        assert client.state(job_id)["state"] == "submitted"
        serve_once(root)
        snapshot = client.state(job_id)
        assert snapshot["state"] == "done"
        report = RunReport.from_dict(snapshot["report"])
        (solo,) = run_jobs([make_spec(0)])
        assert report.to_dict() == solo.to_dict()

    def test_malformed_submission_rejected_with_hint(self, tmp_path):
        root = tmp_path / "mbox"
        client = CoordinatorClient(root)
        payload = make_spec(0).to_dict()
        payload["wiat_for"] = payload.pop("wait_for")
        (root / "inbox" / "typo.json").write_text(
            json.dumps({"spec": payload})
        )
        serve_once(root)
        snapshot = client.state("typo")
        assert snapshot["state"] == "rejected"
        assert "wait_for" in snapshot["error"]  # did-you-mean hint

    @pytest.mark.parametrize("broken", [
        pytest.param(
            lambda spec: {k: v for k, v in spec.items() if k != "name"},
            id="no-name",
        ),
        pytest.param(
            lambda spec: {k: v for k, v in spec.items() if k != "scheme"},
            id="no-scheme",
        ),
        pytest.param(
            lambda spec: {**spec, "num_workers": "4"}, id="str-num-workers"
        ),
        pytest.param(lambda spec: 5, id="spec-not-a-mapping"),
        # These two used to be admitted and then kill build_engine with
        # NumPy's raw "expected non-negative integer".
        pytest.param(lambda spec: {**spec, "seed": -1}, id="negative-seed"),
        pytest.param(lambda spec: {**spec, "seed": 1.5}, id="float-seed"),
        pytest.param(
            lambda spec: {
                **spec, "dataset": {**spec["dataset"], "batch_size": 0}
            },
            id="zero-batch-size",
        ),
        # These three used to be admitted and then fail their job when
        # it was built.
        pytest.param(lambda spec: {**spec, "wait_for": 99}, id="wait-for-99"),
        pytest.param(
            lambda spec: {
                **spec, "scheme": "is-gc-cr", "partitions_per_worker": 4,
            },
            id="cr-c-equals-n",
        ),
        pytest.param(
            lambda spec: {
                **spec, "scheme": "sync-sgd", "wait_for": None,
                "rule": "async",
                "failure": {"kind": "transient-dropouts", "probability": 0.1},
            },
            id="async-with-failure",
        ),
    ])
    def test_unconstructible_spec_rejected_not_crashing(
        self, tmp_path, broken
    ):
        # A missing required field used to raise a bare TypeError out
        # of poll_submissions: the coordinator died with the file still
        # in inbox/, so every restart died on it again.
        root = tmp_path / "mbox"
        client = CoordinatorClient(root)
        payload = broken(make_spec(0).to_dict())
        (root / "inbox" / "broken.json").write_text(
            json.dumps({"spec": payload})
        )
        good = client.submit(make_spec(1))
        serve_once(root)
        snapshot = client.state("broken")
        assert snapshot["state"] == "rejected"
        assert snapshot["reason"] == "invalid_submission"
        assert not (root / "inbox" / "broken.json").exists()
        assert client.state(good)["state"] == "done"

    def test_float_wait_for_is_rejected_at_admission(self, tmp_path):
        # Used to be admitted and then fail the job inside the engine
        # ("slice indices must be integers").
        root = tmp_path / "mbox"
        client = CoordinatorClient(root)
        payload = {**make_spec(0).to_dict(), "wait_for": 2.0}
        (root / "inbox" / "float.json").write_text(
            json.dumps({"spec": payload})
        )
        serve_once(root)
        snapshot = client.state("float")
        assert snapshot["state"] == "rejected"
        assert snapshot["reason"] == "invalid_submission"
        assert snapshot["error"] == (
            "wait_for must be a positive integer, got 2.0"
        )
        assert (root / "rejected" / "float.json").exists()

    def test_missing_spec_field_is_named_in_the_rejection(self, tmp_path):
        root = tmp_path / "mbox"
        client = CoordinatorClient(root)
        payload = make_spec(0).to_dict()
        del payload["name"]
        (root / "inbox" / "anon.json").write_text(
            json.dumps({"spec": payload})
        )
        serve_once(root)
        assert client.state("anon")["error"] == "missing spec field: name"

    def test_bad_seed_is_named_in_the_rejection(self, tmp_path):
        root = tmp_path / "mbox"
        client = CoordinatorClient(root)
        payload = {**make_spec(0).to_dict(), "seed": -1}
        (root / "inbox" / "neg.json").write_text(
            json.dumps({"spec": payload})
        )
        serve_once(root)
        assert client.state("neg")["error"] == (
            "seed must be an integer >= 0, got -1"
        )

    def test_misspelt_rule_param_rejected_before_admission(self, tmp_path):
        root = tmp_path / "mbox"
        client = CoordinatorClient(root)
        payload = make_spec(0).to_dict()
        payload.update(rule="local-update", rule_params={"local_stepz": 3})
        (root / "inbox" / "typo.json").write_text(
            json.dumps({"spec": payload})
        )
        good = client.submit(make_spec(1))
        serve_once(root)
        snapshot = client.state("typo")
        assert snapshot["state"] == "rejected"
        assert "did you mean 'local_steps'" in snapshot["error"]
        assert client.state(good)["state"] == "done"

    def test_mailbox_cancel(self, tmp_path):
        root = tmp_path / "mbox"
        client = CoordinatorClient(root)
        job_id = client.submit(make_spec(0))
        client.cancel(job_id)
        serve_once(root)
        assert client.state(job_id)["state"] == "cancelled"

    def test_overflow_submission_rejected(self, tmp_path):
        root = tmp_path / "mbox"
        client = CoordinatorClient(root)
        ids = [client.submit(make_spec(i)) for i in range(3)]
        serve_once(root, queue_limit=2)
        states = [client.state(job_id)["state"] for job_id in ids]
        assert sorted(states) == ["done", "done", "rejected"]

    def test_client_jobs_listing(self, tmp_path):
        root = tmp_path / "mbox"
        client = CoordinatorClient(root)
        client.submit(make_spec(0), job_id="a")
        client.submit(make_spec(1), job_id="b")
        serve_once(root)
        listing = client.jobs()
        assert [j["id"] for j in listing] == ["a", "b"]
        assert all(j["state"] == "done" for j in listing)

    def test_wait_times_out_without_coordinator(self, tmp_path):
        client = CoordinatorClient(tmp_path / "mbox")
        job_id = client.submit(make_spec(0))
        with pytest.raises(ServeError, match="timed out"):
            client.wait(job_id, timeout=0.05, poll_interval=0.01)

    def test_serving_marker_lifecycle(self, tmp_path):
        root = tmp_path / "mbox"
        client = CoordinatorClient(root)
        assert client.serving() is None
        client.submit(make_spec(0))
        serve_once(root, max_running=2)
        # retired after serve() returns
        assert client.serving() is None

    def test_duplicate_client_job_id_rejected(self, tmp_path):
        client = CoordinatorClient(tmp_path / "mbox")
        client.submit(make_spec(0), job_id="same")
        with pytest.raises(ServeError, match="duplicate"):
            client.submit(make_spec(1), job_id="same")


# ----------------------------------------------------------------------
# Spec files as the submission API


class TestSpecFiles:
    def test_json_roundtrip_preserves_fingerprint(self, tmp_path):
        spec = make_spec(0)
        path = spec.to_file(tmp_path / "spec.json")
        loaded = ExperimentSpec.from_file(path)
        assert loaded == spec
        assert loaded.fingerprint() == spec.fingerprint()

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="tomllib is Python >= 3.11"
    )
    def test_toml_roundtrip(self, tmp_path):
        spec = make_spec(1)
        path = spec.to_file(tmp_path / "spec.toml")
        loaded = ExperimentSpec.from_file(path)
        assert loaded == spec

    def test_unknown_field_gets_did_you_mean(self, tmp_path):
        payload = make_spec(0).to_dict()
        payload["wiat_for"] = payload.pop("wait_for")
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(Exception, match="wait_for"):
            ExperimentSpec.from_file(path)

    def test_submit_spec_by_path(self, tmp_path):
        spec = make_spec(0)
        path = spec.to_file(tmp_path / "spec.json")
        (from_path,) = run_jobs([path])
        (from_spec,) = run_jobs([spec])
        assert from_path.to_dict() == from_spec.to_dict()


# ----------------------------------------------------------------------
# RunReport as the shared result payload


class TestRunReport:
    def test_json_roundtrip_is_lossless(self):
        (report,) = run_jobs([make_spec(0)])
        assert RunReport.from_json(report.to_json()) == report

    def test_report_carries_spec_identity(self):
        spec = make_spec(0)
        (report,) = run_jobs([spec])
        assert report.name == spec.name
        assert report.scheme == spec.scheme
        assert report.spec_fingerprint == spec.fingerprint()

    def test_actor_job_streams_its_trace(self, tmp_path):
        """The actor backend rounds through the cluster simulator, so
        a traced coordinator runs actor jobs like flat ones."""
        spec = dataclasses.replace(make_spec(0), backend="actor")

        async def scenario():
            coord = Coordinator(trace_dir=tmp_path)
            handle = coord.submit(spec)
            await coord.drain()
            assert handle.state is JobState.DONE
            return await handle.result()

        report = asyncio.run(scenario())
        lines = pathlib.Path(report.trace_path).read_text().splitlines()
        assert len(lines) == report.num_steps == spec.max_steps
        assert [json.loads(line)["step"] for line in lines] == list(
            range(spec.max_steps)
        )

    def test_trace_report_points_at_stream(self, tmp_path):
        (report,) = run_jobs([make_spec(0)], trace_dir=tmp_path)
        trace = pathlib.Path(report.trace_path)
        assert trace.exists()
        lines = trace.read_text().splitlines()
        assert len(lines) == report.num_steps
        first = json.loads(lines[0])
        assert first["step"] == 0
