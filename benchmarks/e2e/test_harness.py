"""Self-test of the benchmark harness.

Not part of the tier-1 suite (``testpaths`` is ``tests/``); run it
explicitly after touching anything under ``benchmarks/e2e``::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import itertools
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Spans


def test_self_times_of_nested_and_sibling_spans_sum_to_the_root():
    clock = FakeClock()
    rec = harness.SpanRecorder(clock)
    with rec.span("root") as root:
        clock.advance(1.0)                      # root self
        with rec.span("a"):
            clock.advance(2.0)                  # a self
            with rec.span("a.child"):
                clock.advance(3.0)
            clock.advance(0.5)                  # a self
        with rec.span("b"):                     # sibling of a
            clock.advance(4.0)
        clock.advance(0.25)                     # root self
    selfs = dict(zip((row[0] for row in rec.rows), rec.self_times()))
    assert selfs == {"root": 1.25, "a": 2.5, "a.child": 3.0, "b": 4.0}
    duration = rec.rows[root][2] - rec.rows[root][1]
    assert sum(selfs.values()) == pytest.approx(duration)
    assert [row[3] for row in rec.rows] == [-1, 0, 1, 0]
    totals = rec.totals()
    assert totals["a"] == {"calls": 1, "self_s": 2.5}


def test_spans_closed_out_of_order_are_refused():
    rec = harness.SpanRecorder(FakeClock())
    outer = rec.begin("outer")
    rec.begin("inner")
    with pytest.raises(RuntimeError, match="out of order"):
        rec.end(outer)


def test_wrap_records_counts_and_restores_class_and_instance_attributes():
    class Base:
        def work(self, x):
            return x + 1

    class Child(Base):
        def work(self, x):
            return super().work(x) * 2

    class Quiet(Base):
        pass

    original_base, original_child = Base.__dict__["work"], Child.__dict__["work"]
    seen = []
    rec = harness.SpanRecorder(FakeClock())
    rec.wrap_class_tree(
        Base, "work", lambda self, *_: f"work.{type(self).__name__}",
        after=lambda result, *_: seen.append(result),
    )
    instance = Base()
    rec.wrap(instance, "work", "instance.work")
    assert Child().work(1) == 4 and Quiet().work(1) == 2
    assert instance.work(5) == 6
    # Child.work -> Base.work nests; Quiet inherits the wrapped Base.work.
    names = [row[0] for row in rec.rows]
    assert names == [
        "work.Child", "work.Child", "work.Quiet", "instance.work", "work.Base"
    ]
    assert seen == [2, 4, 2, 6]
    rec.unwrap_all()
    assert Base.__dict__["work"] is original_base
    assert Child.__dict__["work"] is original_child
    assert "work" not in Quiet.__dict__ and "work" not in instance.__dict__


def test_renamed_relabels_only_the_named_span_and_only_inside_the_block():
    rec = harness.SpanRecorder(FakeClock())
    with rec.renamed("core.decode", "core.decode_looped.cr"):
        with rec.span("core.decode"), rec.span("other"):
            pass
    with rec.span("core.decode"):
        pass
    assert [row[0] for row in rec.rows] == [
        "core.decode_looped.cr", "other", "core.decode"
    ]


def test_wrap_generator_spans_each_resumption_not_the_consumer():
    clock = FakeClock()

    class Box:
        def items(self):
            for i in range(2):
                clock.advance(1.0)
                yield i

    rec = harness.SpanRecorder(clock)
    rec.wrap_generator(Box, "items", "box.items")
    for _ in Box().items():
        clock.advance(10.0)  # the consumer's own time
    rec.unwrap_all()
    assert [row[0] for row in rec.rows] == ["box.items"] * 3
    assert sum(rec.self_times()) == pytest.approx(2.0)


def test_install_wraps_are_fully_removed():
    import repro
    import repro.core.scheme
    import repro.engine.spec
    import repro.obs.jsonl
    import repro.serve.runner
    from repro import (
        ClusterSimulator, Decoder, DecodeCache, DelayModel, RoundEngine,
        ServeMailbox, WorkerPool,
    )
    from repro.serve import JobRunner

    watched = [
        (Decoder, "decode"), (Decoder, "decode_batch"),
        (RoundEngine, "run_step"), (RoundEngine, "snapshot"),
        (ClusterSimulator, "run_round"), (DelayModel, "sample_round"),
        (ServeMailbox, "write_checkpoint"), (ServeMailbox, "poll_submissions"),
        (WorkerPool, "acquire"), (JobRunner, "step"),
        (DecodeCache, "get_or_compute"),
        (repro, "build_engine"), (repro.engine.spec, "build_engine"),
        (repro.serve.runner, "build_engine"), (repro, "make_placement"),
        (repro.core.scheme, "make_placement"), (repro, "read_traces"),
        (repro.obs.jsonl, "write_traces"),
    ]
    before = [owner.__dict__[attr] for owner, attr in watched]
    rec = harness.SpanRecorder()
    counts: dict = {}
    layers.install(rec, counts)
    during = [owner.__dict__[attr] for owner, attr in watched]
    assert all(a is not b for a, b in zip(before, during))
    # A wrapped call really records: one placement, one decode.
    decoder = repro.decoder_for(
        repro.make_placement("cr", num_workers=6, partitions_per_worker=2)
    )
    decoder.decode([0, 2, 3])
    assert counts["decodes"] == 1
    assert {"core.make_placement", "core.decode"} <= {r[0] for r in rec.rows}
    rec.unwrap_all()
    after = [owner.__dict__[attr] for owner, attr in watched]
    assert all(a is b for a, b in zip(before, after))
    assert not rec._patches


# ----------------------------------------------------------------------
# Statistics


def test_percentile_rule_refuses_an_unsupported_tail():
    samples = list(range(1, 101))
    assert harness.percentile(samples, 0.5) == 50.5
    assert harness.percentile(samples, 0.90) == 90  # exactly 10 beyond
    with pytest.raises(ValueError, match="fewer than 10 samples"):
        harness.percentile(samples, 0.95)
    with pytest.raises(ValueError, match="fewer than 10 samples"):
        harness.percentile(list(range(99)), 0.90)
    # The median needs no tail.
    assert harness.percentile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_supported_tail_is_the_highest_percentile_with_ten_beyond():
    assert harness.supported_tail(300) == 0.90
    assert harness.supported_tail(100) == 0.90
    assert harness.supported_tail(48) == pytest.approx(1 - 10 / 48)
    assert harness.supported_tail(12) == 0.5  # never below the median
    for n in (24, 27, 48, 300):
        harness.percentile(list(range(n)), harness.supported_tail(n))


def test_quartiles_match_the_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    stats = harness.quartiles(values)
    assert (stats["median"], stats["n"]) == (3.0, 5)
    assert (stats["q1"], stats["q3"]) == (1.5, 4.5)
    assert harness.quartiles([7.0]) == {
        "median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1
    }


def test_slowdown_scales_with_the_probe():
    reference = harness.PROBE_REFERENCE_S
    assert harness.slowdown(reference, reference) == pytest.approx(1.0)
    assert harness.slowdown(reference, 3 * reference) == pytest.approx(2.0)
    assert 0.0 < harness.speed_probe() < 1.0


def test_end_to_end_reports_reference_seconds_beside_raw():
    record = {
        "workload": "train_mix", "rounds": 100, "decodes": 50,
        "walls": [2.0, 2.0, 4.0], "slowdowns": [1.0, 1.0, 2.0],
        "jobs": [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
        "peak_rss_mb": 10.0,
        "setup_samples": [1.0, 3.0], "setup_slowdowns": [1.0, 2.0],
    }
    metrics = run.end_to_end(record)
    # The slow repeat ran on a machine twice as slow: same reference time.
    assert metrics["rounds_per_s"]["value"] == pytest.approx(50.0)
    assert metrics["rounds_per_s"]["q1"] == metrics["rounds_per_s"]["q3"]
    assert metrics["job_turnaround_p50_s"]["value"] == pytest.approx(1.0)
    assert metrics["setup_s"]["value"] == pytest.approx(1.25)
    assert metrics["setup_s"]["raw"] == pytest.approx(2.0)
    assert "raw" not in metrics["peak_rss_mb"]


def test_verdict_reports_unresolved_when_the_spread_exceeds_the_bound():
    meta = {"better": "higher"}
    tight = {"value": 100.0, "median": 100.0, "q1": 99.0, "q3": 101.0}
    loose = {"value": 97.0, "median": 97.0, "q1": 90.0, "q3": 104.0}
    assert run.verdict(meta, tight, {**tight, "value": 98.0}, 0.10)[1] == "unchanged"
    assert run.verdict(meta, tight, loose, 0.10)[1] == "unresolved"
    assert run.verdict(meta, tight, tight, 0.10, calibrated=0.2)[1] == "unresolved"
    worse, word = run.verdict(meta, tight, {**tight, "value": 85.0}, 0.10)
    assert word == "WORSE" and worse == pytest.approx(0.15)
    assert run.verdict({"better": "lower"}, tight, {**tight, "value": 85.0},
                       0.10)[1] == "better"


# ----------------------------------------------------------------------
# Digests, seeds, workloads


def test_digest_is_canonical_and_lossless():
    a = {"x": [0.1 + 0.2, 1], "y": b"bytes", "z": {3, 1, 2}}
    b = {"z": {1, 2, 3}, "y": b"bytes", "x": (0.1 + 0.2, 1)}
    assert harness.digest(a) == harness.digest(b)
    assert harness.digest(a) != harness.digest({**a, "x": [0.3, 1]})


def test_spawned_seeds_are_stable_and_independent():
    first = harness.spawn_seeds(2023, ("specs", "masks"))
    again = harness.spawn_seeds(2023, ("specs", "masks"))
    other = harness.spawn_seeds(7, ("specs", "masks"))
    ints = [harness.seed_int(s[k]) for s in (first, again, other)
            for k in ("specs", "masks")]
    assert ints[0:2] == ints[2:4] and ints[0:2] != ints[4:6]
    assert ints[0] != ints[1]


def _small_workloads():
    import workloads

    class SmallDecode(workloads.DecodeMC):
        BATCH, LOOPED, DISTINCT, ORACLE_SAMPLE = 120, 40, 10, 20

    class SmallTrain(workloads.TrainMix):
        ROUNDS, ASYNC_UPDATES = 4, 40

    class SmallEnv(workloads.StepTimeEnv):
        NUM_STEPS, ENV_ROUNDS = 6, 10

    return SmallDecode(), SmallTrain(), SmallEnv()


@pytest.mark.parametrize("index", range(3))
def test_result_digest_is_stable_per_seed_and_changes_with_it(index, tmp_path):
    import worker

    workload = _small_workloads()[index]

    def one(seed: int, sub: str):
        inputs = worker.fresh_inputs(workload, seed, tmp_path / sub)
        outputs = workload.run(inputs, tmp_path / sub)
        ops, failures = workload.check(inputs, outputs, tmp_path / sub)
        assert ops > 0 and failures == []
        return harness.digest(workload.digest_payload(inputs, outputs))

    assert one(2023, "a") == one(2023, "b")
    assert one(2023, "c") != one(7, "d")


def test_exact_mis_oracle_agrees_with_brute_force():
    from workloads import exact_mis_size

    # A 7-cycle with one chord, as bitsets.
    edges = [(i, (i + 1) % 7) for i in range(7)] + [(0, 3)]
    adjacency = [0] * 7
    for u, v in edges:
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    for mask in range(1, 1 << 7):
        members = [v for v in range(7) if mask >> v & 1]
        best = max(
            len(combo)
            for size in range(len(members) + 1)
            for combo in itertools.combinations(members, size)
            if all(not adjacency[u] >> v & 1
                   for u, v in itertools.combinations(combo, 2))
        )
        assert exact_mis_size(tuple(adjacency), mask) == best


# ----------------------------------------------------------------------
# The command and BENCHMARK.json


def test_workload_filtering():
    assert run.select_workloads(None) == list(run.WORKLOAD_NAMES)
    assert run.select_workloads("sweep_grid, train_mix") == [
        "train_mix", "sweep_grid"
    ]
    with pytest.raises(ValueError, match="unknown workload.*nope"):
        run.select_workloads("train_mix,nope")


def test_names_units_and_counts_fit_the_contract():
    spec = run.benchmark_json()
    end_to_end, per_layer = spec["end_to_end"], spec["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    assert len(per_layer) == 2 * len(layers.SPANS) + 6 + 15 + 6 == 115
    names = [m["name"] for m in end_to_end + per_layer]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in end_to_end + per_layer)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in end_to_end) <= 0.25
    assert 2 <= len(spec["workloads"]) <= 8


def test_committed_benchmark_json_is_what_the_code_defines():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == run.benchmark_json()
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }


def test_single_run_prints_the_contract_json(tmp_path):
    """One real traced run of the cheapest workload, end to end."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "decode_mc",
         "--seed", "5", "--seconds", "1", "--trace", "1",
         "--workdir", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    assert "machine:" in done.stdout.splitlines()[0]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in layers.per_layer_catalog()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["core.decodes"] == 29400
    assert metrics["training.compute_partitions.calls"] == 0
    assert metrics["harness.unattributed_share"] <= 0.15
    assert not list(tmp_path.iterdir())  # the scratch directory is emptied


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "train_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
