"""Unit tests for the observability layer (repro.obs)."""

import json
import os
import stat

import numpy as np
import pytest

from repro.exceptions import ObservabilityError
from repro.obs import (
    TRACE_SCHEMA_VERSION,
    RoundTrace,
    RoundTracer,
    SchemeAggregate,
    TraceStreamWriter,
    aggregate_traces,
    read_traces,
    truncate_traces,
    write_traces,
)
from repro.simulation.policies import WaitOutcome


# ----------------------------------------------------------------------
# RoundTrace events
# ----------------------------------------------------------------------
def _trace(**overrides):
    base = dict(
        step=3,
        scheme="is-gc(w=4)",
        step_start=10.0,
        step_end=12.5,
        arrivals={0: 0.5, 1: 2.5, 2: 0.75},
        accepted_workers=(0, 2),
        policy="wait-for-k(k=2)",
        proceed_time=0.75,
        wasted_compute=0.3,
    )
    base.update(overrides)
    return RoundTrace(**base)


class TestRoundTrace:
    def test_derived_properties(self):
        t = _trace()
        assert t.step_time == pytest.approx(2.5)
        assert t.num_arrived == 3
        assert t.num_accepted == 2
        assert t.recovery_fraction is None

    def test_with_decode_sets_recovery(self):
        t = _trace().with_decode(
            decoder_scheme="cr", num_searches=2,
            num_recovered=6, num_partitions=8,
        )
        assert t.recovery_fraction == pytest.approx(0.75)
        assert t.decoder_scheme == "cr"

    def test_with_decode_validation(self):
        with pytest.raises(ObservabilityError):
            _trace().with_decode("cr", 1, 9, 8)
        with pytest.raises(ObservabilityError):
            _trace().with_decode("cr", 1, 1, 0)

    def test_invalid_times_rejected(self):
        with pytest.raises(ObservabilityError):
            _trace(step_end=9.0)
        with pytest.raises(ObservabilityError):
            _trace(step=-1)

    def test_dict_round_trip_identity(self):
        t = _trace().with_decode("cr", 2, 6, 8)
        assert RoundTrace.from_dict(t.to_dict()) == t

    def test_dict_round_trip_restores_int_keys(self):
        restored = RoundTrace.from_dict(_trace().to_dict())
        assert set(restored.arrivals) == {0, 1, 2}

    def test_schema_version_enforced(self):
        payload = _trace().to_dict()
        payload["v"] = TRACE_SCHEMA_VERSION + 1
        with pytest.raises(ObservabilityError):
            RoundTrace.from_dict(payload)

    def test_malformed_payload_rejected(self):
        payload = _trace().to_dict()
        del payload["arrivals"]
        with pytest.raises(ObservabilityError):
            RoundTrace.from_dict(payload)


# ----------------------------------------------------------------------
# RoundTracer
# ----------------------------------------------------------------------
def _record(tracer, step=0, accepted=(0, 2), proceed=0.75):
    return tracer.record_round(
        step=step,
        arrivals={0: 0.5, 1: 2.5, 2: 0.75},
        outcome=WaitOutcome(frozenset(accepted), proceed),
        policy="wait-for-k(k=2)",
        step_start=float(step),
        step_end=float(step) + proceed,
        wasted_compute=0.3,
    )


class TestRoundTracer:
    def test_record_round_collects_traces(self):
        tracer = RoundTracer(scheme="gc")
        _record(tracer, step=0)
        _record(tracer, step=1)
        assert len(tracer) == 2
        assert all(t.scheme == "gc" for t in tracer.traces)
        assert [t.step for t in tracer.traces] == [0, 1]

    def test_record_decode_enriches_matching_round(self):
        tracer = RoundTracer(scheme="is-gc")
        _record(tracer, step=5)
        enriched = tracer.record_decode(
            5, decoder_scheme="cr", num_searches=3,
            num_recovered=4, num_partitions=8,
        )
        assert enriched.recovery_fraction == pytest.approx(0.5)
        assert tracer.traces[0].num_searches == 3

    def test_record_decode_without_round_raises(self):
        with pytest.raises(ObservabilityError):
            RoundTracer().record_decode(0, "cr", 1, 1, 2)

    def test_decode_respects_scheme_context(self):
        tracer = RoundTracer(scheme="a")
        _record(tracer, step=0)
        tracer.set_context(scheme="b")
        _record(tracer, step=0)
        tracer.record_decode(0, "cr", 1, 2, 4)
        assert tracer.traces[0].num_recovered is None
        assert tracer.traces[1].num_recovered == 2

    def test_clear_drops_traces(self):
        tracer = RoundTracer()
        _record(tracer)
        tracer.clear()
        assert len(tracer) == 0
        with pytest.raises(ObservabilityError):
            tracer.record_decode(0, "cr", 1, 1, 2)


# ----------------------------------------------------------------------
# JSONL persistence
# ----------------------------------------------------------------------
class TestJsonl:
    def test_write_read_round_trip(self, tmp_path):
        traces = [_trace(step=i) for i in range(5)]
        path = tmp_path / "run.jsonl"
        assert write_traces(path, traces) == 5
        assert read_traces(path) == traces

    def test_export_jsonl_from_tracer(self, tmp_path):
        tracer = RoundTracer(scheme="x")
        _record(tracer, step=0)
        path = tmp_path / "t.jsonl"
        assert tracer.export_jsonl(path) == 1
        assert read_traces(path) == tracer.traces

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        body = json.dumps(_trace().to_dict())
        path.write_text(f"\n{body}\n\n{body}\n")
        assert len(read_traces(path)) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ObservabilityError):
            read_traces(tmp_path / "nope.jsonl")

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(_trace().to_dict()) + "\n{oops\n")
        with pytest.raises(ObservabilityError, match=r"bad\.jsonl:2"):
            read_traces(path)

    def test_bad_schema_reports_line(self, tmp_path):
        payload = _trace().to_dict()
        payload["v"] = 99
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(ObservabilityError, match=r"old\.jsonl:1"):
            read_traces(path)


def _stream(path, traces):
    with TraceStreamWriter(path) as stream:
        for trace in traces:
            stream.append(trace)


#: the two exports that start a file: batch and stream.
EXPORTS = [write_traces, _stream]


class TestExportReplacesFile:
    """An export removes an existing file and creates a new one: the
    bytes are a fresh export's, whatever was there before."""

    @pytest.mark.parametrize("export", EXPORTS)
    @pytest.mark.parametrize("old_count", [1, 9], ids=["shorter", "longer"])
    def test_bytes_equal_a_fresh_export(self, tmp_path, export, old_count):
        traces = [_trace(step=i) for i in range(4)]
        fresh = tmp_path / "fresh.jsonl"
        export(fresh, traces)
        path = tmp_path / "run.jsonl"
        write_traces(path, [_trace(step=i, scheme="old") for i in range(old_count)])
        export(path, traces)
        assert path.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("export", EXPORTS)
    def test_old_file_is_replaced_not_truncated(self, tmp_path, export):
        # A second name for the old file still holds the old bytes: the
        # export unlinked it rather than truncating it in place.
        path = tmp_path / "run.jsonl"
        write_traces(path, [_trace(step=i) for i in range(3)])
        old = path.read_bytes()
        os.link(path, tmp_path / "old.jsonl")
        export(path, [_trace(step=7)])
        assert (tmp_path / "old.jsonl").read_bytes() == old
        assert read_traces(path) == [_trace(step=7)]

    @pytest.mark.parametrize("export", EXPORTS)
    def test_symlink_writes_its_target(self, tmp_path, export):
        target = tmp_path / "target.jsonl"
        write_traces(target, [_trace(step=i) for i in range(5)])
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        export(link, [_trace(step=1)])
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert read_traces(target) == [_trace(step=1)]

    @pytest.mark.parametrize("export", EXPORTS)
    def test_dangling_symlink_creates_its_target(self, tmp_path, export):
        target = tmp_path / "target.jsonl"
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        export(link, [_trace(step=2)])
        assert link.is_symlink()
        assert read_traces(target) == [_trace(step=2)]

    @pytest.mark.parametrize("export", EXPORTS)
    def test_fifo_is_written_not_replaced(self, tmp_path, export):
        # A reader already holds the FIFO open (non-blocking, so nothing
        # waits), and the export fits in the pipe buffer.
        traces = [_trace(step=i) for i in range(4)]
        fresh = tmp_path / "fresh.jsonl"
        export(fresh, traces)
        fifo = tmp_path / "run.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            export(fifo, traces)
            received = b""
            while chunk := os.read(reader, 1 << 16):
                received += chunk
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert received == fresh.read_bytes()

    @pytest.mark.parametrize("export", EXPORTS)
    def test_directory_path_raises_with_os_error_text(self, tmp_path, export):
        with pytest.raises(ObservabilityError, match="Is a directory"):
            export(tmp_path, [_trace()])

    @pytest.mark.parametrize("export", EXPORTS)
    def test_missing_parent_raises_with_os_error_text(self, tmp_path, export):
        with pytest.raises(
            ObservabilityError, match="No such file or directory"
        ):
            export(tmp_path / "absent" / "run.jsonl", [_trace()])


class TestTruncateTraces:
    """The resume primitive cuts the file after line ``count``; it never
    rewrites the lines it keeps."""

    def _lines(self, count):
        return [
            json.dumps(_trace(step=i).to_dict(), separators=(",", ":"))
            + "\n"
            for i in range(count)
        ]

    def test_kept_prefix_is_byte_identical(self, tmp_path):
        lines = self._lines(5)
        path = tmp_path / "run.jsonl"
        path.write_text("".join(lines))
        assert truncate_traces(path, 3) == 3
        assert path.read_text() == "".join(lines[:3])

    def test_torn_last_line_is_dropped(self, tmp_path):
        lines = self._lines(3)
        path = tmp_path / "run.jsonl"
        path.write_text("".join(lines) + lines[0][:17])
        assert truncate_traces(path, 3) == 3
        assert path.read_text() == "".join(lines)
        assert read_traces(path) == [_trace(step=i) for i in range(3)]

    def test_cuts_in_place(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("".join(self._lines(4)))
        os.link(path, tmp_path / "other.jsonl")
        truncate_traces(path, 1)
        assert (tmp_path / "other.jsonl").read_bytes() == path.read_bytes()

    def test_exact_count_leaves_file_alone(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("".join(self._lines(2)))
        before = path.read_bytes()
        assert truncate_traces(path, 2) == 2
        assert path.read_bytes() == before

    def test_missing_file(self, tmp_path):
        assert truncate_traces(tmp_path / "none.jsonl", 0) == 0
        with pytest.raises(ObservabilityError, match="trace file not found"):
            truncate_traces(tmp_path / "none.jsonl", 1)

    def test_too_few_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("".join(self._lines(2)))
        with pytest.raises(
            ObservabilityError, match="holds 2 lines; cannot keep 3"
        ):
            truncate_traces(path, 3)

    def test_negative_count(self, tmp_path):
        with pytest.raises(ObservabilityError, match="negative trace count"):
            truncate_traces(tmp_path / "run.jsonl", -1)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
class TestAggregation:
    def _traces(self):
        out = []
        for i, dt in enumerate((1.0, 2.0, 3.0)):
            out.append(
                _trace(step=i, scheme="gc", step_start=0.0, step_end=dt)
            )
        out.append(
            _trace(step=0, scheme="is-gc", step_start=0.0, step_end=1.0)
            .with_decode("cr", 2, 4, 8)
        )
        return out

    def test_groups_by_scheme_in_order(self):
        aggs = aggregate_traces(self._traces())
        assert list(aggs) == ["gc", "is-gc"]
        assert aggs["gc"].rounds == 3
        assert aggs["is-gc"].rounds == 1

    def test_statistics(self):
        agg = aggregate_traces(self._traces())["gc"]
        assert agg.mean_step_time == pytest.approx(2.0)
        assert agg.p50_step_time == pytest.approx(2.0)
        assert agg.mean_accepted == pytest.approx(2.0)
        assert agg.total_wasted_compute == pytest.approx(0.9)
        assert agg.mean_recovery_fraction is None
        assert agg.decoded_rounds == 0

    def test_decoded_statistics(self):
        agg = aggregate_traces(self._traces())["is-gc"]
        assert agg.mean_recovery_fraction == pytest.approx(0.5)
        assert agg.mean_num_searches == pytest.approx(2.0)
        assert agg.decoded_rounds == 1

    def test_empty_inputs_rejected(self):
        with pytest.raises(ObservabilityError):
            aggregate_traces([])
        with pytest.raises(ObservabilityError):
            SchemeAggregate.from_traces("x", [])

    def test_aggregation_matches_numpy_exactly(self):
        # Same arithmetic as the live path: np.mean over the series.
        times = [0.37, 1.212, 2.003, 0.51]
        traces = [
            _trace(step=i, step_start=0.0, step_end=t, scheme="s")
            for i, t in enumerate(times)
        ]
        agg = aggregate_traces(traces)["s"]
        assert agg.mean_step_time == float(np.mean(times))
