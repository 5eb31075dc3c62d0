"""Tests for shared value types and the exception hierarchy."""

import pytest

from repro.exceptions import (
    CodingError,
    ConfigurationError,
    DecodeError,
    PlacementError,
    ReproError,
    SimulationError,
    TrainingError,
)
from repro.types import DecodeResult, StepRecord, TrainingSummary


class TestExceptionHierarchy:
    @pytest.mark.parametrize("exc_cls", [
        ConfigurationError, PlacementError, DecodeError,
        CodingError, SimulationError, TrainingError,
    ])
    def test_all_derive_from_repro_error(self, exc_cls):
        assert issubclass(exc_cls, ReproError)

    def test_placement_error_is_configuration_error(self):
        """Placement problems are configuration problems: one except
        clause for 'bad setup' catches both."""
        assert issubclass(PlacementError, ConfigurationError)

    def test_decode_error_is_coding_error(self):
        """A malformed survivor set is a decoding failure on every path:
        IS-GC's decoder and the other schemes' decode raise one type."""
        assert issubclass(DecodeError, CodingError)

    def test_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            raise DecodeError("nothing arrived")

    def test_library_errors_not_builtin_value_error(self):
        """Library failures are distinguishable from programming bugs."""
        assert not issubclass(DecodeError, ValueError)


class TestDecodeResult:
    def _result(self):
        return DecodeResult(
            selected_workers=frozenset({0, 2}),
            recovered_partitions=frozenset({0, 1, 2, 3}),
            available_workers=frozenset({0, 1, 2}),
            num_searches=2,
        )

    def test_num_recovered(self):
        assert self._result().num_recovered == 4

    def test_frozen(self):
        result = self._result()
        with pytest.raises(AttributeError):
            result.num_searches = 9

    def test_recovery_fraction_guides_caller(self):
        """The property intentionally raises — fraction needs n."""
        with pytest.raises(AttributeError, match="placement"):
            _ = self._result().recovery_fraction

    def test_equality(self):
        assert self._result() == self._result()


class TestStepRecord:
    def test_defaults(self):
        record = StepRecord(
            step=0, sim_time=1.0, wait_time=1.0, num_available=2,
            num_recovered=4, recovery_fraction=1.0, loss=0.5,
        )
        assert record.grad_norm == 0.0
        assert record.extras == {}

    def test_extras_mapping(self):
        record = StepRecord(
            step=0, sim_time=1.0, wait_time=1.0, num_available=2,
            num_recovered=4, recovery_fraction=1.0, loss=0.5,
            extras={"lr": 0.1},
        )
        assert record.extras["lr"] == 0.1


class TestTrainingSummary:
    def _summary(self, reached=True):
        return TrainingSummary(
            scheme="is-gc-fr",
            num_steps=10,
            total_sim_time=12.5,
            final_loss=0.25,
            reached_threshold=reached,
            avg_step_time=1.25,
            avg_recovery_fraction=0.9,
            loss_curve=(1.0, 0.25),
            time_curve=(6.0, 12.5),
        )

    def test_describe_converged(self):
        text = self._summary(True).describe()
        assert "converged" in text
        assert "is-gc-fr" in text
        assert "90.0%" in text

    def test_describe_budget_exhausted(self):
        assert "budget exhausted" in self._summary(False).describe()

    def test_immutability(self):
        summary = self._summary()
        with pytest.raises(AttributeError):
            summary.num_steps = 99
