"""Tests for ASCII plotting utilities."""

import pytest

from repro.analysis import downsample, loss_curve_panel, sparkline
from repro.exceptions import ConfigurationError


class TestSparkline:
    def test_length_preserved(self):
        assert len(sparkline([1.0, 2.0, 3.0])) == 3

    def test_min_max_levels(self):
        line = sparkline([0.0, 1.0])
        assert line[0] == "▁"
        assert line[1] == "█"

    def test_constant_series(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_monotone_series_monotone_glyphs(self):
        line = sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert list(line) == sorted(line, key="▁▂▃▄▅▆▇█".index)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            sparkline([])


class TestDownsample:
    def test_no_op_when_small(self):
        assert downsample([1.0, 2.0], 10) == [1.0, 2.0]

    def test_target_width(self):
        out = downsample(list(range(100)), 10)
        assert len(out) == 10

    def test_averages_chunks(self):
        out = downsample([0.0, 2.0, 4.0, 6.0], 2)
        assert out == [1.0, 5.0]

    def test_preserves_mean_approximately(self):
        vals = [float(i) for i in range(97)]
        out = downsample(vals, 10)
        assert sum(out) / len(out) == pytest.approx(sum(vals) / len(vals), rel=0.05)

    def test_invalid_width(self):
        with pytest.raises(ConfigurationError):
            downsample([1.0], 0)


class TestLossCurvePanel:
    def test_one_row_per_curve(self):
        panel = loss_curve_panel({
            "sync": [3.0, 2.0, 1.0],
            "is-gc": [3.0, 1.5, 0.7],
        })
        lines = panel.splitlines()
        assert len(lines) == 2
        assert "sync" in lines[0] and "final 1" in lines[0]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            loss_curve_panel({})
