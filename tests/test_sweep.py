"""Tests for the generic parameter-sweep utility."""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.sweep import Sweep, SweepPoint


class TestSweep:
    def test_size_and_combinations(self):
        sweep = Sweep("s", {"a": (1, 2), "b": ("x", "y", "z")})
        assert sweep.size == 6
        combos = list(sweep.combinations())
        assert len(combos) == 6
        assert combos[0] == {"a": 1, "b": "x"}
        assert combos[-1] == {"a": 2, "b": "z"}

    def test_run_evaluates_all_points(self):
        sweep = Sweep("s", {"a": (1, 2, 3)})
        points = sweep.run(lambda a: a * 10)
        assert [p.value for p in points] == [10, 20, 30]
        assert all(p.ok for p in points)

    def test_errors_captured_not_raised(self):
        sweep = Sweep("s", {"a": (1, 0, 2)})
        points = sweep.run(lambda a: 1 // a)
        assert points[0].ok and points[2].ok
        assert not points[1].ok
        assert "division" in points[1].error

    def test_strict_mode_raises(self):
        sweep = Sweep("s", {"a": (0,)})
        with pytest.raises(ZeroDivisionError):
            sweep.run(lambda a: 1 // a, strict=True)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Sweep("s", {})
        with pytest.raises(ConfigurationError):
            Sweep("s", {"a": ()})

    def test_point_ok_property(self):
        assert SweepPoint(params={}, value=1).ok
        assert not SweepPoint(params={}, value=None, error="boom").ok

    def test_error_preserves_full_traceback(self):
        def boom(a):
            raise ValueError(f"bad corner a={a}")

        points = Sweep("s", {"a": (7,)}).run(boom)
        assert not points[0].ok
        assert "Traceback (most recent call last)" in points[0].error
        # The frame that failed survives, not just str(exc).
        assert "in boom" in points[0].error
        assert points[0].error_summary == "ValueError: bad corner a=7"

    def test_error_summary(self):
        assert SweepPoint(params={}, value=1).error_summary is None
        point = SweepPoint(
            params={}, value=None,
            error="Traceback ...\n  File x, line 1\nKeyError: 'k'\n",
        )
        assert point.error_summary == "KeyError: 'k'"

    def test_table_cell_uses_error_summary(self):
        sweep = Sweep("s", {"a": (0,)})
        text = sweep.to_table(sweep.run(lambda a: 1 // a)).render()
        assert "ZeroDivisionError" in text
        assert "Traceback" not in text


class TestTables:
    def test_long_table(self):
        sweep = Sweep("title", {"a": (1, 2)})
        table = sweep.to_table(sweep.run(lambda a: a + 0.5), "result")
        text = table.render()
        assert "title" in text and "result" in text and "2.5" in text

    def test_long_table_requires_run(self):
        # The table takes run()'s result; the sweep keeps no copy of it.
        sweep = Sweep("s", {"a": (1,)})
        with pytest.raises(TypeError):
            sweep.to_table()

    def test_grid_table(self):
        sweep = Sweep("grid", {"r": (1, 2), "c": (10, 20)})
        table = sweep.to_grid_table(sweep.run(lambda r, c: r * c), "r", "c")
        text = table.render()
        assert "r \\ c" in text
        assert "40" in text

    def test_grid_table_axis_mismatch(self):
        sweep = Sweep("grid", {"r": (1,), "c": (2,), "z": (3,)})
        result = sweep.run(lambda r, c, z: 0)
        with pytest.raises(ConfigurationError):
            sweep.to_grid_table(result, "r", "c")

    def test_grid_table_shows_errors(self):
        sweep = Sweep("grid", {"r": (0, 1), "c": (1,)})
        result = sweep.run(lambda r, c: c // r)
        text = sweep.to_grid_table(result, "r", "c").render()
        assert "err" in text

    def test_sweep_used_with_real_recovery(self):
        from repro.analysis import expected_recovered_exact
        from repro.core import CyclicRepetition

        sweep = Sweep("recovery", {"c": (1, 2), "w": (2, 4)})
        result = sweep.run(
            lambda c, w: expected_recovered_exact(CyclicRepetition(4, c), w)
        )
        values = {tuple(p.params.values()): p.value for p in result}
        assert values[(1, 4)] == pytest.approx(4.0)
        assert values[(2, 4)] == pytest.approx(4.0)
        assert values[(2, 2)] > values[(1, 2)]
