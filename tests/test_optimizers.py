"""Tests for SGD and learning-rate schedules."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.training import SGD, constant_lr


class TestSchedules:
    def test_constant(self):
        sched = constant_lr(0.1)
        assert sched(0) == sched(1000) == 0.1

    def test_constant_validation(self):
        with pytest.raises(ConfigurationError):
            constant_lr(0.0)

class TestSGD:
    def test_vanilla_update(self):
        opt = SGD(0.1)
        new = opt.update(np.array([1.0, 2.0]), np.array([1.0, -1.0]))
        np.testing.assert_allclose(new, [0.9, 2.1])

    def test_does_not_mutate_inputs(self):
        opt = SGD(0.1)
        params = np.array([1.0])
        grad = np.array([1.0])
        opt.update(params, grad)
        assert params[0] == 1.0
        assert grad[0] == 1.0

    def test_step_count_advances(self):
        opt = SGD(0.1)
        assert opt.step_count == 0
        opt.update(np.zeros(2), np.zeros(2))
        assert opt.step_count == 1

    def test_schedule_used(self):
        opt = SGD(lambda step: 0.5**step)
        p = np.array([0.0])
        g = np.array([1.0])
        p = opt.update(p, g)  # lr 1.0
        assert p[0] == pytest.approx(-1.0)
        p = opt.update(p, g)  # lr 0.5
        assert p[0] == pytest.approx(-1.5)

    def test_current_lr(self):
        opt = SGD(lambda step: 0.1**step)
        assert opt.current_lr() == 1.0
        opt.update(np.zeros(1), np.zeros(1))
        assert opt.current_lr() == pytest.approx(0.1)

    def test_momentum_accumulates(self):
        opt = SGD(1.0, momentum=0.9)
        p = np.array([0.0])
        g = np.array([1.0])
        p = opt.update(p, g)
        assert p[0] == pytest.approx(-1.0)  # v = 1
        p = opt.update(p, g)
        assert p[0] == pytest.approx(-1.0 - 1.9)  # v = 0.9 + 1

    def test_weight_decay(self):
        opt = SGD(0.1, weight_decay=0.5)
        new = opt.update(np.array([2.0]), np.array([0.0]))
        np.testing.assert_allclose(new, [2.0 - 0.1 * 0.5 * 2.0])

    def test_reset(self):
        opt = SGD(1.0, momentum=0.9)
        opt.update(np.zeros(1), np.ones(1))
        opt.reset()
        assert opt.step_count == 0
        p = opt.update(np.array([0.0]), np.array([1.0]))
        assert p[0] == pytest.approx(-1.0)  # fresh velocity

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            SGD(0.1).update(np.zeros(2), np.zeros(3))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SGD(0.1, momentum=1.0)
        with pytest.raises(ConfigurationError):
            SGD(0.1, weight_decay=-0.1)

    def test_converges_on_quadratic(self):
        """Minimise ½‖p − t‖² — SGD with momentum must reach t."""
        target = np.array([3.0, -2.0])
        opt = SGD(0.2, momentum=0.5)
        p = np.zeros(2)
        for _ in range(200):
            p = opt.update(p, p - target)
        np.testing.assert_allclose(p, target, atol=1e-6)
