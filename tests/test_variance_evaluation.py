"""Tests for estimator-variance analysis and evaluation."""

import numpy as np
import pytest

from repro.analysis import estimator_moments
from repro.core import CyclicRepetition, FractionalRepetition
from repro.exceptions import ConfigurationError, TrainingError
from repro.training import (
    LinearRegressionModel,
    SoftmaxRegressionModel,
    accuracy_curve,
    evaluate,
    make_classification,
    make_regression,
)


def _grads(n, dim=5, seed=0):
    rng = np.random.default_rng(seed)
    return {p: rng.normal(size=dim) for p in range(n)}


class TestEstimatorMoments:
    def test_unbiased_at_every_w(self):
        """Assumption 2: the rescaled estimator is unbiased."""
        placement = CyclicRepetition(4, 2)
        grads = _grads(4)
        for w in (1, 2, 3, 4):
            moments = estimator_moments(placement, w, grads, seed=1)
            assert moments.is_unbiased, f"w={w}: bias {moments.bias_norm}"

    def test_zero_variance_at_full_availability(self):
        placement = CyclicRepetition(4, 2)
        moments = estimator_moments(placement, 4, _grads(4), seed=0)
        assert moments.total_variance == pytest.approx(0.0, abs=1e-12)

    def test_variance_decreases_with_w(self):
        placement = CyclicRepetition(6, 2)
        grads = _grads(6)
        variances = [
            estimator_moments(placement, w, grads, seed=2).total_variance
            for w in (1, 3, 6)
        ]
        assert variances[0] > variances[1] > variances[2]

    def test_fr_at_least_cr_variance_reduction(self):
        grads = _grads(8, seed=5)
        fr = estimator_moments(FractionalRepetition(8, 2), 4, grads, seed=6)
        cr = estimator_moments(CyclicRepetition(8, 2), 4, grads, seed=6)
        assert fr.total_variance <= cr.total_variance * 1.05

    def test_validation(self):
        placement = CyclicRepetition(4, 2)
        with pytest.raises(ConfigurationError):
            estimator_moments(placement, 0, _grads(4))
        with pytest.raises(ConfigurationError):
            estimator_moments(placement, 2, {0: np.zeros(2)})


class TestEvaluate:
    def test_classifier_report(self):
        ds = make_classification(300, 6, num_classes=3, separation=6.0, seed=0)
        model = SoftmaxRegressionModel(6, 3, seed=0)
        for _ in range(300):
            _, grad = model.loss_and_gradient(ds.features, ds.labels)
            model.set_parameters(model.get_parameters() - 0.5 * grad)
        report = evaluate(model, ds)
        assert report.accuracy is not None and report.accuracy > 0.9
        assert set(report.per_class_accuracy) == {0, 1, 2}
        assert "accuracy" in report.describe()

    def test_regression_no_accuracy(self):
        ds = make_regression(100, 4, seed=0)
        report = evaluate(LinearRegressionModel(4, seed=0), ds)
        assert report.accuracy is None
        assert report.per_class_accuracy == {}
        assert "loss" in report.describe()

    def test_empty_dataset(self):
        ds = make_classification(10, 4, seed=0)
        empty = ds.subset(np.array([], dtype=int))
        with pytest.raises(TrainingError):
            evaluate(SoftmaxRegressionModel(4, 2), empty)

    def test_accuracy_curve_restores_model(self):
        ds = make_classification(100, 4, num_classes=2, separation=5.0, seed=0)
        model = SoftmaxRegressionModel(4, 2, seed=0)
        original = model.get_parameters()
        snapshots = [
            original,
            original + np.random.default_rng(1).normal(size=original.size),
        ]
        curve = accuracy_curve(model, snapshots, ds)
        assert len(curve) == 2
        np.testing.assert_array_equal(model.get_parameters(), original)

    def test_accuracy_curve_validation(self):
        ds = make_classification(10, 4, seed=0)
        with pytest.raises(TrainingError):
            accuracy_curve(SoftmaxRegressionModel(4, 2), [], ds)

