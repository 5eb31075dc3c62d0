"""Model evaluation utilities.

The paper reports training loss; downstream users also want accuracy
and calibration-style summaries.  These helpers work on any model
exposing ``predict`` and the flat-parameter interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..exceptions import TrainingError
from .datasets import Dataset
from .models import Model


@dataclass(frozen=True)
class EvaluationReport:
    """Loss + accuracy (+ per-class accuracy for classifiers)."""

    loss: float
    accuracy: float | None
    per_class_accuracy: Dict[int, float]

    def describe(self) -> str:
        """One-line loss/accuracy summary."""
        if self.accuracy is None:
            return f"loss {self.loss:.4f}"
        return f"loss {self.loss:.4f}, accuracy {100 * self.accuracy:.1f}%"


def held_out_loss(
    model: Model,
    eval_data: Dataset | None,
    fallback_losses: "tuple[float, ...] | list[float] | None" = (),
) -> float:
    """The loss every training loop reports for one step.

    The paper evaluates on a fixed held-out batch so scheme comparisons
    are exact; when no ``eval_data`` is given the mean of this step's
    *pre-update* partition batch losses stands in, and when the caller
    has no batch losses either the loss is NaN rather than a misleading
    number.

    Historically each trainer inlined its own variant of this — the
    async trainer even evaluated a single *post-update* batch loss as
    its fallback.  Centralising the rule here makes every loop use the
    same eval batch and the same reduction.
    """
    if eval_data is not None:
        return float(model.loss(eval_data.features, eval_data.labels))
    if fallback_losses is not None and len(fallback_losses) > 0:
        return float(np.mean(fallback_losses))
    return float("nan")


def evaluate(model: Model, dataset: Dataset) -> EvaluationReport:
    """Loss (all models) plus accuracy when the model can classify."""
    if dataset.num_samples == 0:
        raise TrainingError("cannot evaluate on an empty dataset")
    loss = model.loss(dataset.features, dataset.labels)

    predict = getattr(model, "predict", None)
    if predict is None:
        return EvaluationReport(loss=loss, accuracy=None, per_class_accuracy={})
    predictions = np.asarray(predict(dataset.features))
    labels = np.asarray(dataset.labels)
    if not np.issubdtype(labels.dtype, np.integer):
        # Regression-style labels: accuracy is meaningless.
        return EvaluationReport(loss=loss, accuracy=None, per_class_accuracy={})

    accuracy = float(np.mean(predictions == labels))
    per_class: Dict[int, float] = {}
    for cls in np.unique(labels):
        mask = labels == cls
        per_class[int(cls)] = float(np.mean(predictions[mask] == cls))
    return EvaluationReport(
        loss=loss, accuracy=accuracy, per_class_accuracy=per_class
    )


def accuracy_curve(
    model: Model,
    parameter_snapshots: list[np.ndarray],
    dataset: Dataset,
) -> list[float]:
    """Accuracy at each parameter snapshot (restores the model after)."""
    if not parameter_snapshots:
        raise TrainingError("no parameter snapshots given")
    original = model.get_parameters()
    curve = []
    try:
        for params in parameter_snapshots:
            model.set_parameters(params)
            report = evaluate(model, dataset)
            if report.accuracy is None:
                raise TrainingError(
                    "accuracy_curve needs a classifier with integer labels"
                )
            curve.append(report.accuracy)
    finally:
        model.set_parameters(original)
    return curve
