"""Training substrate: datasets, models, optimizers, strategies."""

from .datasets import (
    BatchStream,
    Dataset,
    make_cifar_like,
    make_classification,
    make_regression,
    partition_dataset,
)
from .gradients import BatchStreams, build_batch_streams
from .losses import BinaryCrossEntropy, MeanSquaredError, SoftmaxCrossEntropy
from .models import (
    LinearRegressionModel,
    LogisticRegressionModel,
    MLPClassifier,
    Model,
    SoftmaxRegressionModel,
)
from .optimizers import SGD, constant_lr
from .strategies import (
    ClassicGCStrategy,
    ISGCStrategy,
    ISSGDStrategy,
    SyncSGDStrategy,
    TrainingStrategy,
)
from .convergence import LossTracker
from .evaluation import EvaluationReport, accuracy_curve, evaluate
from .compression import CompressedISGCStrategy, TopKCompressor, nonzero_fraction

__all__ = [
    "Dataset",
    "BatchStream",
    "BatchStreams",
    "build_batch_streams",
    "make_regression",
    "make_classification",
    "make_cifar_like",
    "partition_dataset",
    "MeanSquaredError",
    "BinaryCrossEntropy",
    "SoftmaxCrossEntropy",
    "Model",
    "LinearRegressionModel",
    "LogisticRegressionModel",
    "SoftmaxRegressionModel",
    "MLPClassifier",
    "SGD",
    "constant_lr",
    "TrainingStrategy",
    "SyncSGDStrategy",
    "ISSGDStrategy",
    "ClassicGCStrategy",
    "ISGCStrategy",
    "LossTracker",
    "EvaluationReport",
    "evaluate",
    "accuracy_curve",
    "TopKCompressor",
    "CompressedISGCStrategy",
    "nonzero_fraction",
]
