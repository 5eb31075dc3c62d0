"""repro — a full reproduction of "On Arbitrary Ignorance of Stragglers
with Gradient Coding" (IS-GC, ICDCS 2023).

Public API tour
---------------
Placements (who stores which dataset partition) — built by family name
through the placement registry::

    from repro import make_placement, registered_placements
    placement = make_placement("cr", num_workers=8, partitions_per_worker=2)

Decoding (the master's maximal partial-sum recovery)::

    from repro import decoder_for
    decoder = decoder_for(CyclicRepetition(8, 2))
    result = decoder.decode([0, 2, 5, 6])       # any subset of workers

Gradient coding (worker payloads → recovered gradients)::

    from repro import SummationCode, ClassicGradientCode

End-to-end simulated training (the one loop, wired by hand)::

    from repro import RoundEngine, ISGCStrategy, ClusterSimulator, SGD
    from repro.engine import FlatBackend, SyncUpdate

Straggler environments (delay/failure/compute/network/contention
models, built by family name through the environment registry)::

    from repro import Environment, make_delay_model
    delay = make_delay_model("pareto", alpha=2.5, scale=0.3)
    env = Environment(delay={"kind": "exponential", "mean": 1.5})
    sim = env.simulator(num_workers=8, partitions_per_worker=2)

Declarative experiments (one engine, pluggable backends/schemes)::

    from repro import ExperimentSpec, run_spec
    summary = run_spec(ExperimentSpec(
        name="demo", scheme="is-gc-cr", num_workers=4,
        partitions_per_worker=2, wait_for=2,
    ))

Multi-job serving (one coordinator, many concurrent specs)::

    from repro import Coordinator, run_jobs
    reports = run_jobs([spec_a, spec_b], mode="deterministic")

See ``examples/quickstart.py`` for a runnable walk-through,
``docs/architecture.md`` for the engine layering, and
``EXPERIMENTS.md`` for the paper-figure reproductions.
"""

from .exceptions import (
    AdmissionError,
    CodingError,
    ConfigurationError,
    DecodeError,
    ObservabilityError,
    PlacementError,
    ReproError,
    ServeError,
    SimulationError,
    SubmissionRejectedError,
    TrainingError,
)
from .types import DecodeResult, StepRecord, TrainingSummary
from .core import (
    CRDecoder,
    ExplicitPlacement,
    CyclicRepetition,
    Decoder,
    DescentBound,
    ExactDecoder,
    FRDecoder,
    FractionalRepetition,
    HRDecoder,
    HybridRepetition,
    PLACEMENT_REGISTRY,
    Placement,
    PlacementScheme,
    SummationCode,
    alpha_lower_bound,
    alpha_upper_bound,
    as_placement,
    conflict_graph,
    decoder_for,
    make_placement,
    placement_scheme,
    rank_placements,
    recommend_placement,
    recovered_partitions_bounds,
    register_placement,
    registered_placements,
    scheme_for,
)
from .codes import (
    ClassicGradientCode,
    CommEfficientGC,
    LeastSquaresDecoder,
    StochasticSumDecoder,
)
from .straggler import (
    BernoulliStraggler,
    EstimatingWaitPolicy,
    LatencyEstimator,
    PermanentCrashes,
    TransientDropouts,
    DelayModel,
    DelayTrace,
    ExponentialDelay,
    MixtureDelay,
    NoDelay,
    ParetoDelay,
    PersistentStragglers,
    ShiftedExponentialDelay,
    TraceReplayModel,
)
from .simulation import (
    AdaptiveWaitK,
    BestEffortWaitForK,
    ContendedUploadModel,
    ClusterSimulator,
    ComputeModel,
    DeadlinePolicy,
    NetworkModel,
    WaitForAll,
    WaitForK,
    WaitPolicy,
)
from .training import (
    ClassicGCStrategy,
    ISGCStrategy,
    ISSGDStrategy,
    LinearRegressionModel,
    LogisticRegressionModel,
    MLPClassifier,
    SGD,
    SoftmaxRegressionModel,
    SyncSGDStrategy,
    build_batch_streams,
    make_cifar_like,
    make_classification,
    make_regression,
    partition_dataset,
)
from .env import (
    ENV_REGISTRY,
    Environment,
    make_compute_model,
    make_contention_model,
    make_delay_model,
    make_failure_model,
    make_network_model,
    model_fingerprint,
    register_compute,
    register_contention,
    register_delay,
    register_failure,
    register_network,
    registered_models,
    spec_of,
)
from .analysis import monte_carlo_recovery, recovery_curve, summarize_trials
from .engine import (
    EnginePlan,
    EngineState,
    ExperimentSpec,
    RoundEngine,
    RunReport,
    build_engine,
    build_run_report,
    make_strategy,
    register_backend,
    register_scheme,
    run_spec,
)
from .parallel import DecodeCache, ProcessExecutor, SerialExecutor
from .obs import (
    MetricsRegistry,
    RoundTrace,
    RoundTracer,
    TraceStreamWriter,
    aggregate_traces,
    read_traces,
    write_traces,
)
from .serve import (
    Coordinator,
    CoordinatorClient,
    JobCancelledError,
    JobFailedError,
    JobState,
    SchedulingClass,
    ServeMailbox,
    WorkerPool,
    run_jobs,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "ConfigurationError",
    "PlacementError",
    "DecodeError",
    "CodingError",
    "SimulationError",
    "TrainingError",
    "ObservabilityError",
    "ServeError",
    "AdmissionError",
    "SubmissionRejectedError",
    # types
    "DecodeResult",
    "StepRecord",
    "TrainingSummary",
    # core
    "Placement",
    "FractionalRepetition",
    "CyclicRepetition",
    "HybridRepetition",
    "conflict_graph",
    "PlacementScheme",
    "PLACEMENT_REGISTRY",
    "register_placement",
    "registered_placements",
    "placement_scheme",
    "make_placement",
    "as_placement",
    "scheme_for",
    "Decoder",
    "decoder_for",
    "FRDecoder",
    "CRDecoder",
    "HRDecoder",
    "ExactDecoder",
    "SummationCode",
    "DescentBound",
    "alpha_lower_bound",
    "alpha_upper_bound",
    "recovered_partitions_bounds",
    # codes
    "ClassicGradientCode",
    # straggler
    "DelayModel",
    "NoDelay",
    "ExponentialDelay",
    "ShiftedExponentialDelay",
    "ParetoDelay",
    "BernoulliStraggler",
    "PersistentStragglers",
    "MixtureDelay",
    "DelayTrace",
    "TraceReplayModel",
    # simulation
    "ClusterSimulator",
    "ComputeModel",
    "NetworkModel",
    "WaitPolicy",
    "WaitForK",
    "WaitForAll",
    "DeadlinePolicy",
    "AdaptiveWaitK",
    # training
    "SGD",
    "LinearRegressionModel",
    "LogisticRegressionModel",
    "SoftmaxRegressionModel",
    "MLPClassifier",
    "make_regression",
    "make_classification",
    "make_cifar_like",
    "partition_dataset",
    "build_batch_streams",
    "SyncSGDStrategy",
    "ISSGDStrategy",
    "ClassicGCStrategy",
    "ISGCStrategy",
    # environment registry
    "ENV_REGISTRY",
    "Environment",
    "make_delay_model",
    "make_failure_model",
    "make_compute_model",
    "make_network_model",
    "make_contention_model",
    "register_delay",
    "register_failure",
    "register_compute",
    "register_network",
    "register_contention",
    "registered_models",
    "spec_of",
    "model_fingerprint",
    # analysis
    "monte_carlo_recovery",
    "recovery_curve",
    "summarize_trials",
    # extensions
    "ExplicitPlacement",
    "rank_placements",
    "recommend_placement",
    "CommEfficientGC",
    "LeastSquaresDecoder",
    "StochasticSumDecoder",
    "LatencyEstimator",
    "EstimatingWaitPolicy",
    "PermanentCrashes",
    "TransientDropouts",
    "BestEffortWaitForK",
    "ContendedUploadModel",
    # engine
    "RoundEngine",
    "EnginePlan",
    "EngineState",
    "RunReport",
    "build_run_report",
    "ExperimentSpec",
    "build_engine",
    "run_spec",
    "make_strategy",
    "register_scheme",
    "register_backend",
    # parallel execution
    "DecodeCache",
    "ProcessExecutor",
    "SerialExecutor",
    # observability
    "MetricsRegistry",
    "RoundTrace",
    "RoundTracer",
    "TraceStreamWriter",
    "aggregate_traces",
    "read_traces",
    "write_traces",
    # serving
    "Coordinator",
    "run_jobs",
    "JobState",
    "JobFailedError",
    "JobCancelledError",
    "SchedulingClass",
    "WorkerPool",
    "ServeMailbox",
    "CoordinatorClient",
    "__version__",
]
