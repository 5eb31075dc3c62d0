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

    import numpy as np
    from repro import Environment, make_delay_model
    delay = make_delay_model("pareto", alpha=2.5, scale=0.3)
    env = Environment(delay={"kind": "exponential", "mean": 1.5})
    sim = env.simulator(num_workers=8, partitions_per_worker=2,
                        rng=np.random.default_rng(0))

Declarative experiments (one engine, pluggable backends/schemes)::

    from repro import ExperimentSpec, run_spec
    summary = run_spec(ExperimentSpec(
        name="demo", scheme="is-gc-cr", num_workers=4,
        partitions_per_worker=2, wait_for=2,
    ))

Multi-job serving (one coordinator, many concurrent specs)::

    from repro import Coordinator, run_jobs
    reports = run_jobs([spec_a, spec_b])

See ``examples/quickstart.py`` for a runnable walk-through,
``docs/architecture.md`` for the engine layering, and
``EXPERIMENTS.md`` for the paper-figure reproductions.
"""

from .exceptions import ConfigurationError
from .core import (
    CyclicRepetition,
    Decoder,
    FractionalRepetition,
    HybridRepetition,
    SummationCode,
    conflict_graph,
    decoder_for,
    make_placement,
    recommend_placement,
    registered_placements,
)
# Older names of Placement / make_placement / the identity, which the
# end-to-end benchmark imports.
from .core.scheme import PlacementScheme, placement_scheme, scheme_for
from .codes import ClassicGradientCode
from .straggler import (
    DelayModel,
    DelayTrace,
    ExponentialDelay,
    ParetoDelay,
    PersistentStragglers,
    ShiftedExponentialDelay,
    TraceReplayModel,
)
from .simulation import (
    AdaptiveWaitK,
    ClusterSimulator,
    ComputeModel,
    DeadlinePolicy,
    NetworkModel,
    WaitForK,
)
from .training import (
    ClassicGCStrategy,
    ISGCStrategy,
    ISSGDStrategy,
    MLPClassifier,
    SGD,
    SoftmaxRegressionModel,
    SyncSGDStrategy,
    build_batch_streams,
    make_cifar_like,
    make_classification,
    partition_dataset,
)
from .env import Environment, make_delay_model
from .analysis import monte_carlo_recovery
from .engine import (
    EnginePlan,
    EngineState,
    ExperimentSpec,
    RoundEngine,
    RunReport,
    build_engine,
    build_run_report,
    register_scheme,
    run_spec,
)
from .parallel import DecodeCache, ProcessExecutor, SerialExecutor
from .obs import RoundTracer, TraceStreamWriter, aggregate_traces, read_traces
from .serve import (
    Coordinator,
    CoordinatorClient,
    JobFailedError,
    SchedulingClass,
    ServeMailbox,
    WorkerPool,
    run_jobs,
)

__version__ = "1.0.0"

#: Exactly the names the README, ``docs/``, ``examples/``, the tour
#: above and ``benchmarks/e2e/`` import from ``repro`` (pinned by
#: ``tests/test_docs_runnable.py``); everything else is imported from
#: its subpackage.
__all__ = [
    # errors
    "ConfigurationError",
    # core
    "FractionalRepetition",
    "CyclicRepetition",
    "HybridRepetition",
    "conflict_graph",
    "PlacementScheme",
    "registered_placements",
    "placement_scheme",
    "make_placement",
    "scheme_for",
    "Decoder",
    "decoder_for",
    "SummationCode",
    "recommend_placement",
    # codes
    "ClassicGradientCode",
    # straggler
    "DelayModel",
    "ExponentialDelay",
    "ShiftedExponentialDelay",
    "ParetoDelay",
    "PersistentStragglers",
    "DelayTrace",
    "TraceReplayModel",
    # simulation
    "ClusterSimulator",
    "ComputeModel",
    "NetworkModel",
    "WaitForK",
    "DeadlinePolicy",
    "AdaptiveWaitK",
    # training
    "SGD",
    "SoftmaxRegressionModel",
    "MLPClassifier",
    "make_classification",
    "make_cifar_like",
    "partition_dataset",
    "build_batch_streams",
    "SyncSGDStrategy",
    "ISSGDStrategy",
    "ClassicGCStrategy",
    "ISGCStrategy",
    # environment registry
    "Environment",
    "make_delay_model",
    # analysis
    "monte_carlo_recovery",
    # engine
    "RoundEngine",
    "EnginePlan",
    "EngineState",
    "RunReport",
    "build_run_report",
    "ExperimentSpec",
    "build_engine",
    "run_spec",
    "register_scheme",
    # parallel execution
    "DecodeCache",
    "ProcessExecutor",
    "SerialExecutor",
    # observability
    "RoundTracer",
    "TraceStreamWriter",
    "aggregate_traces",
    "read_traces",
    # serving
    "Coordinator",
    "run_jobs",
    "JobFailedError",
    "SchedulingClass",
    "WorkerPool",
    "ServeMailbox",
    "CoordinatorClient",
    "__version__",
]
