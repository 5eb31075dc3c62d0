"""The EXPERIMENTS.md tables beyond Figs. 11-13.

One ``*_table()`` builder per table, grouped the way EXPERIMENTS.md
lists them and ``repro experiment <group>`` runs them (:data:`GROUPS`):

* ``ablations`` — design choices DESIGN.md calls out: the
  conflict-graph decoder against Fig. 3's arrival-order strawman, wait
  policies and delay shapes (Sec. IV), and IS-GC's exact partial sums
  against approximate gradient coding (Sec. II);
* ``theory`` — Sec. VII as numbers: Thm 10/11 bounds against exact
  and Monte-Carlo ``E[α]``, estimator variance, the recovery grid;
* ``extensions`` — what the repo adds on top of the paper: online
  placement adaptation and local-update SGD.  Each ``*_table`` runs
  the :class:`~repro.engine.ExperimentSpec` list its ``*_specs`` twin
  builds (:func:`adaptive_placement_specs`, :func:`local_sgd_specs`),
  so ``repro run`` reproduces each row.

Every builder is seeded and cheap (all of them together run in a few
seconds), so ``tests/test_ablation_tables.py`` asserts their shapes at
full size.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..analysis import (
    estimator_moments,
    expected_alpha_exact,
    expected_recovered_exact,
    monte_carlo_recovery,
)
from ..analysis.reporting import Table
from ..analysis.theory import alpha_bounds
from ..codes import LeastSquaresDecoder, StochasticSumDecoder
from ..core import (
    coefficients,
    decoder_for,
    make_placement,
    partition_matrix,
)
from ..engine import ExperimentSpec, build_engine, run_spec
from ..env import make_model
from ..simulation.policies import (
    AdaptiveWaitK,
    DeadlinePolicy,
    WaitForK,
    linear_rampup,
)
from ..straggler.traces import DelayTrace
from .config import Fig11Config
from .fig11 import avg_step_time
from .sweep import Sweep


def _placement(family: str, n: int, c: int):
    return make_placement(family, num_workers=n, partitions_per_worker=c)


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
def decoder_quality_table() -> Table:
    """Partitions decoded by Fig. 3's strawman — accept workers in
    arrival order unless they conflict with one already accepted —
    against the conflict-graph decoders, on the same arrivals."""
    rounds = 2000
    rng = np.random.default_rng(0)
    table = Table(
        title="Ablation — decoded partitions: naive arrival-order greedy "
        f"vs IS-GC conflict-graph decoder ({rounds} random rounds each)",
        columns=["placement", "w", "naive mean", "is-gc mean", "is-gc gain"],
    )
    cases = [
        (_placement("cr", 8, 2), 4),
        (_placement("cr", 12, 3), 6),
        (_placement("cr", 24, 2), 12),
        (make_placement("hr", num_workers=8, c1=2, c2=2, num_groups=2), 4),
    ]
    for placement, w in cases:
        n = placement.num_workers
        c = placement.partitions_per_worker
        decoder = decoder_for(placement, rng=np.random.default_rng(1))
        naive_sum = coded_sum = 0
        for _ in range(rounds):
            arrivals = rng.permutation(n)[:w].tolist()
            kept: List[int] = []
            for worker in arrivals:
                if not any(placement.conflicts(worker, k) for k in kept):
                    kept.append(worker)
            naive_sum += c * len(kept)
            coded_sum += decoder.decode(arrivals).num_recovered
        gain = 100.0 * (coded_sum - naive_sum) / naive_sum
        table.add_row(
            f"{type(placement).__name__}(n={n}, c={c})",
            w, naive_sum / rounds, coded_sum / rounds, f"+{gain:.1f}%",
        )
    return table


#: The policy / delay-model ablations replay traces on Fig. 11's
#: cluster at a lighter per-partition compute.
_REPLAY = Fig11Config(num_steps=150, per_partition_compute=0.4, seed=0)
_N, _STEPS = _REPLAY.num_workers, _REPLAY.num_steps


def _avg_step_time(trace: DelayTrace, policy) -> float:
    return avg_step_time(trace, _REPLAY, _REPLAY.partitions_per_worker, policy)


def wait_policy_table() -> Table:
    """Wait-k, deadline and ramp policies over one shared delay trace."""
    trace = DelayTrace.record(
        make_model("delay", "exponential", mean=1.5), _N, _STEPS,
        np.random.default_rng(7),
    )
    table = Table(
        title="Ablation — wait-policy sensitivity "
        "(n=24, c=2, exp(1.5s) delays, avg step time in s)",
        columns=["policy", "avg step time (s)"],
    )
    for name, policy in (
        ("wait-k (k=12)", WaitForK(12)),
        ("wait-k (k=18)", WaitForK(18)),
        ("wait-all", WaitForK(_N)),
        ("deadline (2.0s)", DeadlinePolicy(2.0)),
        ("adaptive ramp 6→18",
         AdaptiveWaitK(linear_rampup(6, 18, _STEPS // 2))),
    ):
        table.add_row(name, _avg_step_time(trace, policy))
    return table


def _saving_table(kind: str, models: Sequence[Tuple[str, object]], seed: int) -> Table:
    """IS-GC (wait-12) against sync-SGD (wait-all) per delay model."""
    table = Table(
        title=f"Ablation — {kind} "
        "(n=24, c=2, IS-GC wait-12 vs sync-SGD, avg step time in s)",
        columns=["delay model", "is-gc (w=12)", "sync-sgd", "saving"],
    )
    for name, model in models:
        trace = DelayTrace.record(
            model, _N, _STEPS, np.random.default_rng(seed)
        )
        fast = _avg_step_time(trace, WaitForK(12))
        slow = _avg_step_time(trace, WaitForK(_N))
        table.add_row(name, fast, slow, f"{100 * (1 - fast / slow):.1f}%")
    return table


def delay_model_table() -> Table:
    """IS-GC's saving under light, heavy-tailed and persistent delays."""
    return _saving_table(
        "straggler-model sensitivity",
        [
            ("exponential(1.5)", make_model("delay", "exponential", mean=1.5)),
            ("pareto(a=1.5, 1.0)",
             make_model("delay", "pareto", alpha=1.5, scale=1.0)),
            ("persistent 4 slow", make_model(
                "delay", "persistent", stragglers=range(4),
                delay={"kind": "shifted-exponential", "shift": 8.0, "mean": 1.0},
            )),
        ],
        seed=11,
    )


def time_varying_table() -> Table:
    """The same saving under load waves and burst states."""
    return _saving_table(
        "time-varying delay models",
        [
            ("diurnal exp(1.5), period 50", make_model(
                "delay", "diurnal", base={"kind": "exponential", "mean": 1.5},
                period_steps=50, amplitude=0.8,
            )),
            ("bursty exp(3.0), 5%/25%", make_model(
                "delay", "bursty", burst={"kind": "exponential", "mean": 3.0},
                enter_burst=0.05, exit_burst=0.25,
            )),
        ],
        seed=21,
    )


def approx_vs_isgc_table() -> Table:
    """IS-GC's exact partial sums against approximate gradient coding.

    On identical payloads and availability sets: IS-GC's recovered
    fraction (its coefficient vector is 0/1 by construction), the
    ℓ2-optimal linear combiner's deviation ``‖v − 𝟙‖`` and the
    stochastic-sum (Bitar et al.) deviation.
    """
    n, c, trials = 12, 3, 400
    placement = _placement("cr", n, c)
    rng = np.random.default_rng(0)
    # The deviations need no payloads, but the masks below are drawn
    # after this payload-sized draw, and the recorded rows are of them.
    rng.normal(size=(n, 64))
    b = partition_matrix(placement)
    isgc = decoder_for(placement, rng=np.random.default_rng(1))
    ls = LeastSquaresDecoder(placement)
    ss = StochasticSumDecoder(placement)
    table = Table(
        title=(
            "Ablation — exact partial sums (IS-GC) vs approximate GC "
            f"decoding, CR(n={n}, c={c}), {trials} random rounds per w"
        ),
        columns=[
            "w", "IS-GC recovered %", "LS deviation ‖v-1‖",
            "stoch-sum deviation", "LS exact rounds %",
        ],
    )
    for w in (2, 4, 6, 8, 10, 12):
        rec = ls_dev = ss_dev = 0.0
        ls_exact = 0
        for _ in range(trials):
            avail = rng.choice(n, size=w, replace=False).tolist()
            rec += isgc.decode(avail).num_recovered / n
            ls_v = coefficients(b, *ls.weights(avail))
            ls_dev += float(np.linalg.norm(ls_v - 1.0))
            ls_exact += bool(np.allclose(ls_v, 1.0, atol=1e-8))
            ss_dev += float(
                np.linalg.norm(coefficients(b, *ss.weights(avail)) - 1.0)
            )
        table.add_row(
            w,
            f"{100 * rec / trials:.1f}",
            round(ls_dev / trials, 4),
            round(ss_dev / trials, 4),
            f"{100 * ls_exact / trials:.1f}",
        )
    return table


# ----------------------------------------------------------------------
# Theory
# ----------------------------------------------------------------------
def bounds_table() -> Table:
    """Each placement's own band on ``α(G[W'])`` (Thm 10/11; HR's
    corrected group-wise bracket) against the exact expectation and a
    Monte-Carlo estimate, per placement and ``w``."""
    table = Table(
        title="Theory — Thm 10/11 bounds vs exact and Monte-Carlo E[α]",
        columns=[
            "placement", "w", "lower", "upper", "exact E[α]", "MC E[α]",
        ],
    )
    for name, placement in (
        ("FR(8,2)", _placement("fr", 8, 2)),
        ("CR(8,2)", _placement("cr", 8, 2)),
        ("HR(8,2,2,g=2)",
         make_placement("hr", num_workers=8, c1=2, c2=2, num_groups=2)),
    ):
        c = placement.partitions_per_worker
        for w in (2, 4, 6, 8):
            mc = monte_carlo_recovery(
                placement, w, trials=2000, seed=1
            ).mean_recovered / c
            table.add_row(
                name, w, *alpha_bounds(placement, w),
                round(expected_alpha_exact(placement, w), 4), round(mc, 4),
            )
    return table


def estimator_variance_table() -> Table:
    """Exact ``tr Cov(ĝ)`` per scheme and ``w`` — the mechanism behind
    Fig. 12(b)/13(b): more recovered partitions, lower variance."""
    n, c = 8, 2
    rng = np.random.default_rng(0)
    grads = rng.normal(size=(n, 16))
    placements = [
        _placement("cr", n, 1), _placement("cr", n, c), _placement("fr", n, c)
    ]
    wait_values = (1, 2, 4, 6, 8)
    variances = [
        [estimator_moments(p, w, grads, seed=1).total_variance
         for p in placements]
        for w in wait_values
    ]
    # At w = n every scheme recovers everything; the moments come out
    # as float noise (~1e-30), not 0.0.
    noise = 1e-12 * variances[0][0]
    table = Table(
        title=(
            "Theory — exact estimator variance tr Cov(ĝ) vs w "
            f"(n={n}, c={c}; lower is better)"
        ),
        columns=[
            "w", "is-sgd", "is-gc-cr", "is-gc-fr", "fr reduction vs is-sgd",
        ],
    )
    for w, (v_sgd, v_cr, v_fr) in zip(wait_values, variances):
        if v_fr > noise:
            reduction = f"{v_sgd / v_fr:.2f}x"
        else:
            reduction = "exact (0/0)" if v_sgd <= noise else "∞"
        table.add_row(
            w, round(v_sgd, 2), round(v_cr, 2), round(v_fr, 2), reduction,
        )
    return table


_GRID_N = 12


def _grid_table(name: str, cell: Callable[[int, int], str]) -> Table:
    """``cell(c, w)`` over the ``(c, w)`` plane, as a heat-map layout."""
    sweep = Sweep(
        name=name, axes={"c": (2, 3, 4, 6), "w": (2, 4, 6, 8, 10, 12)}
    )
    return sweep.to_grid_table(sweep.run(cell), "c", "w")


def _expected_recovered(family: str, c: int, w: int) -> float:
    return expected_recovered_exact(_placement(family, _GRID_N, c), w)


def recovery_grid_table() -> Table:
    """CR's expected recovered share over the ``(c, w)`` plane."""
    return _grid_table(
        f"Theory — CR(n={_GRID_N}) expected recovery (% of gradients)",
        lambda c, w: f"{100 * _expected_recovered('cr', c, w) / _GRID_N:.0f}%",
    )


def fr_advantage_table() -> Table:
    """FR's lead over CR on the same plane, in percentage points."""
    def gap(c: int, w: int) -> str:
        lead = _expected_recovered("fr", c, w) - _expected_recovered("cr", c, w)
        return f"+{100 * lead / _GRID_N:.1f}"

    return _grid_table(
        f"Theory — FR advantage over CR (percentage points, n={_GRID_N})", gap
    )


# ----------------------------------------------------------------------
# Extensions
# ----------------------------------------------------------------------
#: The extensions' shared workload: spec seed 1 draws the dataset with
#: seed 1, partitions it with 2 and streams its batches with 3.
_EXTENSION_SEED = 1


def _extension_spec(name: str, network="ideal", **fields) -> ExperimentSpec:
    """One logistic-regression run on the extensions' shared workload:
    the default dataset and model, compute 0.02 s per step plus 0.02 s
    per partition, an ideal network unless ``network`` says otherwise."""
    return ExperimentSpec(
        name=name,
        seed=_EXTENSION_SEED,
        compute={"base": 0.02, "per_partition": 0.02},
        network=network,
        **fields,
    )


#: ``adaptive_placement_specs()``'s rows, in order.
_ADAPTIVE_RUNS = ("fixed CR", "fixed FR", "adaptive (CR start)")


def adaptive_placement_specs() -> List[ExperimentSpec]:
    """The runs of :func:`adaptive_placement_table`, as specs: fixed CR
    and fixed FR, then CR under the ``adaptive`` rule (decoder seed 6,
    migration reviews every 20 steps over a 1 GB/s link)."""
    shape = dict(
        num_workers=8, partitions_per_worker=2, wait_for=4, max_steps=120,
        delay={"kind": "exponential", "mean": 0.5},
    )
    fixed = [
        _extension_spec(
            f"extension-adaptive-fixed-{scheme[-2:]}", scheme=scheme,
            scheme_params={"seed": 5}, **shape,
        )
        for scheme in ("is-gc-cr", "is-gc-fr")
    ]
    adaptive = _extension_spec(
        "extension-adaptive-cr-start", scheme="is-gc-cr", rule="adaptive",
        network={"kind": "uniform", "latency": 0.001, "bandwidth": 1e9},
        scheme_params={"seed": 6},
        rule_params={"partition_bytes": 1e5, "review_every": 20},
        **shape,
    )
    return [*fixed, adaptive]


def adaptive_placement_table() -> Table:
    """Fixed CR and fixed FR against a run that starts on CR (the wrong
    placement at this ``w``) and migrates online."""
    specs = adaptive_placement_specs()
    first = specs[0]
    table = Table(
        title=(
            "Extension — online placement adaptation "
            f"(n={first.num_workers}, c={first.partitions_per_worker}, "
            f"w={first.wait_for}, {first.max_steps} steps)"
        ),
        columns=["run", "avg recovery %", "final loss", "migrations"],
    )
    for name, spec in zip(_ADAPTIVE_RUNS, specs):
        engine = build_engine(spec)
        summary = engine.run(spec.max_steps)
        table.add_row(
            name, f"{100 * summary.avg_recovery_fraction:.1f}",
            round(summary.final_loss, 4),
            len(getattr(engine.rule, "migrations", ())),
        )
    return table


#: Batches each partition sees in every run of :func:`local_sgd_table`.
_LOCAL_BATCH_BUDGET = 48


def local_sgd_specs() -> List[ExperimentSpec]:
    """The runs of :func:`local_sgd_table`, as specs: CR(4, 2) waiting
    for 3 under ``local-update`` with τ = 1, 2, 4, 8 local steps, each
    on the same budget of batches per partition."""
    return [
        _extension_spec(
            f"extension-local-sgd-tau{tau}", scheme="is-gc-cr",
            num_workers=4, partitions_per_worker=2, wait_for=3,
            rule="local-update", max_steps=_LOCAL_BATCH_BUDGET // tau,
            delay={"kind": "exponential", "mean": 1.0},
            scheme_params={"seed": 0},
            rule_params={"local_steps": tau, "local_lr": 0.3},
        )
        for tau in (1, 2, 4, 8)
    ]


def local_sgd_table() -> Table:
    """Local-update SGD at a fixed batch budget (τ × rounds = const):
    larger τ means fewer straggler waits at the price of drift."""
    specs = local_sgd_specs()
    first = specs[0]
    table = Table(
        title=(
            "Extension — local-update SGD over IS-GC "
            f"(n={first.num_workers}, c={first.partitions_per_worker}, "
            f"w={first.wait_for}, {_LOCAL_BATCH_BUDGET} batches/partition, "
            "exp(1.0s) stragglers)"
        ),
        columns=["τ", "rounds", "total time (s)", "final loss"],
    )
    for spec in specs:
        summary = run_spec(spec)
        table.add_row(
            spec.rule_params["local_steps"], summary.num_steps,
            round(summary.total_sim_time, 1), round(summary.final_loss, 4),
        )
    return table


# ----------------------------------------------------------------------
#: ``repro experiment <group>`` → its table builders, in print order.
GROUPS: Dict[str, Tuple[Callable[[], Table], ...]] = {
    "ablations": (
        decoder_quality_table,
        wait_policy_table,
        delay_model_table,
        time_varying_table,
        approx_vs_isgc_table,
    ),
    "theory": (
        bounds_table,
        estimator_variance_table,
        recovery_grid_table,
        fr_advantage_table,
    ),
    "extensions": (
        adaptive_placement_table,
        local_sgd_table,
    ),
}
