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
  placement adaptation, Ye-Abbe block coding, top-k sparsification,
  local-update SGD and multi-message uploads.

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
from ..codes import CommEfficientGC, LeastSquaresDecoder, StochasticSumDecoder
from ..core import (
    SummationCode,
    alpha_lower_bound,
    alpha_upper_bound,
    decoder_for,
    make_placement,
)
from ..engine import (
    AdaptiveMigration,
    FlatBackend,
    LocalUpdate,
    RoundEngine,
    SyncUpdate,
    make_strategy,
)
from ..env import Environment, make_delay_model, make_network_model
from ..exceptions import CodingError
from ..partial import recovery_vs_deadline
from ..simulation.policies import (
    AdaptiveWaitK,
    DeadlinePolicy,
    WaitForK,
    linear_rampup,
)
from ..straggler.traces import DelayTrace
from ..training import (
    SGD,
    CompressedISGCStrategy,
    LogisticRegressionModel,
    build_batch_streams,
    make_classification,
    partition_dataset,
)
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
        make_delay_model("exponential", mean=1.5), _N, _STEPS,
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
            ("exponential(1.5)", make_delay_model("exponential", mean=1.5)),
            ("pareto(a=1.5, 1.0)",
             make_delay_model("pareto", alpha=1.5, scale=1.0)),
            ("persistent 4 slow", make_delay_model(
                "persistent", stragglers=range(4),
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
            ("diurnal exp(1.5), period 50", make_delay_model(
                "diurnal", base={"kind": "exponential", "mean": 1.5},
                period_steps=50, amplitude=0.8,
            )),
            ("bursty exp(3.0), 5%/25%", make_delay_model(
                "bursty", burst={"kind": "exponential", "mean": 3.0},
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
    payloads = SummationCode(placement).encode(
        {p: rng.normal(size=64) for p in range(n)}
    )
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
            ls_result = ls.decode(avail, payloads)
            ls_dev += ls_result.deviation
            ls_exact += ls_result.is_exact
            ss_dev += ss.decode(avail, payloads).deviation
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
    """Thm 10/11's band on ``α(G[W'])`` against the exact expectation
    and a Monte-Carlo estimate, per placement and ``w``."""
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
        n = placement.num_workers
        c = placement.partitions_per_worker
        for w in (2, 4, 6, 8):
            mc = monte_carlo_recovery(
                placement, w, trials=2000, seed=1
            ).mean_recovered / c
            table.add_row(
                name, w,
                alpha_lower_bound(n, c, w), alpha_upper_bound(n, c, w),
                round(expected_alpha_exact(placement, w), 4), round(mc, 4),
            )
    return table


def estimator_variance_table() -> Table:
    """Exact ``tr Cov(ĝ)`` per scheme and ``w`` — the mechanism behind
    Fig. 12(b)/13(b): more recovered partitions, lower variance."""
    n, c = 8, 2
    rng = np.random.default_rng(0)
    grads = {p: rng.normal(size=16) for p in range(n)}
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
def _train(n, c, strategy, rule, delay, steps, *, compute=0.02, cluster_seed=0):
    """One logistic-regression run on the extensions' shared workload."""
    dataset = make_classification(
        512, 8, num_classes=2, separation=3.0, seed=1
    )
    streams = build_batch_streams(
        partition_dataset(dataset, n, seed=2), 32, seed=3
    )
    cluster = Environment(
        delay=delay,
        compute={"base": compute, "per_partition": compute},
        network="ideal",
    ).simulator(n, c, rng=np.random.default_rng(cluster_seed))
    engine = RoundEngine(
        LogisticRegressionModel(8, seed=0), streams, strategy,
        FlatBackend(cluster),
        rule, eval_data=dataset,
    )
    return engine.run(max_steps=steps)


def adaptive_placement_table() -> Table:
    """Fixed CR and fixed FR against a run that starts on CR (the wrong
    placement at this ``w``) and migrates online."""
    n, c, w, steps = 8, 2, 4, 120

    def isgc(scheme: str, rng: np.random.Generator):
        return make_strategy(
            scheme, num_workers=n, partitions_per_worker=c, wait_for=w, rng=rng
        )

    def delay():
        return make_delay_model("exponential", mean=0.5)

    table = Table(
        title=(
            "Extension — online placement adaptation "
            f"(n={n}, c={c}, w={w}, {steps} steps)"
        ),
        columns=["run", "avg recovery %", "final loss", "migrations"],
    )
    for name, scheme in (("fixed CR", "is-gc-cr"), ("fixed FR", "is-gc-fr")):
        summary = _train(
            n, c, isgc(scheme, np.random.default_rng(5)),
            SyncUpdate(SGD(0.3)), delay(), steps,
        )
        table.add_row(
            name, f"{100 * summary.avg_recovery_fraction:.1f}",
            round(summary.final_loss, 4), 0,
        )
    # The decoder and the migration rule draw from one generator.
    rng = np.random.default_rng(6)
    rule = AdaptiveMigration(
        SGD(0.3),
        wait_for=w,
        partition_bytes=1e5,
        network=make_network_model("uniform", latency=0.001, bandwidth=1e9),
        review_every=20,
        rng=rng,
    )
    summary = _train(n, c, isgc("is-gc-cr", rng), rule, delay(), steps)
    table.add_row(
        "adaptive (CR start)", f"{100 * summary.avg_recovery_fraction:.1f}",
        round(summary.final_loss, 4), len(rule.migrations),
    )
    return table


def comm_efficient_table() -> Table:
    """Ye-Abbe block count ``k`` over FR: upload size, guaranteed
    tolerance per group, and partial recovery under the IS decode."""
    n, c, dim, trials = 8, 4, 256, 500
    placement = _placement("fr", n, c)
    rng = np.random.default_rng(0)
    grads = {p: rng.normal(size=dim) for p in range(n)}
    table = Table(
        title=(
            f"Extension — Ye-Abbe block coding over FR({n},{c}) with the "
            f"IS decode, d={dim}, random w=4 availability, {trials} rounds"
        ),
        columns=[
            "k", "upload elems", "tolerance/group",
            "mean recovered %", "round failures %",
        ],
    )
    for k in (1, 2, 3, 4):
        code = CommEfficientGC(placement, blocks=k)
        payloads = code.encode(grads)
        recovered = 0.0
        failures = 0
        for _ in range(trials):
            avail = rng.choice(n, size=4, replace=False).tolist()
            try:
                _, rec = code.decode_partial(avail, payloads, dim)
                recovered += len(rec) / n
            except CodingError:
                failures += 1
        table.add_row(
            k,
            code.payload_elements(dim),
            code.max_stragglers_per_group,
            f"{100 * recovered / trials:.1f}",
            f"{100 * failures / trials:.1f}",
        )
    return table


def compression_table() -> Table:
    """Top-k sparsified IS-GC payloads: upload size against the loss
    reached on the same step budget (error feedback keeps every
    fraction convergent)."""
    n, c, w, steps = 4, 2, 4, 120
    table = Table(
        title=(
            "Extension — top-k sparsified IS-GC payloads "
            f"(n={n}, c={c}, w={w}, {steps} steps)"
        ),
        columns=["kept fraction", "upload elems/9", "final loss"],
    )
    for fraction in (1.0, 0.5, 0.2, 0.1):
        rng = np.random.default_rng(1)
        if fraction == 1.0:
            strategy = make_strategy(
                "is-gc-cr", num_workers=n, partitions_per_worker=c,
                wait_for=w, rng=rng,
            )
        else:
            strategy = CompressedISGCStrategy(
                _placement("cr", n, c), wait_for=w, fraction=fraction, rng=rng,
            )
        summary = _train(
            n, c, strategy, SyncUpdate(SGD(0.3)), "none",
            steps, compute=0.01,
        )
        # 9 = the logistic model's parameter count.
        table.add_row(
            fraction, max(1, round(9 * fraction)), round(summary.final_loss, 4)
        )
    return table


def local_sgd_table() -> Table:
    """Local-update SGD at a fixed batch budget (τ × rounds = const):
    larger τ means fewer straggler waits at the price of drift."""
    n, c, w, batch_budget = 4, 2, 3, 48
    table = Table(
        title=(
            "Extension — local-update SGD over IS-GC "
            f"(n={n}, c={c}, w={w}, {batch_budget} batches/partition, "
            "exp(1.0s) stragglers)"
        ),
        columns=["τ", "rounds", "total time (s)", "final loss"],
    )
    for tau in (1, 2, 4, 8):
        strategy = make_strategy(
            "is-gc-cr", num_workers=n, partitions_per_worker=c, wait_for=w,
            rng=np.random.default_rng(0),
        )
        summary = _train(
            n, c, strategy, LocalUpdate(local_steps=tau, local_lr=0.3),
            make_delay_model("exponential", mean=1.0), batch_budget // tau,
            cluster_seed=4,
        )
        table.add_row(
            tau, summary.num_steps, round(summary.total_sim_time, 1),
            round(summary.final_loss, 4),
        )
    return table


def multimessage_table() -> Table:
    """Recovery against deadline: multi-message uploads (stragglers'
    partial work counts, at ``c×`` the bytes) vs coded IS-GC payloads."""
    comparisons = recovery_vs_deadline(
        _placement("cr", 8, 2),
        deadlines=(0.4, 0.7, 1.0, 1.5, 2.5, 4.0),
        environment=Environment(
            delay={"kind": "shifted-exponential", "shift": 0.0, "mean": 0.5},
            compute={"base": 0.1, "per_partition": 0.4},
            network="ideal",
        ),
        trials=400,
        seed=3,
    )
    table = Table(
        title=(
            "Extension — recovery vs deadline: multi-message (c× bytes) "
            "vs IS-GC coded payloads, CR(8,2), exp(0.5s) stragglers"
        ),
        columns=[
            "deadline (s)", "multi-message E[recovered]",
            "is-gc E[recovered]", "multi-message lead",
        ],
    )
    for comp in comparisons:
        lead = comp.multimessage_recovered - comp.isgc_recovered
        table.add_row(
            comp.deadline,
            round(comp.multimessage_recovered, 2),
            round(comp.isgc_recovered, 2),
            f"{lead:+.2f}",
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
        comm_efficient_table,
        compression_table,
        local_sgd_table,
        multimessage_table,
    ),
}
