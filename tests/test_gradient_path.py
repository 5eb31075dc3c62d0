"""The stacked gradient path against an independent per-partition loop.

``BatchStreams.gradients`` draws, gathers and differentiates all
partitions of a round in one stacked call, and every training loop in
the package goes through it.  The oracle here shares none of that code:

* partitions are cut the pre-block way (``array_split`` of the shuffle,
  fancy-indexed copies);
* each batch is the stream (``repro.training.datasets.draw_indices``)
  written out on Python integers, one index at a time — SplitMix64
  from its published definition, pinned by its known first output;
* each model's loss and gradient are the single-batch 2-D formulas the
  models had before they were stacked (``x @ w``, ``x.T @ d``, …).

Everything is compared with ``==`` on the bits.  Stacked ``matmul`` on
``(G, b, d)`` blocks issues one BLAS call per batch with the operand
layout of the 2-D call, which is what keeps the bits; that is a
property of the BLAS build, so a failure message carries the
NumPy/BLAS fingerprint.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ClusterSimulator,
    ComputeModel,
    CyclicRepetition,
    DelayTrace,
    ExponentialDelay,
    ISGCStrategy,
    SGD,
    TraceReplayModel,
)
from repro.engine import (
    ExperimentSpec,
    FlatBackend,
    RoundEngine,
    SyncUpdate,
    build_engine,
)
from repro.env import Environment
from repro.exceptions import ConfigurationError, TrainingError
from repro.training import (
    Dataset,
    LinearRegressionModel,
    LogisticRegressionModel,
    MLPClassifier,
    SoftmaxRegressionModel,
    build_batch_streams,
    make_classification,
    partition_dataset,
)
from repro import splitmix
from repro.training import datasets
from repro.training.evaluation import held_out_loss


def _fingerprint() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or (
            f"{blas.get('name')} {blas.get('version')}"
        )
    except (TypeError, KeyError):
        blas = "unknown"
    return f"numpy {np.__version__}, BLAS {blas}"


def assert_same_bits(actual, expected, what: str) -> None:
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, (what, actual.shape, expected.shape)
    differing = int(np.sum(actual != expected))
    assert differing == 0, (
        f"{what}: {differing} of {expected.size} values differ from the "
        f"per-partition loop (max |Δ| = "
        f"{np.max(np.abs(actual - expected)):.3e}) on {_fingerprint()}"
    )


# ----------------------------------------------------------------------
# The oracle: single-batch 2-D model math, one partition at a time.

def _mse(pred, y):
    diff = pred - y
    return float(0.5 * np.mean(diff * diff)), diff / pred.shape[0]


def _bce(scores, y):
    signed = np.where(y > 0.5, 1.0, -1.0)
    loss = float(np.logaddexp(0.0, -(scores * signed)).mean())
    sigma = 1.0 / (1.0 + np.exp(scores * signed))
    return loss, (-signed * sigma) / scores.shape[0]


def _softmax_ce(logits, y):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    rows = np.arange(logits.shape[0])
    picked = np.clip(probs[rows, y.astype(int)], 1e-12, None)
    loss = float(-np.log(picked).mean())
    probs[rows, y.astype(int)] -= 1.0
    return loss, probs / logits.shape[0]


def _ref_affine(loss_fn):
    def reference(model, theta, x, y):
        d = x.shape[1]
        w, b = theta[:d].copy(), float(theta[d])
        loss, ds = loss_fn(x @ w + b, y)
        return loss, np.concatenate([x.T @ ds, [ds.sum()]])
    return reference


def _ref_softmax(model, theta, x, y):
    d, k = x.shape[1], CLASSES
    w = theta[: d * k].reshape(d, k).copy()
    b = theta[d * k:].copy()
    loss, dz = _softmax_ce(x @ w + b, y)
    return loss, np.concatenate([(x.T @ dz).ravel(), dz.sum(axis=0)])


def _ref_mlp(model, theta, x, y):
    d, h, k = x.shape[1], HIDDEN, CLASSES
    cuts = np.cumsum([d * h, h, h * k])
    w1 = theta[: cuts[0]].reshape(d, h).copy()
    b1 = theta[cuts[0]:cuts[1]].copy()
    w2 = theta[cuts[1]:cuts[2]].reshape(h, k).copy()
    b2 = theta[cuts[2]:].copy()
    pre = x @ w1 + b1
    hidden = np.maximum(pre, 0.0)
    loss, dz = _softmax_ce(hidden @ w2 + b2, y)
    dpre = (dz @ w2.T) * (pre > 0)
    return loss, np.concatenate([
        (x.T @ dpre).ravel(), dpre.sum(axis=0),
        (hidden.T @ dz).ravel(), dz.sum(axis=0),
    ])


CLASSES, HIDDEN = 3, 4

#: name → (features, model factory, labels are real-valued, oracle)
MODELS = {
    "linear": (5, lambda: LinearRegressionModel(5, seed=1), True,
               _ref_affine(_mse)),
    "logistic": (5, lambda: LogisticRegressionModel(5, seed=1), False,
                 _ref_affine(_bce)),
    "softmax": (5, lambda: SoftmaxRegressionModel(5, CLASSES, seed=1),
                False, _ref_softmax),
    "mlp": (5, lambda: MLPClassifier(5, HIDDEN, CLASSES, seed=1), False,
            _ref_mlp),
}


def _dataset(name: str, num_samples: int, seed: int) -> Dataset:
    features, _, real_labels, _ = MODELS[name]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(num_samples, features))
    if real_labels:
        y = rng.normal(size=num_samples)
    else:
        high = 2 if name == "logistic" else CLASSES
        y = rng.integers(high, size=num_samples)
    return Dataset(x, y)


def reference_partitions(dataset: Dataset, count: int, seed: int):
    """``partition_dataset`` as it was before the block existed."""
    order = np.random.default_rng(seed).permutation(dataset.num_samples)
    return [
        Dataset(dataset.features[chunk], dataset.labels[chunk])
        for chunk in np.array_split(order, count)
    ]


MASK64 = 2**64 - 1


def splitmix64(seed: int, i: int) -> int:
    """Output ``i + 1`` of SplitMix64 seeded with ``seed``."""
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_indices(seed, pid, step, n, size):
    """Draws ``0 … size-1`` of partition ``pid`` (``n`` rows) at
    ``step``: hash the key, the step, the partition and the draw in
    turn, then multiply-shift the top 32 bits into ``[0, n)``."""
    key = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
    row = splitmix64(splitmix64(key, step), pid)
    return np.array(
        [(splitmix64(row, k) >> 32) * n >> 32 for k in range(size)],
        dtype=np.intp,
    )


def reference_round(name, model, parts, batch_size, seed, step, thetas):
    """Losses and gradients of every partition, one at a time, at
    ``thetas[pid]``; the model's own parameters are put back."""
    oracle = MODELS[name][3]
    original = model.get_parameters()
    losses, grads = [], []
    for pid, part in enumerate(parts):
        n = part.num_samples
        idx = reference_indices(seed, pid, step, n, min(batch_size, n))
        loss, grad = oracle(
            model, thetas[pid], part.features[idx], part.labels[idx]
        )
        losses.append(loss)
        grads.append(grad)
    model.set_parameters(original)
    return np.array(losses), np.array(grads)


STEPS = st.one_of(
    st.integers(0, 200), st.integers(2**32, 2**32 + 10**6),
    st.integers(2**63, 2**64 - 1),
)


class TestStackedRoundEqualsLoop:
    @settings(max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(sorted(MODELS)),
        count=st.integers(1, 6),
        extra=st.integers(0, 40),
        batch_size=st.integers(1, 12),
        seed=st.integers(0, 2**31),
        step=STEPS,
        mode=st.sampled_from(["current", "shared", "per-partition"]),
    )
    def test_near_equal_partitions(
        self, name, count, extra, batch_size, seed, step, mode
    ):
        # N = count + extra rows: partition sizes differ by at most
        # one, and batch_size lands below, between and above them.
        dataset = _dataset(name, count + extra, seed)
        parts = partition_dataset(dataset, count, seed=seed)
        expected_parts = reference_partitions(dataset, count, seed)
        for mine, theirs in zip(parts, expected_parts):
            assert_same_bits(mine.features, theirs.features, "partition rows")
            assert_same_bits(mine.labels, theirs.labels, "partition labels")
        self._check(name, parts, expected_parts, batch_size, seed, step, mode)

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(MODELS)),
        sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
        batch_size=st.integers(1, 10),
        seed=st.integers(0, 2**31),
        step=STEPS,
        mode=st.sampled_from(["current", "shared", "per-partition"]),
    )
    def test_arbitrary_partition_sizes(
        self, name, sizes, batch_size, seed, step, mode
    ):
        # Hand-built partitions: as many batch-size groups as there
        # are distinct sizes below batch_size.
        dataset = _dataset(name, sum(sizes), seed)
        cuts = np.cumsum(sizes)[:-1]
        parts = [
            Dataset(x, y) for x, y in zip(
                np.split(dataset.features, cuts),
                np.split(dataset.labels, cuts),
            )
        ]
        self._check(name, parts, parts, batch_size, seed, step, mode)

    @staticmethod
    def _check(name, parts, expected_parts, batch_size, seed, step, mode):
        model = MODELS[name][1]()
        streams = build_batch_streams(parts, batch_size, seed=seed)
        rng = np.random.default_rng(seed + 1)
        before = model.get_parameters()
        if mode == "current":
            parameters = None
            thetas = [before] * len(parts)
        elif mode == "shared":
            parameters = rng.normal(size=model.num_parameters)
            thetas = [parameters] * len(parts)
        else:
            parameters = rng.normal(size=(len(parts), model.num_parameters))
            thetas = parameters
        losses, grads = streams.gradients(model, step, parameters)
        want_losses, want_grads = reference_round(
            name, model, expected_parts, batch_size, seed, step, thetas
        )
        what = f"{name}, {mode} parameters, sizes " + str(
            [part.num_samples for part in parts]
        ) + f", batch_size {batch_size}"
        assert_same_bits(losses, want_losses, f"losses ({what})")
        assert_same_bits(grads, want_grads, f"gradients ({what})")
        # Evaluating elsewhere never moves the model.
        assert_same_bits(model.get_parameters(), before, "model parameters")
        # One partition on its own (the async arrival path) is its row.
        pid = len(parts) - 1
        row = None if parameters is None else thetas[pid]
        loss, grad = streams.gradients(model, step, row, partition=pid)
        assert_same_bits(loss, want_losses[pid:], f"single loss ({what})")
        assert_same_bits(grad, want_grads[pid:], f"single gradient ({what})")

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_single_batch_call_is_the_one_row_case(self, name):
        model = MODELS[name][1]()
        data = _dataset(name, 7, seed=3)
        loss, grad = model.loss_and_gradient(data.features, data.labels)
        want_loss, want_grad = MODELS[name][3](
            model, model.get_parameters(), data.features, data.labels
        )
        assert isinstance(loss, float)
        assert loss == want_loss, _fingerprint()
        assert_same_bits(grad, want_grad, f"{name} single batch")
        # Held-out evaluation's forward-only pass gives the same bits.
        assert model.loss(data.features, data.labels) == want_loss

    @pytest.mark.parametrize("rows", [1, 8, 9, 127, 128, 129, 512])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_batch_means_are_the_oracle_mean(self, name, rows):
        # The losses reduce with np.add.reduce / b, the oracle with
        # ndarray.mean: equal bits on both sides of the pairwise
        # summation's 8-wide unroll and 128-element block, and at the
        # held-out set's 512 rows (7 rows: the test above).
        model = MODELS[name][1]()
        data = _dataset(name, rows, seed=rows)
        want_loss, want_grad = MODELS[name][3](
            model, model.get_parameters(), data.features, data.labels
        )
        loss, grad = model.loss_and_gradient(data.features, data.labels)
        assert loss == want_loss, _fingerprint()
        assert_same_bits(grad, want_grad, f"{name} on {rows} rows")
        assert model.loss(data.features, data.labels) == want_loss

    def test_parameter_rows_must_fit(self):
        model = LogisticRegressionModel(5)
        streams = build_batch_streams(
            partition_dataset(_dataset("logistic", 12, 0), 3), 4
        )
        with pytest.raises(TrainingError, match="one row per batch"):
            streams.gradients(model, 0, np.zeros((2, model.num_parameters)))
        with pytest.raises(TrainingError, match="one row per batch"):
            streams.gradients(model, 0, np.zeros(model.num_parameters + 1))


class TestStreamDefinition:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        count=st.integers(1, 8),
        extra=st.integers(0, 30),
        batch_size=st.integers(1, 9),
        step=STEPS,
        data=st.data(),
    )
    def test_index_row_is_the_seeded_draw(
        self, seed, count, extra, batch_size, step, data
    ):
        pid = data.draw(st.integers(0, count - 1))
        parts = partition_dataset(_dataset("linear", count + extra, 0), count)
        streams = build_batch_streams(parts, batch_size, seed=seed)
        n = parts[pid].num_samples
        want = reference_indices(seed, pid, step, n, min(batch_size, n))
        assert_same_bits(streams[pid].indices(step), want, "index row")
        x, y = streams[pid].batch(step)
        assert_same_bits(x, parts[pid].features[want], "batch features")
        assert_same_bits(y, parts[pid].labels[want], "batch labels")

    def test_splitmix64_is_the_published_generator(self):
        # The first output of SplitMix64 seeded with 0 (Vigna's
        # reference implementation), for the oracle and for both forms
        # of the library's hash: on Python ints and on uint64 arrays.
        assert splitmix64(0, 0) == 0xE220A8397B1DCDAF
        assert splitmix.counter_hash(0, 0) == 0xE220A8397B1DCDAF
        zero = np.zeros(1, dtype=np.uint64)
        terms = splitmix.weyl_terms(zero)
        assert splitmix.counter_hashes(zero, terms)[0] == 0xE220A8397B1DCDAF

    @pytest.mark.parametrize("pid", [2**63, 2**64 - 1])
    @pytest.mark.parametrize("step", [0, 2**64 - 1])
    def test_partition_ids_at_the_top_of_64_bits(self, pid, step):
        # A single row's key is hashed on Python ints: (pid + 1)·γ and
        # the sums must wrap at 2**64 exactly as uint64 arrays do.
        data = _dataset("linear", 11, 0)
        stream = datasets.BatchStream(data, pid, 9, seed=2023)
        want = reference_indices(2023, pid, step, 11, 9)
        assert_same_bits(stream.indices(step), want, f"row of {pid}")
        ids = np.array([[pid]], dtype=np.uint64)
        row = datasets.draw_indices(
            datasets.stream_key(2023), step, splitmix.weyl_terms(ids),
            np.array([[11]], dtype=np.uint64),
            splitmix.weyl_terms(np.arange(9)),
        )
        assert_same_bits(row[0], want, f"array row of {pid}")

    @pytest.mark.parametrize("step", ["3", -1, 1.5, True, None, 2**64])
    def test_step_must_be_a_non_negative_integer(self, step):
        # "3" used to draw step 3's batch; -1 and 1.5 leaked NumPy's
        # ValueError / TypeError from the generator's constructor; the
        # stream counts steps in 64 bits.
        model = LogisticRegressionModel(5)
        streams = build_batch_streams(
            partition_dataset(_dataset("logistic", 12, 0), 3), 4
        )
        with pytest.raises(TrainingError, match="step must be"):
            streams.gradients(model, step)
        with pytest.raises(TrainingError, match="step must be"):
            streams[0].batch(step)

    @pytest.mark.parametrize("seed", [None, -1, 1.5, "3", True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # None would seed SeedSequence from OS entropy: a silently
        # unrepeatable run.
        parts = partition_dataset(_dataset("logistic", 12, 0), 3)
        with pytest.raises(ConfigurationError, match="seed must be"):
            build_batch_streams(parts, 4, seed=seed)

    def test_numpy_integer_steps_are_steps(self):
        streams = build_batch_streams(
            partition_dataset(_dataset("logistic", 12, 0), 3), 4
        )
        assert_same_bits(
            streams[1].batch(np.int64(7))[0], streams[1].batch(7)[0], "batch"
        )

    def test_hand_built_stream_lists_are_refused(self):
        # Without the block there is nothing to gather from; N actors
        # each re-stacking their own copy would be the silent failure.
        parts = partition_dataset(_dataset("logistic", 12, 0), 2)
        streams = list(build_batch_streams(parts, 4))
        strategy = ISGCStrategy(CyclicRepetition(2, 1), wait_for=1)
        with pytest.raises(TrainingError, match="build_batch_streams"):
            RoundEngine(
                LogisticRegressionModel(5), streams, strategy,
                FlatBackend(ClusterSimulator(
                    2,
                    1,
                    Environment(),
                    rng=np.random.default_rng(0),
                )), SyncUpdate(SGD(0.1)),
            )


def _index_blocks(seed, sizes, width, steps):
    """``(len(steps), P, width)`` index rows of partitions of ``sizes``."""
    key = datasets.stream_key(seed)
    ids = splitmix.weyl_terms(np.arange(len(sizes))[:, None])
    column = np.array(sizes, dtype=np.uint64)[:, None]
    draws = splitmix.weyl_terms(np.arange(width))
    return np.stack([
        datasets.draw_indices(key, step, ids, column, draws)
        for step in steps
    ])


def _independence_p(a, b, n):
    """χ² test of independence of two index sequences over ``[0, n)``."""
    from scipy.stats import chi2_contingency

    table = np.zeros((n, n))
    np.add.at(table, (a, b), 1)
    return chi2_contingency(table).pvalue


class TestStreamStatistics:
    """The batch-index stream as a random source, at fixed seeds.

    Budgets follow the ``(1 − f)^s ≤ p_fail`` rule: a defect touching a
    fraction ``f`` of the samples escapes ``s`` independent ones with
    probability ``(1 − f)^s``, so ``s ≥ ln(1/p_fail) / f``.  The χ²
    tests use ``p ≥ 1e-6``: a correct stream fails one with probability
    1e-6, and the seeds are fixed, so the outcome never flickers.
    """

    SEEDS = [2023, 7]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_partition_is_uniform(self, seed):
        # 397 rows in 8 partitions: five of 50, three of 49.  A cell the
        # stream cannot reach (f = 1/50 of the draws) escapes s = 20 000
        # draws with (1 − 1/50)^20000 ≈ e^-404; each cell expects ≈ 400.
        from scipy.stats import chisquare

        sizes = [50] * 5 + [49] * 3
        blocks = _index_blocks(seed, sizes, 8, range(2500))
        for pid, n in enumerate(sizes):
            counts = np.bincount(blocks[:, pid].ravel(), minlength=n)
            assert len(counts) == n and counts.min() > 0, pid
            assert chisquare(counts).pvalue >= 1e-6, (pid, counts)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_partitions_steps_draws_and_seeds_are_independent(self, seed):
        # 12 × 12 contingency tables over s = 6 000 rounds (≈ 42 a
        # cell): the draw of partition 0 against partition 1 (same
        # step), step t + 1 (same partition), its next draw (same row)
        # and seed + 1 (same coordinates).
        sizes, steps = [12] * 8, range(6001)
        blocks = _index_blocks(seed, sizes, 2, steps)
        other_seed = _index_blocks(seed + 1, sizes, 2, steps)
        first = blocks[:-1, 0, 0]
        pairs = {
            "partition": blocks[:-1, 1, 0],
            "step": blocks[1:, 0, 0],
            "draw": blocks[:-1, 0, 1],
            "seed": other_seed[:-1, 0, 0],
        }
        for name, second in pairs.items():
            assert _independence_p(first, second, 12) >= 1e-6, name

    @pytest.mark.parametrize("seed", SEEDS)
    def test_no_two_coordinates_share_a_row(self, seed):
        # Rows of 16 draws from 1 000: equal by chance with probability
        # 1e-48.  A key that ignores, or aliases, a coordinate on a
        # fraction f = 1 % of pairs escapes s = 2 000 sampled pairs with
        # (0.99)^2000 ≈ 1.9e-9.
        rng = np.random.default_rng(seed)
        key = datasets.stream_key(seed)
        size = np.uint64(1000)
        draws = splitmix.weyl_terms(np.arange(16))

        def row(key, step, pid):
            return tuple(datasets.draw_indices(key, step, pid, size, draws))

        other = datasets.stream_key(seed + 1)
        for _ in range(500):
            step = int(rng.integers(2**63))
            pid = int(rng.integers(2**32))
            here = row(key, step, pid)
            for there in (
                row(key, step, pid + 1), row(key, step + 1, pid),
                row(key, pid, step), row(other, step, pid),
            ):
                assert here != there, (step, pid)


class TestActorRoundSharesReplicaGradients:
    """The actor round differentiates each partition once, whichever
    ``c`` workers store it, and its payloads equal each worker encoding
    its own partitions."""

    def _engine(self):
        spec = ExperimentSpec(
            name="actor-share", scheme="is-gc-cr", backend="actor",
            num_workers=6, partitions_per_worker=2, wait_for=4,
            max_steps=4, seed=5,
        )
        return spec, build_engine(spec)

    def test_each_partition_is_evaluated_once_per_round(self, monkeypatch):
        _, engine = self._engine()
        evaluated = []
        stacked = engine.model.stacked_loss_and_gradient

        def counting(x, y, parameters=None):
            evaluated.append(np.shape(x)[:2])
            return stacked(x, y, parameters)

        monkeypatch.setattr(
            engine.model, "stacked_loss_and_gradient", counting
        )
        engine.start_run(3)
        engine.step_rounds(3)
        # The held-out loss is one more (1, N) call per round.
        held_out = (1, engine.eval_data.num_samples)
        batches = [shape for shape in evaluated if shape != held_out]
        # 6 workers × 2 replicas store them; 6 partitions are differentiated.
        assert sum(stack for stack, _ in batches) == 3 * engine.num_partitions

    def test_uploads_equal_the_per_worker_loop(self):
        spec, engine = self._engine()
        engine.start_run(4)
        engine.step_rounds(2)
        parameters = engine.model.get_parameters()
        execution = engine.backend.execute_round(
            engine, 2, engine.strategy.policy
        )
        # build_engine's seed discipline: partitions seed+1, streams
        # seed+2; the eval set is the whole dataset.
        parts = reference_partitions(
            engine.eval_data, engine.num_partitions, spec.seed + 1
        )
        _, want = reference_round(
            "logistic", engine.model, parts, spec.dataset["batch_size"],
            spec.seed + 2, 2, [parameters] * len(parts),
        )
        placement = engine.strategy.placement
        for worker in range(placement.num_workers):
            first, *rest = placement.partitions_of(worker)
            expected = want[first].copy()
            for p in rest:
                expected += want[p]
            assert_same_bits(
                execution.payloads[worker], expected,
                f"worker {worker} payload",
            )


class TestEngineEqualsInlineLoop:
    """The pre-engine sync loop (PR 1's, kept as ``bench_engine``'s
    reference until that script was retired) on Fig. 11's cluster
    shape, with the oracle's gradients: same losses, bit for bit."""

    N, C, W, STEPS = 24, 2, 6, 25

    def _parts(self, trace):
        model = LogisticRegressionModel(8, seed=0)
        strategy = ISGCStrategy(
            CyclicRepetition(self.N, self.C), wait_for=self.W,
            rng=np.random.default_rng(7),
        )
        cluster = ClusterSimulator(
            num_workers=self.N,
            partitions_per_worker=self.C,
            environment=Environment(
                delay=TraceReplayModel(trace),
                compute=ComputeModel(0.1, 1.6),
            ),
            rng=np.random.default_rng(0),
        )
        return model, strategy, cluster, SGD(0.3)

    def test_loss_trajectories_identical(self):
        dataset = make_classification(1536, 8, num_classes=2, seed=1)
        trace = DelayTrace.record(
            ExponentialDelay(1.5, affected=range(12)),
            self.N, self.STEPS, np.random.default_rng(4),
        )
        parts = reference_partitions(dataset, self.N, seed=2)

        model, strategy, cluster, optimizer = self._parts(trace)
        inline = []
        for step in range(self.STEPS):
            theta = model.get_parameters()
            batch_losses, grads = reference_round(
                "logistic", model, parts, 32, 3, step, [theta] * self.N
            )
            payloads = strategy.encode(grads)
            result = cluster.run_round(step, strategy.policy)
            grad_sum, recovered = strategy.decode(
                result.outcome.accepted_workers, payloads
            )
            model.set_parameters(
                optimizer.update(theta, grad_sum / len(recovered))
            )
            inline.append(held_out_loss(
                model, dataset, fallback_losses=list(batch_losses)
            ))

        model, strategy, cluster, optimizer = self._parts(trace)
        streams = build_batch_streams(
            partition_dataset(dataset, self.N, seed=2), 32, seed=3
        )
        engine = RoundEngine(
            model, streams, strategy, FlatBackend(cluster),
            SyncUpdate(optimizer), eval_data=dataset,
        )
        assert list(engine.run(self.STEPS).loss_curve) == inline, (
            _fingerprint()
        )
