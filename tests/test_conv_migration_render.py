"""Tests for the conv classifier, placement migration, and graph art."""

import numpy as np
import pytest

from repro.core import (
    CyclicRepetition,
    FractionalRepetition,
    HybridRepetition,
    conflict_graph,
    migration_cost_seconds,
    migration_plan,
    worth_migrating,
)
from repro.exceptions import ConfigurationError, TrainingError
from repro.graphs import Graph, adjacency_art, edge_list_art
from repro.simulation import NetworkModel
from repro.training import Conv2DClassifier, make_cifar_like


class TestConv2DClassifier:
    @pytest.fixture
    def model(self):
        return Conv2DClassifier(
            side=6, in_channels=2, num_filters=3, num_classes=3,
            kernel=3, seed=1,
        )

    def test_parameter_roundtrip(self, model, rng):
        params = rng.normal(size=model.num_parameters)
        model.set_parameters(params)
        np.testing.assert_allclose(model.get_parameters(), params)

    def test_gradient_matches_finite_differences(self, model, rng):
        x = rng.normal(size=(4, 6 * 6 * 2))
        y = rng.integers(3, size=4)
        _, grad = model.loss_and_gradient(x, y)
        base = model.get_parameters()
        eps = 1e-6
        numeric = np.zeros_like(base)
        for i in range(base.size):
            bump = np.zeros_like(base)
            bump[i] = eps
            model.set_parameters(base + bump)
            hi = model.loss(x, y)
            model.set_parameters(base - bump)
            lo = model.loss(x, y)
            numeric[i] = (hi - lo) / (2 * eps)
        model.set_parameters(base)
        np.testing.assert_allclose(grad, numeric, atol=1e-5)

    def test_learns_cifar_like(self):
        ds = make_cifar_like(512, side=6, num_classes=4, seed=0)
        model = Conv2DClassifier(6, 3, 8, 4, seed=0)
        initial = model.loss(ds.features, ds.labels)
        rng = np.random.default_rng(1)
        for _ in range(150):
            idx = rng.integers(512, size=64)
            _, grad = model.loss_and_gradient(ds.features[idx], ds.labels[idx])
            model.set_parameters(model.get_parameters() - 0.1 * grad)
        final = model.loss(ds.features, ds.labels)
        assert final < 0.8 * initial

    def test_predict_shape(self, model, rng):
        x = rng.normal(size=(7, 6 * 6 * 2))
        assert model.predict(x).shape == (7,)

    def test_validation(self):
        with pytest.raises(TrainingError):
            Conv2DClassifier(side=3, in_channels=1, num_filters=2,
                             num_classes=2, kernel=3)
        with pytest.raises(TrainingError):
            Conv2DClassifier(side=8, in_channels=0, num_filters=2,
                             num_classes=2)


class TestMigration:
    def test_noop_migration(self):
        pl = CyclicRepetition(6, 2)
        plan = migration_plan(pl, pl)
        assert plan.is_noop
        assert plan.total_partition_copies == 0
        assert migration_cost_seconds(plan, 1e6) == 0.0

    def test_cr_to_fr_copies_counted(self):
        source = CyclicRepetition(8, 2)
        target = FractionalRepetition(8, 2)
        plan = migration_plan(source, target)
        # Odd workers swap their forward partition for the backward one.
        assert plan.total_partition_copies == 4
        assert not plan.is_noop
        # Every copy's donor actually holds the partition at the source.
        for worker, fetches in plan.copies.items():
            for partition, donor in fetches:
                assert partition in source.partitions_of(donor)
                assert partition in target.partitions_of(worker)
                assert partition not in source.partitions_of(worker)

    def test_hr_sweep_step_is_cheap(self):
        """Moving one step along the Fig. 13 spectrum touches few
        partitions — the case for online adaptation."""
        a = HybridRepetition(8, 1, 3, 2)
        b = HybridRepetition(8, 2, 2, 2)
        plan = migration_plan(a, b)
        assert 0 < plan.total_partition_copies <= 8

    def test_donor_load_balancing(self):
        source = FractionalRepetition(8, 2)
        target = CyclicRepetition(8, 2)
        plan = migration_plan(source, target)
        donors = [d for fetches in plan.copies.values() for _, d in fetches]
        # No single donor should serve everything.
        from collections import Counter
        assert max(Counter(donors).values()) <= 2

    def test_cost_scales_with_parallel_fetches(self):
        source = CyclicRepetition(8, 2)
        target = FractionalRepetition(8, 2)
        plan = migration_plan(source, target)
        net = NetworkModel(latency=0.0, bandwidth=1e6)
        cost = migration_cost_seconds(plan, partition_bytes=2e6, network=net)
        # max 1 copy per worker → one 2-second transfer, in parallel.
        assert cost == pytest.approx(2.0 * plan.max_copies_per_worker)

    def test_worth_migrating_amortisation(self):
        source = CyclicRepetition(8, 2)
        target = FractionalRepetition(8, 2)
        plan = migration_plan(source, target)
        net = NetworkModel(latency=0.0, bandwidth=1e6)
        assert worth_migrating(
            plan, partition_bytes=1e6, per_step_saving=0.5,
            remaining_steps=100, network=net,
        )
        assert not worth_migrating(
            plan, partition_bytes=1e6, per_step_saving=0.001,
            remaining_steps=10, network=net,
        )

    def test_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            migration_plan(CyclicRepetition(4, 2), CyclicRepetition(6, 2))

    def test_validation(self):
        plan = migration_plan(CyclicRepetition(4, 2), CyclicRepetition(4, 2))
        with pytest.raises(ConfigurationError):
            migration_cost_seconds(plan, -1.0)
        with pytest.raises(ConfigurationError):
            worth_migrating(plan, 1.0, -0.1, 10)


class TestGraphArt:
    def test_adjacency_art_structure(self):
        g = conflict_graph(CyclicRepetition(4, 2))
        art = adjacency_art(g)
        lines = art.splitlines()
        assert len(lines) == 5  # header + 4 rows
        assert "#" in art and "\\" in art

    def test_adjacency_art_symmetric(self):
        g = conflict_graph(CyclicRepetition(5, 2))
        rows = adjacency_art(g).splitlines()[1:]
        cells = [r.split()[1:] for r in rows]
        for i in range(5):
            for j in range(5):
                assert cells[i][j] == cells[j][i]

    def test_edge_list_art(self):
        g = conflict_graph(FractionalRepetition(4, 2))
        art = edge_list_art(g)
        assert "W0 -- W1" in art
        assert "W2 -- W3" in art

    def test_edge_list_isolated_vertex(self):
        g = Graph(vertices=[0])
        assert "no conflicts" in edge_list_art(g)

    def test_empty_graph_rejected(self):
        with pytest.raises(ConfigurationError):
            adjacency_art(Graph())
        with pytest.raises(ConfigurationError):
            edge_list_art(Graph())


class TestMigrationProperties:
    """Property-based checks on migration planning (hypothesis)."""

    def _placements(self):
        from repro.core import HybridRepetition
        return [
            CyclicRepetition(8, 2),
            FractionalRepetition(8, 2),
            CyclicRepetition(8, 4),
            FractionalRepetition(8, 4),
            HybridRepetition(8, 2, 2, 2),
            HybridRepetition(8, 1, 3, 2),
        ]

    def test_plan_realises_target(self):
        """source ∪ fetched == target for every worker, every pair."""
        for source in self._placements():
            for target in self._placements():
                if source.partitions_per_worker != target.partitions_per_worker:
                    continue
                plan = migration_plan(source, target)
                for worker in range(8):
                    have = set(source.partitions_of(worker))
                    for partition, _donor in plan.copies.get(worker, []):
                        have.add(partition)
                    assert set(target.partitions_of(worker)) <= have

    def test_plan_noop_iff_identical(self):
        for source in self._placements():
            for target in self._placements():
                if source.partitions_per_worker != target.partitions_per_worker:
                    continue
                plan = migration_plan(source, target)
                same = all(
                    set(source.partitions_of(w)) == set(target.partitions_of(w))
                    for w in range(8)
                )
                assert plan.is_noop == same

    def test_total_matches_per_worker_sum(self):
        for source in self._placements():
            for target in self._placements():
                if source.partitions_per_worker != target.partitions_per_worker:
                    continue
                plan = migration_plan(source, target)
                assert plan.total_partition_copies == sum(
                    len(lst) for lst in plan.copies.values()
                )
                assert plan.max_copies_per_worker == max(
                    (len(lst) for lst in plan.copies.values()), default=0
                )
