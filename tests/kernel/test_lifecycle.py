"""Tests for the kernel's churn/epoch lifecycle layer.

Covers the declarative specs (validation, defaults), the engine's
alive-mask growth/shrink and row-recycling mechanics, epoch restart
semantics, and the size-estimation oracle: converged counting
estimates equal 1/⟨x⟩ of the indicator vector.
"""

import numpy as np
import pytest

from repro.core import (
    MeanAggregate,
    SizeEstimationConfig,
    SizeEstimationExperiment,
)
from repro.core.service import AggregationService
from repro.errors import ConfigurationError, SimulationError
from repro.failures import ConstantRateChurn, NoChurn
from repro.failures.partition import PartitionSchedule
from repro.kernel import (
    ChurnSpec,
    EpochSpec,
    GossipEngine,
    MessageFaultSpec,
    Scenario,
)
from repro.topology import CompleteTopology, RingTopology


def scenario_with(n=64, seed=5, **kwargs):
    values = np.random.default_rng(2).normal(10.0, 3.0, n)
    return Scenario(CompleteTopology(n), values, seed=seed, **kwargs)


class TestSpecValidation:
    def test_churn_spec_requires_model(self):
        with pytest.raises(ConfigurationError):
            ChurnSpec(model="not a model")

    def test_churn_spec_rejoin_policy(self):
        with pytest.raises(ConfigurationError):
            ChurnSpec(model=NoChurn(), rejoin="respawn")

    def test_epoch_spec_requires_positive_length(self):
        with pytest.raises(ConfigurationError):
            EpochSpec(cycles_per_epoch=0)

    def test_epoch_spec_function_type(self):
        with pytest.raises(ConfigurationError):
            EpochSpec(cycles_per_epoch=10, function="avg")

    def test_scenario_wraps_bare_churn_model(self):
        scenario = scenario_with(churn=ConstantRateChurn(1, 1))
        assert isinstance(scenario.churn, ChurnSpec)
        assert scenario.is_dynamic

    def test_scenario_rejects_partition_with_churn(self):
        with pytest.raises(ConfigurationError):
            scenario_with(
                churn=ConstantRateChurn(1, 1),
                partition=PartitionSchedule.random_split(
                    64, 2, start=0, end=4, seed=1
                ),
            )

    def test_scenario_rejects_crash_plan_with_churn(self):
        from repro.failures import CrashPlan

        plan = CrashPlan()
        plan.add(3, [1, 2])
        with pytest.raises(ConfigurationError):
            scenario_with(churn=ConstantRateChurn(1, 1), crash_plan=plan)

    def test_scenario_rejects_sparse_topology_with_churn(self):
        with pytest.raises(ConfigurationError):
            Scenario(
                RingTopology(64),
                np.zeros(64),
                churn=ConstantRateChurn(1, 1),
            )


class TestChurnMechanics:
    def test_net_growth_extends_matrix(self):
        engine = GossipEngine(
            scenario_with(churn=ConstantRateChurn(4, 1), backend="reference")
        )
        engine.run(20)
        assert engine.alive_count == 64 + 20 * 3
        assert engine.capacity >= engine.alive_count

    def test_recycling_bounds_capacity(self):
        """Steady-state churn (joins == leaves) reuses departed slots
        instead of growing the matrix."""
        engine = GossipEngine(
            scenario_with(churn=ConstantRateChurn(5, 5), backend="reference")
        )
        engine.run(40)
        assert engine.alive_count == 64
        # at most one cycle's joins can outrun the free list
        assert engine.capacity <= 64 + 5

    def test_leaves_never_empty_network(self):
        engine = GossipEngine(
            scenario_with(n=8, churn=ConstantRateChurn(0, 100))
        )
        engine.run(10)
        assert engine.alive_count == 1

    def test_join_values_seed_rows(self):
        spec = ChurnSpec(
            model=ConstantRateChurn(3, 0),
            join_values=lambda count, rng: np.full(count, 42.0),
        )
        # losing every request freezes gossip so only churn touches
        # the matrix
        engine = GossipEngine(scenario_with(
            churn=spec, message_faults=MessageFaultSpec(request_loss=1.0)
        ))
        engine.run(2)
        assert engine.alive_count == 64 + 6
        # the six joiner slots carry the declared join value (slots
        # beyond them are grown-but-unused capacity)
        joined = engine.matrix[engine.alive_mask, 0][64:]
        assert len(joined) == 6
        assert np.all(joined == 42.0)

    def test_rejoin_keep_preserves_departed_state(self):
        """With rejoin="keep" a recycled slot retains the value the
        departed node left behind; with "reset" it is re-seeded."""
        outcomes = {}
        for policy in ("keep", "reset"):
            spec = ChurnSpec(
                model=ConstantRateChurn(2, 2),
                rejoin=policy,
                join_values=lambda count, rng: np.full(count, -1.0),
            )
            engine = GossipEngine(scenario_with(
                churn=spec, seed=9,
                message_faults=MessageFaultSpec(request_loss=1.0),
            ))
            initial = engine.matrix[:, 0]
            engine.run(5)
            recycled = engine.matrix[:64, 0]
            outcomes[policy] = (initial, recycled)
        initial, kept = outcomes["keep"]
        assert np.array_equal(kept, initial)  # departed values survive
        _, reset = outcomes["reset"]
        assert np.any(reset == -1.0)  # some slots were re-seeded

    def test_bad_join_values_shape(self):
        spec = ChurnSpec(
            model=ConstantRateChurn(3, 0),
            join_values=lambda count, rng: np.zeros(count + 1),
        )
        engine = GossipEngine(scenario_with(churn=spec))
        with pytest.raises(SimulationError):
            engine.run(1)


class TestEpochMechanics:
    def test_joiners_wait_for_next_epoch(self):
        engine = GossipEngine(
            scenario_with(
                churn=ConstantRateChurn(2, 0),
                epochs=EpochSpec(cycles_per_epoch=10),
            )
        )
        engine.run(5)
        assert engine.alive_count == 64 + 10
        assert engine.participant_count == 64  # joiners not yet gossiping
        engine.run(5)  # crosses the epoch boundary
        engine.run(1)
        assert engine.participant_count == engine.alive_count - 2

    def test_default_restart_reseeds_from_attributes(self):
        scenario = scenario_with(epochs=EpochSpec(cycles_per_epoch=4))
        engine = GossipEngine(scenario)
        initial = engine.matrix.copy()
        engine.run(3)
        assert not np.array_equal(engine.matrix, initial)
        engine.run(1)  # cycle 4 starts epoch 1: x_i <- a_i again, then one cycle
        # mean is conserved and the restart happened (variance jumped back)
        assert engine.mean() == pytest.approx(float(initial[:, 0].mean()))

    def test_finalize_only_for_completed_epochs(self):
        views = []
        scenario = scenario_with(
            epochs=EpochSpec(
                cycles_per_epoch=10, finalize=lambda view: view
            )
        )
        result = GossipEngine(scenario).run(25)
        views = result.epoch_results
        assert [view.epoch for view in views] == [0, 1]  # epoch 2 incomplete
        assert views[0].start_cycle == 0
        assert views[0].end_cycle == 9
        assert views[1].start_cycle == 10

    def test_boundary_finalize_not_duplicated(self):
        scenario = scenario_with(
            epochs=EpochSpec(cycles_per_epoch=5, finalize=lambda v: v.epoch)
        )
        engine = GossipEngine(scenario)
        first = engine.run(10)  # finalizes epochs 0 and 1 (boundary)
        second = engine.run(5)  # must not re-finalize epoch 1
        # per-run results concatenate cleanly (like exchange_counts)...
        assert first.epoch_results == [0, 1]
        assert second.epoch_results == [2]
        # ...while the engine keeps the cumulative view
        assert engine.epoch_results == [0, 1, 2]

    def test_variable_instance_count_reseed(self):
        """A reseed may change the number of instances; new columns run
        the epoch spec's AGGREGATE."""

        def reseed(context):
            return np.ones((len(context.participants), 2 + context.epoch))

        scenario = scenario_with(
            epochs=EpochSpec(cycles_per_epoch=3, reseed=reseed)
        )
        engine = GossipEngine(scenario)
        engine.run(3)
        assert engine.matrix.shape[1] == 2
        engine.run(3)
        assert engine.matrix.shape[1] == 3
        assert engine.instance_names == (0, 1, 2)


class TestSizeEstimationOracle:
    def test_estimate_is_inverse_mean_of_indicator(self):
        """The §4 counting oracle: AVG conserves the mean, so a fully
        converged node holds ⟨x⟩ of the indicator vector exactly and
        estimates N as 1/⟨x⟩."""
        n = 128
        indicator = np.zeros(n)
        indicator[17] = 1.0
        scenario = Scenario(
            CompleteTopology(n), indicator, seed=3, backend="reference"
        )
        engine = GossipEngine(scenario)
        engine.run(60)
        converged = engine.alive_column()
        true_mean = indicator.mean()  # ⟨x⟩ = 1/128
        assert np.allclose(converged, true_mean, rtol=1e-9)
        estimates = 1.0 / converged
        assert np.allclose(estimates, 1.0 / true_mean, rtol=1e-9)
        assert 1.0 / true_mean == n

    def test_experiment_estimates_equal_inverse_mean(self):
        """End to end through SizeEstimationExperiment: every node's
        reported estimate converges to 1/⟨x⟩ = N."""
        config = SizeEstimationConfig(
            cycles=50, cycles_per_epoch=50, initial_size=200, seed=6
        )
        experiment = SizeEstimationExperiment(config)
        report = experiment.run()[0]
        assert report.reporting_nodes == 200
        assert report.estimate_mean == pytest.approx(200, rel=1e-6)
        assert report.estimate_min == pytest.approx(200, rel=1e-6)
        assert report.estimate_max == pytest.approx(200, rel=1e-6)


class TestServiceEpochs:
    def test_run_epochs_reports_per_epoch(self):
        n = 256
        values = np.random.default_rng(4).lognormal(3.0, 0.5, n)
        service = AggregationService(
            CompleteTopology(n), values, seed=12, backend="reference"
        )
        reports = service.run_epochs(epochs=3, cycles_per_epoch=30)
        assert len(reports) == 3
        for report in reports:
            assert report.mean == pytest.approx(values.mean(), rel=1e-6)
            assert report.maximum == pytest.approx(values.max())
            assert report.network_size == pytest.approx(n, rel=1e-3)
            assert report.cycles == 30

    def test_run_epochs_backend_equivalent(self):
        n = 128
        values = np.random.default_rng(5).normal(20.0, 5.0, n)
        reports = {}
        for backend in ("reference", "vectorized"):
            service = AggregationService(
                CompleteTopology(n), values, seed=13, backend=backend
            )
            reports[backend] = service.run_epochs(
                epochs=2, cycles_per_epoch=20
            )
        for ref, vec in zip(reports["reference"], reports["vectorized"]):
            assert ref.as_dict() == vec.as_dict()

    def test_run_epochs_validation(self):
        service = AggregationService(
            CompleteTopology(16), np.ones(16), seed=1
        )
        with pytest.raises(ConfigurationError):
            service.run_epochs(epochs=0)
        with pytest.raises(ConfigurationError):
            service.run_epochs(cycles_per_epoch=0)
        with pytest.raises(ConfigurationError):
            service.run_epochs(probe_node=99)
