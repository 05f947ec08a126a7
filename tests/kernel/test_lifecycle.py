"""Tests for the kernel's churn/epoch lifecycle layer.

Covers the declarative specs (validation, defaults), the churn
traces' per-cycle counts, the engine's alive-mask growth/shrink and
row-recycling mechanics, epoch restart semantics, the size-estimation
oracle (converged counting estimates equal 1/⟨x⟩ of the indicator
vector), and the runs pinned before the churn-model classes went.
"""

import contextlib
import dataclasses
import hashlib
import io
import re

import numpy as np
import pytest

from repro.core import (
    MeanAggregate,
    SizeEstimationConfig,
    SizeEstimationExperiment,
)
from repro.core.service import service_epochs_scenario
from repro.errors import ConfigurationError
from repro.cli import main
from repro.kernel import (
    ChurnStep,
    ChurnTrace,
    EpochSpec,
    GossipEngine,
    MessageFaultSpec,
    RetrySpec,
    Scenario,
)
from repro.topology import CompleteTopology, RingTopology


def scenario_with(n=64, seed=5, **kwargs):
    values = np.random.default_rng(2).normal(10.0, 3.0, n)
    return Scenario(CompleteTopology(n), values, seed=seed, **kwargs)


class TestSpecValidation:
    @pytest.mark.parametrize("joins, leaves", [
        ([-1], [0]),
        ([1, 2], [0]),
        ([[1]], [[0]]),
        ([1.7], [0]),
        ([float("nan")], [0]),
        ([0], [float("inf")]),
        (["1"], [0]),
    ], ids=["negative", "lengths", "2-D", "fraction", "nan", "inf", "text"])
    def test_churn_trace_rejects_bad_counts(self, joins, leaves):
        with pytest.raises(ConfigurationError):
            ChurnTrace(joins, leaves)

    @pytest.mark.parametrize("build", [
        lambda: ChurnTrace.from_events([0], [1], cycles=-1),
        lambda: ChurnTrace.from_events([1], [2], cycles=2.5),
        lambda: ChurnTrace.from_events([1], [2], cycles=True),
        lambda: ChurnTrace.from_sessions([1], [1], cycles=2.5),
        lambda: ChurnTrace.constant(-1, 1, 1),
        lambda: ChurnTrace.constant(3, -1, 0),
        lambda: ChurnTrace.diurnal(100, 10, period=5, amplitude=100),
        lambda: ChurnTrace.diurnal(100, 10, period=5, amplitude=10,
                                   fluctuation=-1),
        lambda: ChurnTrace.diurnal(100, 0, period=5, amplitude=10),
    ], ids=["events-cycles", "events-float-cycles", "events-bool-cycles",
            "sessions-float-cycles", "constant-cycles", "constant-rate",
            "amplitude", "fluctuation", "diurnal-cycles"])
    def test_churn_trace_generators_validated(self, build):
        with pytest.raises(ConfigurationError):
            build()

    def test_whole_float_counts_are_accepted(self):
        trace = ChurnTrace([2.0, 0.0], np.array([1, 3], dtype=np.uint8))
        assert trace.joins.tolist() == [2, 0]
        assert trace.leaves.dtype == np.int64

    def test_facade_passes_churn_trace_through(self):
        """``SizeEstimationExperiment`` hands its ``churn`` to the
        scenario as given."""
        trace = ChurnTrace.constant(4, 3, 1)
        experiment = SizeEstimationExperiment(
            SizeEstimationConfig(cycles=4, cycles_per_epoch=2,
                                 initial_size=40, seed=1),
            churn=trace,
        )
        assert experiment.scenario().churn is trace
        experiment.run()
        assert experiment.current_size == 40 + 4 * 2

    def test_scenario_takes_a_churn_trace(self):
        trace = ChurnTrace.constant(1, 1, 1)
        scenario = scenario_with(churn=trace)
        assert scenario.churn is trace
        assert scenario.is_dynamic

    def test_scenario_rejects_crash_plan_with_churn(self):
        from repro.failures import CrashPlan

        plan = CrashPlan()
        plan.add(3, [1, 2])
        with pytest.raises(ConfigurationError):
            scenario_with(churn=ChurnTrace.constant(4, 1, 1),
                          crash_plan=plan)

    def test_scenario_rejects_sparse_topology_with_churn(self):
        with pytest.raises(ConfigurationError):
            Scenario(
                RingTopology(64),
                np.zeros(64),
                churn=ChurnTrace.constant(4, 1, 1),
            )


class TestChurnTraces:
    def test_constant_repeats_one_step(self):
        trace = ChurnTrace.constant(3, 4, 2)
        assert [trace.step(c, 100) for c in range(3)] == [ChurnStep(4, 2)] * 3
        assert trace.step(3, 100) == ChurnStep(0, 0)  # quiescent after

    def test_step_never_empties_network(self):
        trace = ChurnTrace([3], [50])
        assert trace.step(0, 10) == ChurnStep(3, 9)
        assert trace.step(0, 1).leaves == 0
        assert trace.step(0, 0).leaves == 0

    def test_diurnal_follows_its_target(self):
        """Applied open-loop, the steps walk the size along
        ``n + amplitude·sin(2π·cycle/period)``, through both extremes
        and back to ``n`` after each period."""
        n, amplitude, period = 1000, 100, 40
        trace = ChurnTrace.diurnal(n, 2 * period, period=period,
                                   amplitude=amplitude)
        size, sizes = n, []
        for cycle in range(trace.cycles):
            step = trace.step(cycle, size)
            size += step.joins - step.leaves
            sizes.append(size)
        targets = np.rint(n + amplitude * np.sin(
            2.0 * np.pi * np.arange(1, 2 * period + 1) / period
        ))
        assert sizes == targets.tolist()
        assert (max(sizes), min(sizes)) == (n + amplitude, n - amplitude)
        assert sizes[period - 1] == sizes[-1] == n

    def test_fluctuation_applies_to_joins_and_leaves(self):
        flat = ChurnTrace.diurnal(1000, 10, period=10, amplitude=0,
                                  fluctuation=7)
        assert flat.joins.tolist() == flat.leaves.tolist() == [7] * 10
        wave = ChurnTrace.diurnal(1000, 10, period=10, amplitude=50,
                                  fluctuation=7)
        plain = ChurnTrace.diurnal(1000, 10, period=10, amplitude=50)
        assert np.array_equal(wave.joins, plain.joins + 7)
        assert np.array_equal(wave.leaves, plain.leaves + 7)


class TestChurnMechanics:
    def test_net_growth_extends_matrix(self):
        engine = GossipEngine(scenario_with(
            churn=ChurnTrace.constant(20, 4, 1), backend="reference"
        ))
        engine.run(20)
        assert engine.alive_count == 64 + 20 * 3
        assert engine.capacity >= engine.alive_count

    def test_recycling_bounds_capacity(self):
        """Steady-state churn (joins == leaves) reuses departed slots
        instead of growing the matrix."""
        engine = GossipEngine(scenario_with(
            churn=ChurnTrace.constant(40, 5, 5), backend="reference"
        ))
        engine.run(40)
        assert engine.alive_count == 64
        # at most one cycle's joins can outrun the free list
        assert engine.capacity <= 64 + 5

    def test_leaves_never_empty_network(self):
        engine = GossipEngine(
            scenario_with(n=8, churn=ChurnTrace.constant(10, 0, 100))
        )
        engine.run(10)
        assert engine.alive_count == 1

    def test_joiners_start_from_zero(self):
        """§4: a joiner enters with 0 in every instance, in a recycled
        slot as in a fresh one."""
        # losing every request freezes gossip so only churn touches
        # the matrix
        engine = GossipEngine(scenario_with(
            churn=ChurnTrace.constant(4, 3, 2), seed=9,
            message_faults=MessageFaultSpec(request_loss=1.0),
        ))
        initial = engine.matrix[:, 0]
        engine.run(4)
        alive = engine.alive_mask
        column = engine.matrix[:64, 0]
        recycled = alive[:64] & (column != initial)
        assert recycled.any()
        assert np.all(column[recycled] == 0.0)
        fresh = engine.matrix[64:][alive[64:]]
        assert len(fresh) and np.all(fresh == 0.0)


class TestEpochMechanics:
    def test_joiners_wait_for_next_epoch(self):
        engine = GossipEngine(
            scenario_with(
                churn=ChurnTrace.constant(11, 2, 0),
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


def _epoch_reports(n, values, **fields):
    scenario = service_epochs_scenario(CompleteTopology(n), values, **fields)
    with GossipEngine(scenario) as engine:
        return engine.run().epoch_results


class TestServiceEpochs:
    def test_run_epochs_reports_per_epoch(self):
        n = 256
        values = np.random.default_rng(4).lognormal(3.0, 0.5, n)
        reports = _epoch_reports(n, values, epochs=3, cycles_per_epoch=30,
                                 seed=12, backend="reference")
        assert len(reports) == 3
        for report in reports:
            assert report.mean == pytest.approx(values.mean(), rel=1e-6)
            assert report.maximum == pytest.approx(values.max())
            assert report.network_size == pytest.approx(n, rel=1e-3)
            assert report.cycles == 30

    def test_run_epochs_backend_equivalent(self):
        n = 128
        values = np.random.default_rng(5).normal(20.0, 5.0, n)
        reports = {
            backend: _epoch_reports(n, values, epochs=2, cycles_per_epoch=20,
                                    seed=13, backend=backend)
            for backend in ("reference", "vectorized")
        }
        for ref, vec in zip(reports["reference"], reports["vectorized"]):
            assert ref.as_dict() == vec.as_dict()

    @pytest.mark.parametrize("fields", [
        dict(epochs=0), dict(cycles_per_epoch=0), dict(probe_node=99),
        dict(probe_node=1.7), dict(probe_node=True),
    ])
    def test_run_epochs_validation(self, fields):
        with pytest.raises(ConfigurationError):
            service_epochs_scenario(CompleteTopology(16), np.ones(16),
                                    seed=1, **fields)


class TestPinnedChurnRuns:
    """What a ``git archive`` of a6cba58 reached while churn was still
    a class hierarchy beside ``ChurnTrace``: the default
    ``SizeEstimationExperiment`` (a no-churn model), ``figure4
    --churn-trace diurnal``, and a constant-rate model (9 joins, 14
    leaves per cycle) under epochs, message faults and retry.
    ``churn=None`` and ``ChurnTrace.constant`` reach each state bit
    for bit."""

    DEFAULT = (
        "5c80aed62dc93b3e9484b52394b47c4a83f08f6d85b288fc2b8a6ae2cbf436f2"
    )
    FIGURE4 = (
        "9438e2f813f5c40557e0b8c4b928c650cd571bfb972aa714843c9bd557d4ad02"
    )
    CONSTANT = (
        "7fef52773b63002dfa35e7267272e45a7f2b06e7c4edcec1d2de57981d403f40"
    )

    @staticmethod
    def _digest(*parts):
        digest = hashlib.sha256()
        for part in parts:
            digest.update(
                part.tobytes() if isinstance(part, np.ndarray)
                else repr(part).encode()
            )
        return digest.hexdigest()

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_default_experiment(self, backend):
        experiment = SizeEstimationExperiment(
            SizeEstimationConfig(cycles=60, initial_size=800, seed=3),
            backend=backend,
        )
        experiment.run()
        engine = experiment._engine
        assert self._digest(
            [dataclasses.astuple(report) for report in experiment.reports],
            experiment.size_trace, engine.alive_mask,
            engine._rng.bit_generator.state,
        ) == self.DEFAULT

    def test_figure4_diurnal(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["figure4", "--n", "2000", "--cycles", "60",
                         "--churn-trace", "diurnal"]) == 0
        # the title's wall-clock reading is the one varying part
        table = re.sub(r" in [0-9.]+s\)", ")", out.getvalue())
        assert self._digest(table) == self.FIGURE4

    @pytest.mark.parametrize("backend",
                             ["reference", "vectorized", "sharded:2"])
    def test_constant_churn_with_faults_and_retry(self, backend):
        values = np.random.default_rng(29).normal(10.0, 4.0, 300)
        scenario = Scenario(
            CompleteTopology(300), values, seed=41, backend=backend,
            churn=ChurnTrace.constant(24, 9, 14),
            epochs=EpochSpec(cycles_per_epoch=8),
            message_faults=MessageFaultSpec(
                request_loss=0.05, reply_loss=0.1, duplication=0.02
            ),
            retry=RetrySpec(),
        )
        with GossipEngine(scenario) as engine:
            result = engine.run(24)
            assert self._digest(
                engine.matrix, engine.alive_mask,
                engine._rng.bit_generator.state, result.exchange_counts,
                result.alive_counts, result.epoch_results,
            ) == self.CONSTANT
