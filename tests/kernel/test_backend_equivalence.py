"""Cross-backend equivalence suite.

The vectorized backend consumes the same RNG draws as the reference
backend and applies exchanges in conflict-free batches that preserve
per-node exchange order, so for GETPAIR_SEQ-style cycles it must
reproduce the reference trajectories **bitwise** — across topologies,
message loss, crashes and partitions. Where ordering could legitimately
differ (§3's analysis only depends on the φ distribution), we also
check the statistical property directly: the vectorized backend's
empirical convergence rate matches the paper's 1/(2√e) SEQ rate.
"""

import numpy as np
import pytest

from repro.avg.theory import RATE_SEQ
from repro.core import (
    GeometricMeanAggregate,
    MaxAggregate,
    MeanAggregate,
    MinAggregate,
    SizeEstimationConfig,
    SizeEstimationExperiment,
    moment_values,
)
from repro.failures import CrashPlan
from repro.kernel import (
    AdversarySpec,
    ChurnTrace,
    EpochSpec,
    GossipEngine,
    MessageFaultSpec,
    Scenario,
)
from repro.kernel.backends import GREEDY_TAIL
from repro.topology import (
    BarabasiAlbertTopology,
    CompleteTopology,
    ErdosRenyiTopology,
    RandomRegularTopology,
    RingTopology,
    StarTopology,
)


def both_backends(scenario_kwargs, cycles=12):
    """Run the same scenario on both backends; return (ref, vec) as
    (engine, result) pairs."""
    outputs = []
    for backend in ("reference", "vectorized"):
        engine = GossipEngine(
            Scenario(backend=backend, **scenario_kwargs)
        )
        result = engine.run(cycles)
        outputs.append((engine, result))
    return outputs


def assert_identical(ref, vec):
    ref_engine, ref_result = ref
    vec_engine, vec_result = vec
    assert np.array_equal(ref_engine.matrix, vec_engine.matrix)
    assert ref_result.exchange_counts == vec_result.exchange_counts
    for name in ref_result.instance_names:
        assert np.array_equal(
            ref_result.variance_array(name), vec_result.variance_array(name)
        )
        assert np.array_equal(
            ref_result.mean_array(name), vec_result.mean_array(name)
        )


def topologies():
    # regular, irregular (ER) and heavy-tailed (scale-free) sparse
    # overlays all ride the same CSR partner draw; the bitwise contract
    # must hold on every one of them
    return [
        CompleteTopology(400),
        RandomRegularTopology(400, 8, seed=21),
        RingTopology(400),
        ErdosRenyiTopology(400, 0.05, seed=22),
        BarabasiAlbertTopology(400, 5, seed=23),
    ]


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("topology", topologies(),
                             ids=lambda t: type(t).__name__)
    def test_lossless(self, topology):
        values = np.random.default_rng(1).normal(5.0, 2.0, topology.n)
        ref, vec = both_backends(
            dict(topology=topology, values=values, seed=31)
        )
        assert_identical(ref, vec)

    @pytest.mark.parametrize("topology", topologies(),
                             ids=lambda t: type(t).__name__)
    def test_with_message_loss(self, topology):
        values = np.random.default_rng(2).normal(5.0, 2.0, topology.n)
        ref, vec = both_backends(
            dict(topology=topology, values=values, seed=32,
                 message_faults=MessageFaultSpec(request_loss=0.3))
        )
        assert_identical(ref, vec)

    def test_with_crash_plan(self):
        topology = CompleteTopology(400)
        values = np.random.default_rng(3).normal(5.0, 2.0, topology.n)
        plan = CrashPlan()
        plan.add(2, list(range(60)))
        plan.add(6, list(range(60, 100)))
        ref, vec = both_backends(
            dict(topology=topology, values=values, crash_plan=plan, seed=33)
        )
        assert_identical(ref, vec)
        assert ref[0].alive_count == 300

    def test_with_partition(self):
        n = 400
        topology = CompleteTopology(n)
        values = np.random.default_rng(4).normal(5.0, 2.0, n)
        side = np.random.default_rng(5).permutation(n)[::2].tolist()
        partition = AdversarySpec(kind="partition", nodes=side, start=2, end=8)
        ref, vec = both_backends(
            dict(topology=topology, values=values, adversary=partition,
                 seed=34)
        )
        assert_identical(ref, vec)

    def test_loss_and_crashes_together(self):
        topology = RandomRegularTopology(400, 10, seed=22)
        values = np.random.default_rng(5).normal(5.0, 2.0, topology.n)
        plan = CrashPlan()
        plan.add(3, list(range(40)))
        ref, vec = both_backends(
            dict(topology=topology, values=values, crash_plan=plan,
                 seed=35, message_faults=MessageFaultSpec(request_loss=0.2))
        )
        assert_identical(ref, vec)

    def test_multi_aggregate_matrix(self):
        topology = CompleteTopology(400)
        values = np.random.default_rng(6).normal(5.0, 2.0, topology.n)
        ref, vec = both_backends(
            dict(
                topology=topology,
                values=values,
                aggregates={
                    "mean": MeanAggregate(),
                    "m2": MeanAggregate(),
                    "max": MaxAggregate(),
                    "min": MinAggregate(),
                },
                initial={"m2": moment_values(values, 2)},
                seed=36,
            )
        )
        assert_identical(ref, vec)

    def test_hub_steps_cost_one_scan_per_tail(self, scan_sizes):
        """The hub cliff guard, as a count: on a star every exchange
        touches the hub, so a scan finds one step ready. Each scan must
        then retire ``GREEDY_TAIL`` steps through the sequential
        applier — never one scan per step."""
        topology = StarTopology(20_000)
        values = np.random.default_rng(8).normal(5.0, 2.0, topology.n)
        ref, vec = both_backends(
            dict(topology=topology, values=values, seed=38), cycles=2
        )
        assert_identical(ref, vec)
        allowed = sum(
            -(-steps // GREEDY_TAIL) + 1
            for steps in vec[1].exchange_counts
        )
        assert 0 < len(scan_sizes) <= allowed

    def test_fallback_combine_array(self):
        """Aggregates without a closed-form vectorized combine go
        through the scalar elementwise fallback and still match."""
        from repro.core import AggregateFunction

        class ScalarGeometric(GeometricMeanAggregate):
            # inherit only the scalar combine; vector path takes the
            # generic AggregateFunction fallback
            def combine_array(self, x, y):
                return AggregateFunction.combine_array(self, x, y)

        topology = CompleteTopology(200)
        values = np.random.default_rng(7).lognormal(0.5, 0.3, topology.n)
        ref, vec = both_backends(
            dict(
                topology=topology,
                values=values,
                aggregates={"geo": ScalarGeometric()},
                seed=37,
            ),
            cycles=8,
        )
        assert_identical(ref, vec)


class TestChurnEquivalence:
    """The bitwise contract extends to dynamic membership: churn and
    epoch restarts are engine-level (alive-mask mutation plus row
    recycling), so backends still see identical inputs every cycle."""

    def assert_identical_dynamic(self, ref_engine, ref_result,
                                 vec_engine, vec_result):
        assert np.array_equal(ref_engine.matrix, vec_engine.matrix)
        assert np.array_equal(ref_engine.alive_mask, vec_engine.alive_mask)
        assert ref_engine.capacity == vec_engine.capacity
        assert ref_result.exchange_counts == vec_result.exchange_counts
        assert ref_result.alive_counts == vec_result.alive_counts

    def run_both(self, scenario_kwargs, cycles):
        outputs = []
        for backend in ("reference", "vectorized"):
            engine = GossipEngine(Scenario(backend=backend, **scenario_kwargs))
            outputs.append((engine, engine.run(cycles)))
        return outputs

    def test_joins_and_leaves(self):
        n = 300
        values = np.random.default_rng(8).normal(5.0, 2.0, n)
        (ref_e, ref_r), (vec_e, vec_r) = self.run_both(
            dict(
                topology=CompleteTopology(n),
                values=values,
                churn=ChurnTrace.constant(15, 7, 4),
                seed=41,
            ),
            cycles=15,
        )
        self.assert_identical_dynamic(ref_e, ref_r, vec_e, vec_r)
        assert ref_e.alive_count == n + 15 * (7 - 4)

    def test_diurnal_churn_with_loss(self):
        n = 400
        values = np.random.default_rng(9).normal(5.0, 2.0, n)
        (ref_e, ref_r), (vec_e, vec_r) = self.run_both(
            dict(
                topology=CompleteTopology(n),
                values=values,
                churn=ChurnTrace.diurnal(n, 30, period=20, amplitude=40,
                                         fluctuation=3),
                message_faults=MessageFaultSpec(request_loss=0.2),
                seed=42,
            ),
            cycles=30,
        )
        self.assert_identical_dynamic(ref_e, ref_r, vec_e, vec_r)

    def test_crash_plan_with_epoch_restarts(self):
        """Crash plans stay valid with epochs alone (no recycling ever
        re-targets their node ids) and the trajectories stay bitwise."""
        n = 300
        values = np.random.default_rng(10).normal(5.0, 2.0, n)
        plan = CrashPlan()
        plan.add(4, list(range(50)))
        (ref_e, ref_r), (vec_e, vec_r) = self.run_both(
            dict(
                topology=CompleteTopology(n),
                values=values,
                epochs=EpochSpec(cycles_per_epoch=6),
                crash_plan=plan,
                seed=43,
            ),
            cycles=12,
        )
        self.assert_identical_dynamic(ref_e, ref_r, vec_e, vec_r)
        assert ref_e.alive_count == n - 50

    def test_epoch_restarts_from_attributes(self):
        """Default restart (reseed=None) with churn: joiners wait for
        the next epoch and every restart re-seeds from attributes."""
        n = 256
        values = np.random.default_rng(11).normal(5.0, 2.0, n)
        (ref_e, ref_r), (vec_e, vec_r) = self.run_both(
            dict(
                topology=CompleteTopology(n),
                values=values,
                churn=ChurnTrace.constant(30, 3, 3),
                epochs=EpochSpec(cycles_per_epoch=10),
                seed=44,
            ),
            cycles=30,
        )
        self.assert_identical_dynamic(ref_e, ref_r, vec_e, vec_r)
        assert ref_e.epoch == 2

    def test_size_estimation_trajectories(self):
        """The full Figure 4 pipeline — per-epoch leader election,
        variable instance counts, churn — is bitwise-reproducible
        across backends."""
        config = SizeEstimationConfig(
            cycles=90, cycles_per_epoch=30, initial_size=500, seed=45
        )
        churn = ChurnTrace.diurnal(500, 90, period=60, amplitude=50,
                                   fluctuation=2)
        runs = {}
        for backend in ("reference", "vectorized"):
            experiment = SizeEstimationExperiment(
                config, churn=churn, backend=backend
            )
            experiment.run()
            runs[backend] = experiment
        ref, vec = runs["reference"], runs["vectorized"]
        assert ref.size_trace == vec.size_trace
        assert len(ref.reports) == len(vec.reports) == 3
        for ref_report, vec_report in zip(ref.reports, vec.reports):
            assert ref_report.estimate_mean == vec_report.estimate_mean
            assert ref_report.estimate_min == vec_report.estimate_min
            assert ref_report.estimate_max == vec_report.estimate_max
            assert ref_report.size_at_start == vec_report.size_at_start
            assert ref_report.reporting_nodes == vec_report.reporting_nodes


class TestStatisticalEquivalence:
    def test_vectorized_seq_rate_matches_theory(self):
        """Independent of bitwise agreement, the vectorized backend's
        per-cycle variance reduction sits at the §3.3.3 SEQ rate."""
        topology = CompleteTopology(2000)
        rates = []
        for seed in range(5):
            values = np.random.default_rng(seed).normal(0.0, 1.0, topology.n)
            scenario = Scenario(
                topology, values, seed=100 + seed, backend="vectorized"
            )
            trajectory = GossipEngine(scenario).run(12).variance_array()
            ratios = trajectory[1:] / trajectory[:-1]
            rates.append(np.exp(np.log(ratios).mean()))
        assert np.mean(rates) == pytest.approx(RATE_SEQ, rel=0.1)
