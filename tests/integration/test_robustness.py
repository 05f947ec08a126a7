"""Integration: failure and adversary injection across the kernel stack
(the §1.4 concerns), driven entirely through declarative
:class:`Scenario` runs.
"""

import numpy as np
import pytest

from repro.failures import random_crash_plan
from repro.kernel import AdversarySpec, GossipEngine, Scenario, robust_reduce
from repro.topology import CompleteTopology, RandomRegularTopology


def run_engine(scenario, cycles):
    engine = GossipEngine(scenario)
    try:
        return engine, engine.run(cycles)
    finally:
        engine.close()


class TestMessageLossDegradesGracefully:
    @pytest.mark.parametrize("loss", [0.0, 0.1, 0.3])
    def test_convergence_rate_degrades_smoothly(self, loss):
        """Loss probability p slows the per-cycle rate but never breaks
        convergence — each surviving exchange still reduces variance."""
        values = np.random.default_rng(1).normal(0, 1, 1000)
        scenario = Scenario(
            CompleteTopology(1000), values, loss_probability=loss, seed=2
        )
        _, result = run_engine(scenario, 10)
        trajectory = result.variance_array()
        assert trajectory[-1] < trajectory[0] * 0.01

    def test_higher_loss_is_slower(self):
        values = np.random.default_rng(3).normal(0, 1, 1000)
        final = {}
        for loss in (0.0, 0.5):
            scenario = Scenario(
                CompleteTopology(1000), values, loss_probability=loss, seed=4
            )
            final[loss] = run_engine(scenario, 8)[1].variance_array()[-1]
        assert final[0.5] > final[0.0]

    def test_loss_conserves_mass(self):
        """Symmetric loss cancels the whole exchange, so (unlike a lost
        reply under ``MessageFaultSpec``) heavy loss cannot leak mass
        from the AVG estimate."""
        values = np.random.default_rng(12).normal(10, 4, 500)
        scenario = Scenario(
            CompleteTopology(500), values, loss_probability=0.4, seed=13
        )
        engine, _ = run_engine(scenario, 15)
        assert engine.mean() == pytest.approx(values.mean(), rel=1e-12)


class TestCrashRobustness:
    def test_half_network_crash_survivors_converge(self):
        values = np.random.default_rng(5).normal(20, 5, 600)
        engine = GossipEngine(Scenario(CompleteTopology(600), values, seed=6))
        engine.run(2)
        plan = random_crash_plan(600, 0.5, at_cycle=2, seed=7)
        engine.crash(plan.crashing_at(2))
        # half of all contact attempts hit dead peers, so allow extra cycles
        engine.run(30)
        assert engine.alive_count == 300
        assert engine.variance() < 1e-6

    def test_crash_biases_mean_proportionally(self):
        """Crashing nodes holding extreme values early in the run shifts
        the converged estimate — the known failure mode of unprotected
        anti-entropy averaging."""
        n = 500
        values = np.zeros(n)
        values[:100] = 100.0  # mass concentrated in the first 100 nodes
        engine = GossipEngine(Scenario(CompleteTopology(n), values, seed=8))
        engine.crash(list(range(100)))  # crash them before any mixing
        engine.run(15)
        # all mass left with the crashed nodes
        assert engine.mean() == pytest.approx(0.0, abs=1e-9)

    def test_crash_on_sparse_topology(self):
        topology = RandomRegularTopology(400, 8, seed=9)
        values = np.random.default_rng(10).normal(0, 1, 400)
        engine = GossipEngine(Scenario(topology, values, seed=11))
        engine.crash(list(range(0, 400, 10)))  # 10 % crash
        engine.run(25)
        assert engine.variance() < 1e-6


class TestAdversaryIntegration:
    """The AdversarySpec kinds end to end, through plain Scenario runs."""

    N = 500

    def scenario(self, spec, seed=21, **kwargs):
        values = np.random.default_rng(20).normal(10, 4, self.N)
        return Scenario(
            CompleteTopology(self.N),
            values,
            adversary=spec,
            seed=seed,
            **kwargs,
        )

    def test_inject_bias_grows_with_fraction(self):
        """Stubborn value injection poisons honest state, and more
        injectors poison it faster — no read-out trick can undo it."""
        truth = 10.0
        bias = {}
        for fraction in (0.05, 0.2):
            spec = AdversarySpec(kind="inject", fraction=fraction, value=1000.0)
            engine = GossipEngine(self.scenario(spec))
            engine.run(10)
            honest = engine.honest_column()
            bias[fraction] = abs(float(np.median(honest)) - truth)
        assert bias[0.05] > 10.0  # even 5 % injectors wreck the estimate
        assert bias[0.2] > bias[0.05]

    def test_lying_defeats_mean_but_not_median(self):
        """Byzantine responders corrupt only the reported view, which is
        exactly the contamination a robust reduction removes."""
        spec = AdversarySpec(kind="lying", fraction=0.15, value=1000.0)
        engine = GossipEngine(self.scenario(spec))
        engine.run(20)
        reports = engine.reported_column()
        truth = engine.scenario.values.mean()
        assert robust_reduce(reports, "median") == pytest.approx(
            truth, rel=1e-6
        )
        assert robust_reduce(reports, "trimmed") == pytest.approx(
            truth, rel=1e-6
        )
        assert robust_reduce(reports, "mean") > 100.0  # wrecked by the lies

    def test_partition_isolates_both_sides(self):
        """A targeted partition seals the honest/adversarial boundary:
        each side converges internally to its own mean."""
        spec = AdversarySpec(kind="partition", fraction=0.3)
        engine = GossipEngine(self.scenario(spec))
        engine.run(25)
        mask = engine.adversary_mask
        column = engine.column()
        values = engine.scenario.values
        for side in (mask, ~mask):
            # isolation: each block conserves exactly its own mass ...
            assert column[side].mean() == pytest.approx(
                values[side].mean(), rel=1e-9
            )
            # ... and keeps converging internally (slower on the small
            # block: most of its uniform partner draws cross the sealed
            # boundary and are dropped)
            assert column[side].std() < 0.05 * values[side].std()

    def test_eclipse_drags_victims_toward_captors(self):
        """Neighbor capture on a sparse overlay: captured nodes only
        ever mix with adversarial neighbors, so with every adversary
        holding an extreme value the overlay's converged state is
        pulled far off the honest mean."""
        topology = RandomRegularTopology(self.N, 8, seed=30)
        values = np.random.default_rng(20).normal(10, 4, self.N)
        eclipsed = Scenario(
            topology,
            values,
            adversary=AdversarySpec(kind="eclipse", fraction=0.2),
            seed=21,
        )
        engine = GossipEngine(eclipsed)
        engine.run(25)
        # partner draws of captured nodes all hit the same captor, so
        # mixing is crippled: the spread across nodes stays far above
        # the uncaptured run's (which is at ~1e-7 by cycle 25)
        baseline = GossipEngine(Scenario(topology, values, seed=21))
        baseline.run(25)
        assert engine.variance() > 1e3 * baseline.variance()
