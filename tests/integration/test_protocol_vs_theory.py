"""Integration: the deployed protocol layers reproduce the AVG theory.

The kernel's synchronous cycle, the asynchronous schedule and the
abstract AVG algorithm are three executions of the same protocol; their
convergence behavior must agree with each other and with §3.
"""

import numpy as np
import pytest

from repro.avg import RATE_SEQ, fit_geometric_rate
from repro.kernel import GossipEngine, NewscastSpec, Scenario, run_scenario
from repro.topology import CompleteTopology, RandomRegularTopology

from ..async_schedule import run as run_async


class TestCycleSimMatchesTheory:
    def test_rate_on_complete(self):
        topo = CompleteTopology(2000)
        values = np.random.default_rng(1).normal(0, 1, 2000)
        result = run_scenario(Scenario(topo, values, seed=2), cycles=12)
        rate = fit_geometric_rate(result.variance_array())
        assert rate == pytest.approx(RATE_SEQ, rel=0.1)

    def test_rate_on_20_regular(self):
        topo = RandomRegularTopology(2000, 20, seed=3)
        values = np.random.default_rng(1).normal(0, 1, 2000)
        result = run_scenario(Scenario(topo, values, seed=4), cycles=12)
        rate = fit_geometric_rate(result.variance_array())
        # slightly slower than 1/(2*sqrt(e)), but within 20 %
        assert rate == pytest.approx(RATE_SEQ, rel=0.2)


class TestAsynchronousMatchesCycleDriven:
    def test_equal_convergence_horizon(self):
        """Synchronous cycles and asynchronous activations reach
        comparable variance after the same number of (expected)
        cycles."""
        n, cycles = 400, 10
        values = np.random.default_rng(5).normal(10, 3, n)
        with GossipEngine(Scenario(CompleteTopology(n), values,
                                   seed=6)) as engine:
            engine.run(cycles)
            cycle_var = engine.variance()
        async_variances, _ = run_async(values, cycles, seed=6)
        async_var = async_variances[-1]
        assert cycle_var < 1e-4
        assert async_var < 1e-4
        # same order of magnitude (within 1000x, both tiny)
        ratio = max(cycle_var, 1e-300) / max(async_var, 1e-300)
        assert 1e-3 < ratio < 1e3


class TestAggregationOverNewscast:
    def test_averaging_over_gossip_membership(self):
        """The full stack the paper sketches: a peer-sampling service
        supplies partners, aggregation converges on top of it."""
        n = 300
        values = np.random.default_rng(8).normal(50.0, 10.0, n)
        true_mean = float(np.mean(values))
        scenario = Scenario(
            CompleteTopology(n), values,
            membership=NewscastSpec(view_size=15), seed=7,
        )
        with GossipEngine(scenario) as engine:
            engine.run(30)
            final = engine.matrix[:, 0]
        assert final.mean() == pytest.approx(true_mean, abs=1e-9)
        assert final.var(ddof=1) < 1e-8
        assert np.abs(final - true_mean).max() < 1e-3
