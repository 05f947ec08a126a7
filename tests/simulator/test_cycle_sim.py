"""Tests for the cycle-driven simulator."""

import numpy as np
import pytest

from repro.avg.theory import RATE_SEQ
from repro.core import MaxAggregate, MinAggregate
from repro.errors import ConfigurationError
from repro.simulator.cycle_sim import CycleSimulator
from repro.topology import CompleteTopology

from ..recording import RecordingBackend


@pytest.fixture
def topo():
    return CompleteTopology(300)


@pytest.fixture
def values(topo):
    return np.random.default_rng(1).normal(5.0, 2.0, topo.n)


class TestBasics:
    def test_size_mismatch_rejected(self, topo):
        with pytest.raises(ConfigurationError):
            CycleSimulator(topo, [1.0, 2.0])

    def test_invalid_loss_rejected(self, topo, values):
        with pytest.raises(ConfigurationError):
            CycleSimulator(topo, values, loss_probability=2.0)

    def test_negative_cycles_rejected(self, topo, values):
        sim = CycleSimulator(topo, values, seed=1)
        with pytest.raises(ConfigurationError):
            sim.run(-1)

    def test_deterministic(self, topo, values):
        a = CycleSimulator(topo, values, seed=5)
        b = CycleSimulator(topo, values, seed=5)
        a.run(5)
        b.run(5)
        assert np.array_equal(a.values, b.values)


class TestAveraging:
    def test_mean_conserved(self, topo, values):
        sim = CycleSimulator(topo, values, seed=2)
        initial = sim.mean()
        sim.run(10)
        assert sim.mean() == pytest.approx(initial, abs=1e-12)

    def test_variance_decays_at_seq_rate(self, topo, values):
        sim = CycleSimulator(topo, values, seed=3)
        result = sim.run(12)
        ratios = result.variance_array[1:] / result.variance_array[:-1]
        assert np.exp(np.log(ratios).mean()) == pytest.approx(RATE_SEQ, rel=0.15)

    def test_exchange_count_full(self, topo, values):
        sim = CycleSimulator(topo, values, seed=4)
        result = sim.run(2)
        assert result.exchange_counts == [topo.n, topo.n]

    def test_trajectory_lengths(self, topo, values):
        result = CycleSimulator(topo, values, seed=5).run(7)
        assert len(result.variances) == 8
        assert len(result.means) == 8
        assert len(result.exchange_counts) == 7

    def test_load_is_flat_on_complete_graph(self):
        """§5: no performance peaks — per-node communication load over
        20 cycles stays within 1.8x its mean."""
        n = 300
        recorder = RecordingBackend()
        values = np.random.default_rng(3).normal(0, 1, n)
        CycleSimulator(
            CompleteTopology(n), values, seed=4, backend=recorder
        ).run(20)
        load = np.bincount(recorder.exchanges().ravel(), minlength=n)
        assert load.max() / load.mean() < 1.8


class TestOtherAggregates:
    def test_max_spreads_epidemically(self, topo, values):
        sim = CycleSimulator(topo, values, aggregate=MaxAggregate(), seed=6)
        sim.run(12)
        assert np.all(sim.values == values.max())

    def test_min_spreads(self, topo, values):
        sim = CycleSimulator(topo, values, aggregate=MinAggregate(), seed=7)
        sim.run(12)
        assert np.all(sim.values == values.min())

    def test_max_monotone_per_cycle(self, topo, values):
        sim = CycleSimulator(topo, values, aggregate=MaxAggregate(), seed=8)
        reached = [int((sim.values == values.max()).sum())]
        for _ in range(8):
            sim.run_cycle()
            reached.append(int((sim.values == values.max()).sum()))
        assert all(b >= a for a, b in zip(reached, reached[1:]))


class TestFailures:
    def test_loss_slows_but_preserves_mean(self, topo, values):
        lossless = CycleSimulator(topo, values, seed=9)
        lossy = CycleSimulator(topo, values, loss_probability=0.4, seed=9)
        lossless.run(8)
        lossy.run(8)
        assert lossy.mean() == pytest.approx(lossless.mean(), abs=1e-12)
        assert lossy.variance() > lossless.variance()

    def test_total_loss_freezes_state(self, topo, values):
        sim = CycleSimulator(topo, values, loss_probability=1.0, seed=10)
        result = sim.run(3)
        assert result.exchange_counts == [0, 0, 0]
        assert np.array_equal(sim.values, values)

    def test_crash_removes_nodes(self, topo, values):
        sim = CycleSimulator(topo, values, seed=11)
        sim.crash([0, 1, 2])
        assert sim.alive_count == topo.n - 3
        assert len(sim.values) == topo.n - 3

    def test_crash_out_of_range_rejected(self, topo, values):
        sim = CycleSimulator(topo, values, seed=12)
        with pytest.raises(ConfigurationError):
            sim.crash([topo.n])

    def test_crashed_nodes_excluded_from_convergence(self, topo, values):
        sim = CycleSimulator(topo, values, seed=13)
        sim.crash(list(range(50)))
        sim.run(15)
        survivors_initial_mean = values[50:].mean()
        # converged mean equals the survivors' initial mean (mass of the
        # crashed nodes left before any mixing happened)
        assert sim.mean() == pytest.approx(survivors_initial_mean, abs=1e-9)

    def test_crash_mid_run_biases_mean(self, topo, values):
        sim = CycleSimulator(topo, values, seed=14)
        sim.run(1)
        sim.crash(list(range(100)))
        sim.run(20)
        # after partial mixing the crashed nodes' mass is partly spread,
        # so the surviving mean is generally NOT the survivors' initial mean
        assert sim.variance() < 1e-6  # still converges
