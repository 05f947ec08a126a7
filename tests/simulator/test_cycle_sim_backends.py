"""CycleSimulator backend selection through the public API."""

import numpy as np
import pytest

from repro.core import MaxAggregate
from repro.simulator.cycle_sim import CycleSimulator
from repro.topology import CompleteTopology


@pytest.fixture
def topo():
    return CompleteTopology(300)


@pytest.fixture
def values(topo):
    return np.random.default_rng(9).normal(5.0, 2.0, topo.n)


class TestBackendSelection:
    def test_auto_resolves_by_size(self, topo, values):
        assert CycleSimulator(topo, values, seed=1).backend_name == "reference"
        big = CompleteTopology(5000)
        sim = CycleSimulator(big, np.zeros(5000), seed=1)
        assert sim.backend_name == "vectorized"

    def test_explicit_backend_honored(self, topo, values):
        sim = CycleSimulator(topo, values, seed=1, backend="vectorized")
        assert sim.backend_name == "vectorized"



class TestBackendEquality:
    def test_same_seed_same_trajectory(self, topo, values):
        ref = CycleSimulator(topo, values, seed=5, backend="reference")
        vec = CycleSimulator(topo, values, seed=5, backend="vectorized")
        ref_result = ref.run(10)
        vec_result = vec.run(10)
        assert np.array_equal(ref_result.variance_array,
                              vec_result.variance_array)
        assert np.array_equal(ref.all_values, vec.all_values)
        assert ref_result.exchange_counts == vec_result.exchange_counts

    def test_equal_with_loss_and_crash(self, topo, values):
        sims = []
        for backend in ("reference", "vectorized"):
            sim = CycleSimulator(
                topo, values, loss_probability=0.25, seed=6, backend=backend
            )
            sim.run(3)
            sim.crash(range(40))
            sim.run(10)
            sims.append(sim)
        assert np.array_equal(sims[0].all_values, sims[1].all_values)
        assert sims[0].alive_count == sims[1].alive_count

    def test_equal_with_max_aggregate(self, topo, values):
        runs = []
        for backend in ("reference", "vectorized"):
            sim = CycleSimulator(
                topo, values, aggregate=MaxAggregate(), seed=7,
                backend=backend,
            )
            sim.run(10)
            runs.append(sim.all_values)
        assert np.array_equal(runs[0], runs[1])
        assert np.all(runs[0] == values.max())
