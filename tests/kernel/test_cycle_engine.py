"""The §3 synchronous cycle on a plain single-instance scenario: every
alive node, in index order, contacts a random neighbor and both adopt
``AGGREGATE(x_i, x_j)`` — GETPAIR_SEQ — with lost exchanges declared as
``exchange_loss(p)`` and crash-stop failures between cycles."""

import numpy as np
import pytest

from repro.avg.theory import RATE_SEQ
from repro.core import MaxAggregate, MeanAggregate, MinAggregate
from repro.errors import ConfigurationError
from repro.kernel import GossipEngine, Scenario
from repro.kernel.messages import exchange_loss
from repro.topology import CompleteTopology

from ..recording import RecordingBackend


@pytest.fixture
def topo():
    return CompleteTopology(300)


@pytest.fixture
def values(topo):
    return np.random.default_rng(1).normal(5.0, 2.0, topo.n)


def cycle_engine(topology, values, *, aggregate=None, loss=0.0, seed=None,
                 backend="auto"):
    """A single-instance engine running ``aggregate`` (default
    AGGREGATE_AVG) under whole-exchange loss ``loss``."""
    aggregate = MeanAggregate() if aggregate is None else aggregate
    return GossipEngine(Scenario(
        topology, np.asarray(values, dtype=np.float64),
        aggregates={aggregate.name: aggregate},
        message_faults=exchange_loss(loss), seed=seed, backend=backend,
    ))


class TestBasics:
    def test_size_mismatch_rejected(self, topo):
        with pytest.raises(ConfigurationError):
            cycle_engine(topo, [1.0, 2.0])

    def test_invalid_loss_rejected(self, topo, values):
        with pytest.raises(ConfigurationError):
            cycle_engine(topo, values, loss=2.0)

    def test_negative_cycles_rejected(self, topo, values):
        engine = cycle_engine(topo, values, seed=1)
        with pytest.raises(ConfigurationError):
            engine.run(-1)

    def test_deterministic(self, topo, values):
        a = cycle_engine(topo, values, seed=5)
        b = cycle_engine(topo, values, seed=5)
        a.run(5)
        b.run(5)
        assert np.array_equal(a.alive_column(), b.alive_column())


class TestAveraging:
    def test_mean_conserved(self, topo, values):
        engine = cycle_engine(topo, values, seed=2)
        initial = engine.mean()
        engine.run(10)
        assert engine.mean() == pytest.approx(initial, abs=1e-12)

    def test_variance_decays_at_seq_rate(self, topo, values):
        result = cycle_engine(topo, values, seed=3).run(12)
        variances = result.variance_array()
        ratios = variances[1:] / variances[:-1]
        assert np.exp(np.log(ratios).mean()) == pytest.approx(RATE_SEQ, rel=0.15)

    def test_exchange_count_full(self, topo, values):
        result = cycle_engine(topo, values, seed=4).run(2)
        assert result.exchange_counts == [topo.n, topo.n]

    def test_trajectory_lengths(self, topo, values):
        result = cycle_engine(topo, values, seed=5).run(7)
        assert len(result.variance_array()) == 8
        assert len(result.mean_array()) == 8
        assert len(result.exchange_counts) == 7

    def test_load_is_flat_on_complete_graph(self):
        """§5: no performance peaks — per-node communication load over
        20 cycles stays within 1.8x its mean."""
        n = 300
        recorder = RecordingBackend()
        values = np.random.default_rng(3).normal(0, 1, n)
        cycle_engine(
            CompleteTopology(n), values, seed=4, backend=recorder
        ).run(20)
        load = np.bincount(recorder.exchanges().ravel(), minlength=n)
        assert load.max() / load.mean() < 1.8


class TestOtherAggregates:
    def test_max_spreads_epidemically(self, topo, values):
        engine = cycle_engine(topo, values, aggregate=MaxAggregate(), seed=6)
        engine.run(12)
        assert np.all(engine.alive_column() == values.max())

    def test_min_spreads(self, topo, values):
        engine = cycle_engine(topo, values, aggregate=MinAggregate(), seed=7)
        engine.run(12)
        assert np.all(engine.alive_column() == values.min())

    def test_max_monotone_per_cycle(self, topo, values):
        engine = cycle_engine(topo, values, aggregate=MaxAggregate(), seed=8)
        reached = [int((engine.alive_column() == values.max()).sum())]
        for _ in range(8):
            engine.run_cycle()
            reached.append(int((engine.alive_column() == values.max()).sum()))
        assert all(b >= a for a, b in zip(reached, reached[1:]))


class TestFailures:
    def test_loss_slows_but_preserves_mean(self, topo, values):
        lossless = cycle_engine(topo, values, seed=9)
        lossy = cycle_engine(topo, values, loss=0.4, seed=9)
        lossless.run(8)
        lossy.run(8)
        assert lossy.mean() == pytest.approx(lossless.mean(), abs=1e-12)
        assert lossy.variance() > lossless.variance()

    def test_total_loss_freezes_state(self, topo, values):
        engine = cycle_engine(topo, values, loss=1.0, seed=10)
        result = engine.run(3)
        assert result.exchange_counts == [0, 0, 0]
        assert np.array_equal(engine.alive_column(), values)

    def test_crash_removes_nodes(self, topo, values):
        engine = cycle_engine(topo, values, seed=11)
        engine.crash([0, 1, 2])
        assert engine.alive_count == topo.n - 3
        assert len(engine.alive_column()) == topo.n - 3

    def test_crash_out_of_range_rejected(self, topo, values):
        engine = cycle_engine(topo, values, seed=12)
        with pytest.raises(ConfigurationError):
            engine.crash([topo.n])

    def test_crashed_nodes_excluded_from_convergence(self, topo, values):
        engine = cycle_engine(topo, values, seed=13)
        engine.crash(list(range(50)))
        engine.run(15)
        survivors_initial_mean = values[50:].mean()
        # converged mean equals the survivors' initial mean (mass of the
        # crashed nodes left before any mixing happened)
        assert engine.mean() == pytest.approx(survivors_initial_mean, abs=1e-9)

    def test_crash_mid_run_biases_mean(self, topo, values):
        engine = cycle_engine(topo, values, seed=14)
        engine.run(1)
        engine.crash(list(range(100)))
        engine.run(20)
        # after partial mixing the crashed nodes' mass is partly spread,
        # so the surviving mean is generally NOT the survivors' initial mean
        assert engine.variance() < 1e-6  # still converges


class TestBackendSelection:
    def test_auto_resolves_by_size(self, topo, values):
        assert cycle_engine(topo, values, seed=1).backend_name == "reference"
        big = cycle_engine(CompleteTopology(5000), np.zeros(5000), seed=1)
        assert big.backend_name == "vectorized"

    def test_explicit_backend_honored(self, topo, values):
        engine = cycle_engine(topo, values, seed=1, backend="vectorized")
        assert engine.backend_name == "vectorized"


class TestBackendEquality:
    def test_same_seed_same_trajectory(self, topo, values):
        ref = cycle_engine(topo, values, seed=5, backend="reference")
        vec = cycle_engine(topo, values, seed=5, backend="vectorized")
        ref_result = ref.run(10)
        vec_result = vec.run(10)
        assert np.array_equal(ref_result.variance_array(),
                              vec_result.variance_array())
        assert np.array_equal(ref.column(), vec.column())
        assert ref_result.exchange_counts == vec_result.exchange_counts

    def test_equal_with_loss_and_crash(self, topo, values):
        engines = []
        for backend in ("reference", "vectorized"):
            engine = cycle_engine(topo, values, loss=0.25, seed=6,
                                  backend=backend)
            engine.run(3)
            engine.crash(range(40))
            engine.run(10)
            engines.append(engine)
        assert np.array_equal(engines[0].column(), engines[1].column())
        assert engines[0].alive_count == engines[1].alive_count

    def test_equal_with_max_aggregate(self, topo, values):
        runs = []
        for backend in ("reference", "vectorized"):
            engine = cycle_engine(topo, values, aggregate=MaxAggregate(),
                                  seed=7, backend=backend)
            engine.run(10)
            runs.append(engine.column())
        assert np.array_equal(runs[0], runs[1])
        assert np.all(runs[0] == values.max())
