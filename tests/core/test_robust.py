"""Tests for core.robust — concurrent instances with median reporting."""

import numpy as np
import pytest

from repro.core import RobustAverager
from repro.errors import ConfigurationError
from repro.kernel import GossipEngine, Scenario
from repro.kernel.messages import exchange_loss
from repro.rng import spawn_streams
from repro.topology import CompleteTopology


@pytest.fixture
def values():
    return np.random.default_rng(1).normal(10.0, 4.0, 400)


class TestValidation:
    def test_value_count(self):
        with pytest.raises(ConfigurationError):
            RobustAverager(CompleteTopology(5), [1.0])

    def test_instances_positive(self, values):
        with pytest.raises(ConfigurationError):
            RobustAverager(CompleteTopology(400), values, instances=0)

    def test_loss_range(self, values):
        with pytest.raises(ConfigurationError):
            RobustAverager(CompleteTopology(400), values,
                           loss_probability=-0.1)

    def test_negative_cycles(self, values):
        averager = RobustAverager(CompleteTopology(400), values, seed=1)
        with pytest.raises(ConfigurationError):
            averager.run(-1)

    def test_crash_range(self, values):
        averager = RobustAverager(CompleteTopology(400), values, seed=1)
        with pytest.raises(ConfigurationError):
            averager.crash([400])


class TestCleanRun:
    def test_all_instances_converge_to_truth(self, values):
        averager = RobustAverager(
            CompleteTopology(400), values, instances=3, seed=2
        )
        result = averager.run(25)
        assert result.single_error < 1e-4
        assert result.median_error < 1e-4
        assert result.true_mean == pytest.approx(values.mean())

    def test_single_instance_degenerate(self, values):
        averager = RobustAverager(
            CompleteTopology(400), values, instances=1, seed=3
        )
        result = averager.run(20)
        assert np.array_equal(result.single_estimates, result.median_estimates)

    def test_deterministic(self, values):
        a = RobustAverager(CompleteTopology(400), values, instances=3, seed=4)
        b = RobustAverager(CompleteTopology(400), values, instances=3, seed=4)
        ra, rb = a.run(10), b.run(10)
        assert np.array_equal(ra.median_estimates, rb.median_estimates)

    def test_instances_evolve_independently(self, values):
        averager = RobustAverager(
            CompleteTopology(400), values, instances=2, seed=5
        )
        averager.run_cycle()
        result = averager.run(0)
        # the median of two is their midpoint: it equals instance 0
        # only where the two instances agree
        assert not np.array_equal(
            result.single_estimates, result.median_estimates
        )  # different pair sequences

    @pytest.mark.parametrize("loss", [0.0, 0.3])
    def test_instances_are_engines_on_spawned_streams(self, values, loss):
        """Instance ``k`` is a single-column kernel run on stream ``k``
        of ``spawn_streams(seed, instances)``, lost exchanges being lost
        requests — a crash wave included."""
        topology = CompleteTopology(400)
        averager = RobustAverager(topology, values, instances=3,
                                  loss_probability=loss, seed=9)
        engines = [
            GossipEngine(Scenario(
                topology, values, seed=stream,
                message_faults=exchange_loss(loss),
            ))
            for stream in spawn_streams(9, 3)
        ]
        for runner in (averager, *engines):
            runner.run(2)
            runner.crash(range(0, 400, 5))
        result = averager.run(6)
        for engine in engines:
            engine.run(6)
        stacked = np.stack([engine.alive_column() for engine in engines])
        assert np.array_equal(result.single_estimates, stacked[0])
        assert np.array_equal(result.median_estimates,
                              np.median(stacked, axis=0))


class TestRobustnessGain:
    @pytest.mark.parametrize("instances", [7, 15])
    def test_median_beats_single_under_crashes(self, values, instances):
        """Across seeds, the median-of-instances estimator has no larger
        error than the single-instance one when 20 % of nodes crash
        early (independent per-instance mixing noise gets voted out)."""
        single_errors, median_errors = [], []
        for seed in range(6):
            averager = RobustAverager(
                CompleteTopology(400), values, instances=instances, seed=seed
            )
            averager.run(2)
            rng = np.random.default_rng(100 + seed)
            averager.crash(rng.choice(400, size=80, replace=False).tolist())
            result = averager.run(20)
            single_errors.append(result.single_error)
            median_errors.append(result.median_error)
        assert np.mean(median_errors) <= np.mean(single_errors)

    def test_crash_reduces_reporting_population(self, values):
        averager = RobustAverager(CompleteTopology(400), values, seed=7)
        averager.crash(list(range(100)))
        result = averager.run(10)
        assert averager.alive_count == 300
        assert len(result.median_estimates) == 300

    def test_loss_tolerated(self, values):
        averager = RobustAverager(
            CompleteTopology(400), values, instances=3,
            loss_probability=0.3, seed=8,
        )
        result = averager.run(30)
        assert result.median_error < 1e-4
