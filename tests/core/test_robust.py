"""Tests for core.robust — concurrent instances with median reporting."""

import numpy as np
import pytest

from repro.core import median_of_instances
from repro.errors import ConfigurationError
from repro.failures import CrashPlan
from repro.kernel import GossipEngine, Scenario
from repro.kernel.messages import exchange_loss
from repro.rng import spawn_streams
from repro.topology import CompleteTopology


@pytest.fixture
def values():
    return np.random.default_rng(1).normal(10.0, 4.0, 400)


def _scenario(values, cycles, seed, **fields):
    return Scenario(CompleteTopology(400), values, cycles=cycles, seed=seed,
                    **fields)


def _crash_at(cycle, victims):
    plan = CrashPlan()
    plan.add(cycle, victims)
    return plan


class TestValidation:
    def test_instances_positive(self, values):
        with pytest.raises(ConfigurationError):
            median_of_instances(_scenario(values, 5, 1), instances=0)


class TestCleanRun:
    def test_all_instances_converge_to_truth(self, values):
        result = median_of_instances(_scenario(values, 25, 2), instances=3)
        assert result.single_error < 1e-4
        assert result.median_error < 1e-4
        assert result.true_mean == pytest.approx(values.mean())
        assert result.cycles == 25

    def test_single_instance_degenerate(self, values):
        result = median_of_instances(_scenario(values, 20, 3), instances=1)
        assert np.array_equal(result.single_estimates, result.median_estimates)

    def test_deterministic(self, values):
        ra = median_of_instances(_scenario(values, 10, 4), instances=3)
        rb = median_of_instances(_scenario(values, 10, 4), instances=3)
        assert np.array_equal(ra.median_estimates, rb.median_estimates)

    def test_instances_evolve_independently(self, values):
        result = median_of_instances(_scenario(values, 1, 5), instances=2)
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
        result = median_of_instances(
            _scenario(values, 8, 9, message_faults=exchange_loss(loss),
                      crash_plan=_crash_at(2, range(0, 400, 5))),
            instances=3,
        )
        engines = [
            GossipEngine(Scenario(
                topology, values, seed=stream,
                message_faults=exchange_loss(loss),
            ))
            for stream in spawn_streams(9, 3)
        ]
        for engine in engines:
            engine.run(2)
            engine.crash(range(0, 400, 5))
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
            rng = np.random.default_rng(100 + seed)
            victims = rng.choice(400, size=80, replace=False).tolist()
            result = median_of_instances(
                _scenario(values, 22, seed, crash_plan=_crash_at(2, victims)),
                instances=instances,
            )
            single_errors.append(result.single_error)
            median_errors.append(result.median_error)
        assert np.mean(median_errors) <= np.mean(single_errors)

    def test_crash_reduces_reporting_population(self, values):
        result = median_of_instances(
            _scenario(values, 10, 7, crash_plan=_crash_at(0, range(100))),
            instances=5,
        )
        assert len(result.single_estimates) == 300
        assert len(result.median_estimates) == 300

    def test_loss_tolerated(self, values):
        result = median_of_instances(
            _scenario(values, 30, 8, message_faults=exchange_loss(0.3)),
            instances=3,
        )
        assert result.median_error < 1e-4
