"""Tests for the partition fault model and the split-brain scenario."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.failures import PartitionSchedule
from repro.kernel import GossipEngine, Scenario
from repro.topology import CompleteTopology


class TestSchedule:
    def test_groups_must_cover(self):
        with pytest.raises(ConfigurationError):
            PartitionSchedule(4, [[0, 1]], start=0, end=5)

    def test_groups_must_be_disjoint(self):
        with pytest.raises(ConfigurationError):
            PartitionSchedule(3, [[0, 1], [1, 2]], start=0, end=5)

    def test_node_range_checked(self):
        with pytest.raises(ConfigurationError):
            PartitionSchedule(2, [[0], [5]], start=0, end=5)

    def test_window_validated(self):
        with pytest.raises(ConfigurationError):
            PartitionSchedule(2, [[0], [1]], start=5, end=2)

    def test_blocks_only_cross_cut_during_window(self):
        schedule = PartitionSchedule(4, [[0, 1], [2, 3]], start=2, end=6)
        assert not schedule.blocks(0, 0, 2)  # before the window
        assert schedule.blocks(3, 0, 2)  # cross-cut during
        assert not schedule.blocks(3, 0, 1)  # same side during
        assert not schedule.blocks(6, 0, 2)  # healed

    def test_random_split_covers(self):
        schedule = PartitionSchedule.random_split(20, 3, start=0, end=1, seed=1)
        groups = schedule.groups()
        assert sorted(sum(groups, [])) == list(range(20))
        assert {len(g) for g in groups} <= {6, 7}

    def test_random_split_validated(self):
        with pytest.raises(ConfigurationError):
            PartitionSchedule.random_split(5, 1, start=0, end=1)
        with pytest.raises(ConfigurationError):
            PartitionSchedule.random_split(3, 5, start=0, end=1)

    def test_group_of(self):
        schedule = PartitionSchedule(4, [[0, 3], [1, 2]], start=0, end=1)
        assert schedule.group_of(0) == schedule.group_of(3)
        assert schedule.group_of(0) != schedule.group_of(1)


class TestSplitBrainScenario:
    def test_sides_converge_separately_then_globally(self):
        """During the partition each side converges to its own average;
        after healing the network re-converges to the global one."""
        n = 400
        left = list(range(0, n // 2))
        right = list(range(n // 2, n))
        values = np.zeros(n)
        values[right] = 10.0  # the two sides disagree strongly
        schedule = PartitionSchedule(n, [left, right], start=0, end=20)
        engine = GossipEngine(Scenario(
            CompleteTopology(n), values, partition=schedule, seed=2
        ))
        engine.run(20)
        state = engine.column()
        # split brain: tight agreement within sides, gulf between them
        assert np.asarray(state)[left].std() < 1e-3
        assert np.asarray(state)[right].std() < 1e-3
        assert abs(np.mean(state[: n // 2]) - 0.0) < 1e-3
        assert abs(np.mean(state[n // 2:]) - 10.0) < 1e-3
        # heal and re-converge globally
        engine.run(20)
        assert engine.variance() < 1e-9
        assert engine.mean() == pytest.approx(5.0, abs=1e-9)

    def test_partition_conserves_global_mass(self):
        n = 100
        values = np.random.default_rng(3).normal(5, 2, n)
        schedule = PartitionSchedule.random_split(n, 4, start=0, end=10, seed=4)
        engine = GossipEngine(Scenario(
            CompleteTopology(n), values, partition=schedule, seed=5
        ))
        engine.run(15)
        assert engine.mean() == pytest.approx(values.mean(), abs=1e-12)
