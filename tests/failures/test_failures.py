"""Tests for the failures package: loss schedules and crash plans
(churn traces are tested in ``tests/kernel/test_lifecycle.py``)."""

import pytest

from repro.errors import ConfigurationError
from repro.failures import CrashPlan, random_crash_plan
from repro.kernel import burst_loss, constant_loss


class TestLossSchedules:
    def test_constant(self):
        schedule = constant_loss(0.2)
        assert schedule(0) == 0.2
        assert schedule(999) == 0.2

    def test_constant_validated(self):
        with pytest.raises(ConfigurationError):
            constant_loss(1.2)

    def test_burst(self):
        schedule = burst_loss(0.01, 0.5, burst_start=10, burst_end=20)
        assert schedule(5) == 0.01
        assert schedule(10) == 0.5
        assert schedule(19) == 0.5
        assert schedule(20) == 0.01

    def test_burst_validated(self):
        with pytest.raises(ConfigurationError):
            burst_loss(0.1, 0.2, 5, 3)
        with pytest.raises(ConfigurationError):
            burst_loss(-0.1, 0.2, 1, 2)


class TestCrashPlan:
    def test_add_and_query(self):
        plan = CrashPlan()
        plan.add(5, [1, 2])
        plan.add(5, [3])
        assert plan.crashing_at(5) == [1, 2, 3]
        assert plan.crashing_at(6) == []
        assert plan.total_crashes == 3

    @pytest.mark.parametrize("cycle, node_ids", [
        (-1, [0]), (0, [1.7]), (0, [True]), (1.5, [0]), (True, [0]),
    ])
    def test_bad_entry_rejected(self, cycle, node_ids):
        plan = CrashPlan()
        with pytest.raises(ConfigurationError):
            plan.add(cycle, node_ids)
        assert plan.total_crashes == 0

    def test_random_plan_size(self):
        plan = random_crash_plan(100, 0.3, at_cycle=4, seed=1)
        assert len(plan.crashing_at(4)) == 30
        assert plan.total_crashes == 30

    def test_random_plan_unique_victims(self):
        victims = random_crash_plan(50, 0.5, at_cycle=0, seed=2).crashing_at(0)
        assert len(set(victims)) == len(victims)

    def test_random_plan_zero_fraction(self):
        plan = random_crash_plan(100, 0.0, at_cycle=0, seed=3)
        assert plan.total_crashes == 0

    def test_random_plan_validated(self):
        with pytest.raises(ConfigurationError):
            random_crash_plan(10, 1.5, at_cycle=0)

    def test_random_plan_deterministic(self):
        a = random_crash_plan(100, 0.2, at_cycle=1, seed=9).crashing_at(1)
        b = random_crash_plan(100, 0.2, at_cycle=1, seed=9).crashing_at(1)
        assert a == b
