"""Figure 1's node rules on the kernel.

Under the §2 zero-latency model one exchange is atomic: the initiator
pushes ``x_i``, the partner answers with its *pre-exchange* ``x_j`` and
both adopt ``AGGREGATE(x_i, x_j)``; a lost reply leaves the partner
updated and the initiator untouched. These are the rules the
asynchronous schedule of :mod:`tests.async_schedule` applies through
the sequential one-sided primitive. A crashed node neither initiates
nor answers — an exchange that contacts one fails — so the survivors
keep averaging among themselves.
"""

import numpy as np
import pytest

from repro.core import MaxAggregate, MeanAggregate, MinAggregate
from repro.kernel import GossipEngine, Scenario
from repro.kernel.backends.base import (
    apply_one_sided_sequential,
    apply_sequential,
)
from repro.topology import CompleteTopology

FUNCTIONS = [
    pytest.param(MeanAggregate(), id="mean"),
    pytest.param(MaxAggregate(), id="max"),
    pytest.param(MinAggregate(), id="min"),
]
BACKENDS = ["reference", "vectorized"]


def column(*values):
    return np.array(values, dtype=np.float64).reshape(-1, 1)


def exchange(matrix, function, steps, replied):
    steps = np.array(steps).reshape(-1, 2)
    return apply_one_sided_sequential(
        matrix, [function], steps[:, 0], steps[:, 1],
        adopt_i=np.array(replied, dtype=bool),
    )


@pytest.mark.parametrize("function", FUNCTIONS)
class TestExchange:
    def test_push_pull_updates_both_sides(self, function):
        matrix = column(3.0, 8.0, 5.0)
        exchange(matrix, function, [(0, 1)], [True])
        assert matrix[0, 0] == matrix[1, 0] == function.combine(3.0, 8.0)
        assert matrix[2, 0] == 5.0  # bystanders are untouched

    def test_reply_carries_the_pre_exchange_value(self, function):
        """The initiator adopts AGGREGATE(x_i, old x_j): the partner
        replies before its own update."""
        matrix = column(0.0, 1.0)
        combined, sent, _ = exchange(matrix, function, [(0, 1)], [True])
        assert sent[0, 0] == 0.0
        assert combined[0, 0] == function.combine(0.0, 1.0)
        assert matrix[0, 0] == combined[0, 0]

    def test_lost_reply_updates_the_partner_only(self, function):
        matrix = column(3.0, 8.0)
        _, _, delta = exchange(matrix, function, [(0, 1)], [False])
        assert matrix[0, 0] == 3.0
        assert matrix[1, 0] == function.combine(3.0, 8.0)
        # the half exchange moved exactly the partner's change
        assert delta[0] == matrix[1, 0] - 8.0

    def test_later_exchanges_see_earlier_writes(self, function):
        matrix = column(1.0, 6.0, 2.0)
        exchange(matrix, function, [(0, 1), (1, 2)], [True, True])
        first = function.combine(1.0, 6.0)
        assert matrix[0, 0] == first
        assert matrix[1, 0] == matrix[2, 0] == function.combine(first, 2.0)

    def test_delivered_replies_make_the_exchange_two_sided(self, function):
        """With every reply delivered the one-sided primitive is the
        two-sided sequential one, bitwise."""
        rng = np.random.default_rng(11)
        steps_i = rng.integers(0, 50, 400)
        steps_j = (steps_i + rng.integers(1, 50, 400)) % 50
        one_sided = column(*rng.normal(10.0, 4.0, 50))
        two_sided = one_sided.copy()
        apply_one_sided_sequential(
            one_sided, [function], steps_i, steps_j,
            adopt_i=np.ones(400, dtype=bool),
        )
        apply_sequential(two_sided, [function], steps_i, steps_j)
        assert np.array_equal(one_sided, two_sided)


def test_lost_replies_account_for_the_mean_drift():
    """Under AGGREGATE_AVG only half exchanges move the sum, and the
    primitive's delta is exactly what they moved."""
    rng = np.random.default_rng(12)
    steps_i = rng.integers(0, 40, 300)
    steps_j = (steps_i + rng.integers(1, 40, 300)) % 40
    matrix = column(*rng.normal(10.0, 4.0, 40))
    before = matrix.sum()
    _, _, delta = apply_one_sided_sequential(
        matrix, [MeanAggregate()], steps_i, steps_j,
        adopt_i=rng.random(300) >= 0.3,
    )
    assert delta[0] != 0.0
    assert matrix.sum() - before == pytest.approx(delta[0], abs=1e-9)


def engine_for(n, backend, seed=11):
    values = np.random.default_rng(3).normal(10.0, 4.0, n)
    return GossipEngine(
        Scenario(CompleteTopology(n), values, seed=seed, backend=backend)
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestCrashedPeers:
    def test_crashed_nodes_leave_the_statistics(self, backend):
        engine = engine_for(50, backend)
        engine.crash(range(10))
        assert len(engine.alive_column()) == 40

    def test_crashed_node_state_is_frozen(self, backend):
        engine = engine_for(50, backend)
        engine.run(1)
        frozen = engine.column()[:5].copy()
        engine.crash(range(5))
        engine.run(5)
        assert np.array_equal(engine.column()[:5], frozen)

    def test_survivors_converge_after_crash(self, backend):
        # draws that land on one of the 30 crashed peers fail, so the
        # survivors need more cycles than the crash-free rate
        engine = engine_for(100, backend)
        engine.run(2)
        engine.crash(range(30))
        engine.run(30)
        assert engine.variance() < 1e-8

    def test_two_survivors_average_with_each_other(self, backend):
        """Eight of nine draws hit a crashed peer and fail; the one
        that reaches the other survivor averages the pair."""
        engine = engine_for(10, backend)
        before = engine.column().copy()
        engine.crash(range(1, 9))
        engine.run(60)
        survivors = engine.alive_column()
        assert survivors[0] == survivors[1]
        assert survivors[0] == pytest.approx((before[0] + before[9]) / 2)

    def test_lone_survivor_is_stable(self, backend):
        engine = engine_for(5, backend)
        engine.crash([1, 2, 3, 4])
        engine.run(3)  # must not raise
        assert engine.variance() == 0.0
