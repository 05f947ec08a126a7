"""The split-brain scenario: a partition is an ``AdversarySpec`` of
kind ``"partition"`` whose ``nodes`` are one side of the cut."""

import numpy as np
import pytest

from repro.kernel import AdversarySpec, ChurnTrace, GossipEngine, Scenario
from repro.topology import CompleteTopology

from ..recording import RecordingBackend


def random_side(n, seed):
    """One side of a uniformly random two-way split of ``n`` nodes."""
    order = np.random.default_rng(seed).permutation(n)
    return tuple(int(node) for node in order[: n // 2])


class TestSchedule:
    def test_blocks_only_cross_cut_during_window(self):
        n = 40
        side = tuple(range(n // 2))
        recorder = RecordingBackend()
        engine = GossipEngine(Scenario(
            CompleteTopology(n), np.arange(n, dtype=float), seed=4,
            adversary=AdversarySpec(
                kind="partition", nodes=side, start=2, end=6
            ),
            backend=recorder,
        ))
        engine.run(8)
        left = engine.adversary_mask
        crossings = [
            int(np.count_nonzero(left[i] != left[j]))
            for i, j in recorder.calls
        ]
        assert len(crossings) == 8
        assert all(crossings[cycle] > 0 for cycle in (0, 1, 6, 7))
        assert crossings[2:6] == [0, 0, 0, 0]

    def test_either_side_names_the_same_cut(self):
        """The cut is symmetric: naming one side or its complement
        gives a bitwise-identical run."""
        n = 120
        values = np.random.default_rng(8).normal(0.0, 3.0, n)
        side = random_side(n, seed=3)
        other = tuple(sorted(set(range(n)) - set(side)))
        states = []
        for nodes in (side, other):
            engine = GossipEngine(Scenario(
                CompleteTopology(n), values, seed=6,
                adversary=AdversarySpec(
                    kind="partition", nodes=nodes, start=1, end=9
                ),
            ))
            engine.run(12)
            states.append(engine.matrix)
        assert np.array_equal(states[0], states[1])


class TestSplitBrainScenario:
    def test_sides_converge_separately_then_globally(self):
        """During the partition each side converges to its own average;
        after healing the network re-converges to the global one."""
        n = 400
        left = list(range(0, n // 2))
        right = list(range(n // 2, n))
        values = np.zeros(n)
        values[right] = 10.0  # the two sides disagree strongly
        partition = AdversarySpec(
            kind="partition", nodes=tuple(right), start=0, end=20
        )
        engine = GossipEngine(Scenario(
            CompleteTopology(n), values, adversary=partition, seed=2
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
        partition = AdversarySpec(
            kind="partition", nodes=random_side(n, seed=4), start=0, end=10
        )
        engine = GossipEngine(Scenario(
            CompleteTopology(n), values, adversary=partition, seed=5
        ))
        engine.run(15)
        assert engine.mean() == pytest.approx(values.mean(), abs=1e-12)

    def test_each_side_keeps_its_mass_while_cut(self):
        n = 100
        values = np.random.default_rng(7).normal(5, 2, n)
        side = np.zeros(n, dtype=bool)
        side[list(random_side(n, seed=2))] = True
        engine = GossipEngine(Scenario(
            CompleteTopology(n), values, seed=9,
            adversary=AdversarySpec(
                kind="partition", nodes=tuple(np.flatnonzero(side))
            ),
        ))
        engine.run(10)
        state = engine.column()
        assert state[side].sum() == pytest.approx(
            values[side].sum(), rel=1e-12
        )
        assert state[~side].sum() == pytest.approx(
            values[~side].sum(), rel=1e-12
        )

    def test_boundary_holds_under_churn(self):
        """A joiner recycled into a slot of the cut side stays on that
        side; slots from capacity growth join the other side."""
        n = 60
        recorder = RecordingBackend()
        engine = GossipEngine(Scenario(
            CompleteTopology(n), np.arange(n, dtype=float), seed=3,
            churn=ChurnTrace.constant(10, 6, 4),
            adversary=AdversarySpec(kind="partition", nodes=tuple(range(20))),
            backend=recorder,
        ))
        engine.run(10)
        assert engine.capacity > n
        mask = engine.adversary_mask
        assert not mask[n:].any()
        exchanges = recorder.exchanges()
        assert len(exchanges) > 0
        assert np.array_equal(mask[exchanges[:, 0]], mask[exchanges[:, 1]])
