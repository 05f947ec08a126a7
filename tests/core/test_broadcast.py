"""Tests for core.broadcast — push-pull epidemic spreading and the
MAX-aggregation equivalence claim (§1.1)."""

import math

import numpy as np
import pytest

from repro.core import (
    MaxAggregate,
    broadcast_scenario,
    expected_rounds_push,
    expected_rounds_push_pull,
    spread_trajectory,
    spread_trajectory_deterministic,
)
from repro.errors import ConfigurationError
from repro.kernel import GossipEngine, Scenario
from repro.topology import (
    AdjacencyTopology,
    CompleteTopology,
    RandomRegularTopology,
    RingTopology,
)

#: the overlays of the pinned trajectories, by name
OVERLAYS = {
    "complete-400": lambda: CompleteTopology(400),
    "complete-3001": lambda: CompleteTopology(3001),
    "ring-100-2": lambda: RingTopology(100, 2),
    "regular-500-8": lambda: RandomRegularTopology(500, 8, seed=3),
    "hand-4": lambda: AdjacencyTopology([[1, 2], [0], [0, 3], [2]]),
}


def _broadcast(topology, **fields):
    return GossipEngine(broadcast_scenario(topology, **fields))


def _informed(engine):
    return engine.column() > 0.0


def _rounds(topology, seed):
    return len(spread_trajectory(_broadcast(topology, seed=seed))) - 1


class TestBroadcastBasics:
    def test_initial_state(self):
        informed = _informed(_broadcast(CompleteTopology(10), origin=3,
                                        seed=1))
        assert informed.sum() == 1
        assert informed[3]
        assert not informed.all()

    @pytest.mark.parametrize("origin", [5, 1.7, True])
    def test_origin_validated(self, origin):
        with pytest.raises(ConfigurationError):
            broadcast_scenario(CompleteTopology(5), origin=origin)

    def test_monotone_spread(self):
        engine = _broadcast(CompleteTopology(200), seed=2)
        counts = [int(_informed(engine).sum())]
        for _ in range(10):
            engine.run_cycle()
            counts.append(int(_informed(engine).sum()))
        assert all(y >= x for x, y in zip(counts, counts[1:]))

    def test_spread_trajectory(self):
        engine = _broadcast(CompleteTopology(500), seed=3)
        trajectory = spread_trajectory(engine)
        assert trajectory[0] == 1
        assert trajectory[-1] == 500
        assert _informed(engine).all()

    def test_disconnected_raises(self):
        topo = AdjacencyTopology([[1], [0], [3], [2]])
        with pytest.raises(ConfigurationError):
            spread_trajectory(_broadcast(topo, origin=0, seed=4),
                              max_cycles=50)

    def test_isolated_node_is_never_informed(self):
        """A zero-degree node never initiates and nobody draws it: the
        rest of the overlay is informed, the run reports the node as
        unreachable."""
        engine = _broadcast(AdjacencyTopology([[1], [0], []]), origin=0,
                            seed=4)
        with pytest.raises(ConfigurationError, match="incomplete"):
            spread_trajectory(engine, max_cycles=20)
        assert _informed(engine).tolist() == [True, True, False]
        assert engine.cycle == 20

    def test_isolated_origin_informs_nobody(self):
        engine = _broadcast(AdjacencyTopology([[], [2], [1]]), seed=4)
        engine.run_cycle()
        assert _informed(engine).tolist() == [True, False, False]

    def test_deterministic(self):
        a = spread_trajectory(_broadcast(CompleteTopology(300), seed=9))
        b = spread_trajectory(_broadcast(CompleteTopology(300), seed=9))
        assert a == b


class TestRoundComplexity:
    @pytest.mark.parametrize("n", [1000, 10000])
    def test_rounds_in_theoretical_window(self, n):
        rounds = [_rounds(CompleteTopology(n), s) for s in range(5)]
        mean_rounds = np.mean(rounds)
        # lower envelope: pure tripling; upper envelope: push-only bound
        assert mean_rounds >= math.log(n, 3) - 1
        assert mean_rounds <= expected_rounds_push(n)

    def test_push_pull_estimate_close(self):
        estimate = expected_rounds_push_pull(10000)
        rounds = [_rounds(CompleteTopology(10000), s) for s in range(5)]
        assert abs(np.mean(rounds) - estimate) < 4

    def test_edge_cases(self):
        assert expected_rounds_push(1) == 0.0
        assert expected_rounds_push_pull(1) == 0.0
        with pytest.raises(ConfigurationError):
            expected_rounds_push(0)

    def test_ring_is_linear_not_logarithmic(self):
        """Structured topologies break the epidemic speedup: on a ring
        information travels a bounded distance per cycle."""
        n = 100
        trajectory = spread_trajectory(
            _broadcast(RingTopology(n, 2), seed=5), max_cycles=500
        )
        assert len(trajectory) - 1 > 2 * math.log2(n)


class TestMeanField:
    def test_trajectory_monotone_to_one(self):
        trajectory = spread_trajectory_deterministic(10000)
        assert all(y >= x for x, y in zip(trajectory, trajectory[1:]))
        assert trajectory[-1] > 1 - 1e-3

    def test_matches_simulation_phase_width(self):
        """Early-phase randomness time-shifts individual runs, so we
        compare the *shape*: the number of cycles spent between 10 % and
        90 % informed must agree between mean field and simulation."""
        n = 20000

        def width(fractions):
            inside = [f for f in fractions if 0.10 <= f <= 0.90]
            return len(inside)

        trajectory = spread_trajectory(_broadcast(CompleteTopology(n), seed=6))
        simulated = [c / n for c in trajectory]
        predicted = spread_trajectory_deterministic(n)
        assert abs(width(simulated) - width(predicted)) <= 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            spread_trajectory_deterministic(1)


class TestMaxEquivalence:
    def test_max_spreading_equals_broadcast(self):
        """§1.1: MAX aggregation *is* push-pull broadcast of the maximum.
        Drive both with the same seed and compare reached-set sizes."""
        n = 400
        values = np.zeros(n)
        values[7] = 1.0  # unique maximum at node 7
        engine = GossipEngine(Scenario(CompleteTopology(n), values,
                                       aggregates={"max": MaxAggregate()},
                                       seed=123))
        broadcast = _broadcast(CompleteTopology(n), origin=7, seed=123)
        for _ in range(12):
            engine.run_cycle()
            broadcast.run_cycle()
            reached_max = int((engine.alive_column() == 1.0).sum())
            assert reached_max == int(_informed(broadcast).sum())

    def test_max_reaches_everyone_fast(self):
        n = 1000
        values = np.random.default_rng(1).normal(0, 1, n)
        engine = GossipEngine(Scenario(CompleteTopology(n), values,
                                       aggregates={"max": MaxAggregate()},
                                       seed=2))
        engine.run(int(expected_rounds_push(n)) + 3)
        assert np.all(engine.alive_column() == values.max())


class TestGoldenTrajectories:
    """``spread_trajectory`` from origin 0, as pinned from the build
    whose broadcast drew its own partners and ran its own per-exchange
    loop beside the kernel. Running it as MAX aggregation on the kernel
    must reach the same informed counts, cycle by cycle, on either
    backend."""

    #: (overlay, seed) -> informed count before cycle 0, 1, ...
    GOLDEN = {
        ("complete-400", 0): [1, 3, 12, 46, 176, 354, 400],
        ("complete-400", 1): [1, 5, 28, 123, 305, 394, 400],
        ("complete-400", 2): [1, 10, 48, 183, 372, 399, 400],
        ("complete-400", 3): [1, 7, 42, 180, 357, 399, 400],
        ("complete-3001", 0): [1, 9, 40, 200, 877, 2298, 2962, 3001],
        ("complete-3001", 1): [1, 6, 21, 108, 495, 1712, 2825, 2999, 3001],
        ("complete-3001", 2): [1, 6, 23, 98, 491, 1617, 2785, 2997, 3001],
        ("complete-3001", 3): [1, 7, 39, 188, 847, 2274, 2956, 3001],
        ("ring-100-2", 0): [
            1, 6, 8, 12, 16, 24, 25, 27, 30, 34, 35, 44, 45, 47, 51, 52, 54,
            56, 60, 66, 70, 72, 73, 76, 76, 79, 80, 81, 82, 83, 85, 89, 92,
            93, 94, 98, 100,
        ],
        ("ring-100-2", 1): [
            1, 3, 5, 5, 9, 12, 13, 15, 18, 18, 22, 25, 26, 29, 36, 40, 42, 52,
            53, 54, 60, 61, 63, 68, 68, 71, 74, 76, 77, 78, 82, 83, 88, 90,
            93, 95, 98, 98, 100,
        ],
        ("ring-100-2", 2): [
            1, 3, 3, 9, 9, 13, 16, 19, 20, 23, 24, 24, 28, 29, 32, 38, 42, 45,
            49, 55, 55, 56, 58, 63, 64, 65, 67, 67, 68, 69, 70, 72, 75, 80,
            87, 89, 92, 98, 99, 100,
        ],
        ("ring-100-2", 3): [
            1, 3, 7, 12, 17, 19, 20, 25, 26, 28, 36, 37, 37, 37, 40, 45, 47,
            47, 49, 50, 53, 58, 58, 67, 72, 77, 80, 84, 85, 86, 87, 90, 92,
            94, 95, 98, 100,
        ],
        ("regular-500-8", 0): [1, 6, 27, 111, 269, 448, 498, 500],
        ("regular-500-8", 1): [1, 4, 18, 65, 196, 418, 494, 500],
        ("regular-500-8", 2): [1, 8, 32, 104, 284, 458, 498, 500],
        ("regular-500-8", 3): [1, 4, 24, 98, 257, 449, 499, 500],
        ("hand-4", 0): [1, 4],
        ("hand-4", 1): [1, 4],
        ("hand-4", 2): [1, 2, 4],
        ("hand-4", 3): [1, 2, 4],
    }

    @pytest.mark.parametrize("overlay, seed", sorted(GOLDEN))
    def test_broadcast_reaches_the_pinned_trajectory(self, overlay, seed):
        engine = _broadcast(OVERLAYS[overlay](), seed=seed)
        assert spread_trajectory(engine) == self.GOLDEN[overlay, seed]

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("overlay, seed", sorted(GOLDEN))
    def test_max_scenario_reaches_the_pinned_trajectory(self, overlay, seed,
                                                        backend):
        topology = OVERLAYS[overlay]()
        indicator = np.zeros(topology.n)
        indicator[0] = 1.0
        engine = GossipEngine(Scenario(
            topology, indicator, aggregates={"informed": MaxAggregate()},
            seed=seed, backend=backend,
        ))
        trajectory = [1]
        while trajectory[-1] < topology.n:
            engine.run_cycle()
            trajectory.append(int(np.count_nonzero(engine.column())))
        assert trajectory == self.GOLDEN[overlay, seed]
