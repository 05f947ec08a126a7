"""Tests for pair-selector generic fallback paths (topologies that are
neither adjacency-backed nor complete)."""

import numpy as np
import pytest

from repro.kernel import PairProtocolSpec, Scenario, run_scenario
from repro.rng import make_rng
from repro.topology import RingTopology
from repro.topology.base import Topology


class ListTopology(Topology):
    """Plain neighbour lists: none of the stored-adjacency or
    closed-form fast paths apply, so selectors take the generic route."""

    def __init__(self, lists):
        super().__init__(len(lists))
        self.lists = lists

    def neighbors(self, node):
        return np.asarray(self.lists[node], dtype=np.int64)

    def degree(self, node):
        return len(self.lists[node])

    def random_neighbor(self, node, rng):
        return int(rng.choice(self.lists[node]))

    def random_edge(self, rng):
        node = int(rng.integers(0, self.n))
        return node, self.random_neighbor(node, rng)

    def edge_count(self):
        return sum(map(len, self.lists))


@pytest.fixture
def adapter():
    ring = RingTopology(30, 4)
    return ListTopology([list(ring.neighbors(i)) for i in range(30)])


class TestRandFallback:
    def test_pairs_respect_views(self, adapter, rng):
        pairs = PairProtocolSpec("rand").bind(adapter)(rng)
        assert pairs.shape == (30, 2)
        for i, j in pairs.tolist():
            assert j in adapter.neighbors(i).tolist()

    def test_no_self_pairs(self, adapter, rng):
        pairs = PairProtocolSpec("rand").bind(adapter)(rng)
        assert np.all(pairs[:, 0] != pairs[:, 1])

    def test_avg_converges_via_fallback(self, adapter):
        # a ring mixes slowly (diffusive), so allow a generous horizon
        scenario = Scenario(
            adapter,
            make_rng(1).normal(0.0, 1.0, size=30),
            pair_protocol=PairProtocolSpec("rand"),
            cycles=60,
            seed=2,
        )
        variances = run_scenario(scenario).variance_array("avg")
        assert variances[-1] < variances[0] * 1e-3


class TestSeqOverLiveViews:
    def test_partners_from_current_views(self, rng):
        def fresh_views():
            # six distinct non-self peers per node
            return [
                ((node + 1 + rng.choice(39, size=6, replace=False)) % 40)
                .tolist()
                for node in range(40)
            ]

        topology = ListTopology(fresh_views())
        draw = PairProtocolSpec("seq").bind(topology)
        for _ in range(3):
            pairs = draw(rng)
            for i, j in pairs.tolist():
                assert j in topology.lists[i]
            topology.lists = fresh_views()  # views change between cycles
