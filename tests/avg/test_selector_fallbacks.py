"""Tests for pair-selector generic fallback paths (topologies that are
neither adjacency-backed nor complete)."""

import numpy as np
import pytest

from repro.avg import GetPairRand, GetPairSeq, ValueVector, run_avg
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
        pairs = GetPairRand(adapter).cycle_pairs(rng)
        assert pairs.shape == (30, 2)
        for i, j in pairs.tolist():
            assert j in adapter.neighbors(i).tolist()

    def test_no_self_pairs(self, adapter, rng):
        pairs = GetPairRand(adapter).cycle_pairs(rng)
        assert np.all(pairs[:, 0] != pairs[:, 1])

    def test_avg_converges_via_fallback(self, adapter):
        # a ring mixes slowly (diffusive), so allow a generous horizon
        vector = ValueVector.gaussian(30, seed=1)
        result = run_avg(vector, GetPairRand(adapter), 60, seed=2)
        assert result.variances[-1] < result.variances[0] * 1e-3


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
        selector = GetPairSeq(topology)
        for _ in range(3):
            pairs = selector.cycle_pairs(rng)
            for i, j in pairs.tolist():
                assert j in topology.lists[i]
            topology.lists = fresh_views()  # views change between cycles
