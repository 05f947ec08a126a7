"""Tests for the complete topology."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.topology import CompleteTopology


class TestBasics:
    def test_degree(self):
        topo = CompleteTopology(10)
        assert all(topo.degree(i) == 9 for i in range(10))

    def test_neighbors_excludes_self(self):
        topo = CompleteTopology(5)
        assert 3 not in topo.neighbors(3).tolist()
        assert len(topo.neighbors(3)) == 4

    def test_edge_count(self):
        assert CompleteTopology(10).edge_count() == 45

    def test_has_edge(self):
        topo = CompleteTopology(4)
        assert topo.has_edge(0, 3)
        assert not topo.has_edge(2, 2)

    @pytest.mark.parametrize("n, error", [
        (1, TopologyError),
        (5.5, ConfigurationError),
        (True, ConfigurationError),
        ("5", ConfigurationError),
    ])
    def test_too_small_rejected(self, n, error):
        with pytest.raises(error):
            CompleteTopology(n)

    def test_node_range_checked(self):
        with pytest.raises(TopologyError):
            CompleteTopology(3).neighbors(3)


class TestRandomSelection:
    def test_random_neighbor_never_self(self, rng):
        topo = CompleteTopology(6)
        for node in range(6):
            for _ in range(50):
                assert topo.random_neighbor(node, rng) != node

    def test_random_neighbor_uniform(self, rng):
        topo = CompleteTopology(4)
        draws = [topo.random_neighbor(0, rng) for _ in range(6000)]
        counts = np.bincount(draws, minlength=4)
        assert counts[0] == 0
        assert all(1700 < c < 2300 for c in counts[1:])

    def test_random_edge_distinct(self, rng):
        topo = CompleteTopology(5)
        for _ in range(100):
            i, j = topo.random_edge(rng)
            assert i != j
            assert 0 <= i < 5 and 0 <= j < 5

    def test_random_neighbor_array_no_self(self, rng):
        topo = CompleteTopology(50)
        nodes = np.arange(50)
        for _ in range(20):
            partners = topo.random_neighbor_array(nodes, rng)
            assert not np.any(partners == nodes)
            assert partners.min() >= 0 and partners.max() < 50

    def test_random_neighbor_array_uniform(self, rng):
        topo = CompleteTopology(3)
        nodes = np.zeros(9000, dtype=np.int64)
        partners = topo.random_neighbor_array(nodes, rng)
        counts = np.bincount(partners, minlength=3)
        assert counts[0] == 0
        assert 4200 < counts[1] < 4800

    def test_memory_is_constant(self):
        # constructing a huge complete graph must be instant / tiny
        topo = CompleteTopology(10**6)
        assert topo.edge_count() == 10**6 * (10**6 - 1) // 2
