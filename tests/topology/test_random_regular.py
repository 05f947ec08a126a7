"""Tests for the random k-regular generator (pairing + edge-swap repair)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.topology import RandomRegularTopology, degree_statistics, is_connected


class TestValidation:
    def test_odd_nk_rejected(self):
        with pytest.raises(TopologyError):
            RandomRegularTopology(5, 3)

    def test_k_ge_n_rejected(self):
        with pytest.raises(TopologyError):
            RandomRegularTopology(4, 4)

    @pytest.mark.parametrize("n, k, error", [
        (4, 0, TopologyError),
        (40, 4.0, ConfigurationError),
        (40, True, ConfigurationError),
        (40.0, 4, ConfigurationError),
    ])
    def test_nonpositive_k_rejected(self, n, k, error):
        with pytest.raises(error):
            RandomRegularTopology(n, k)


class TestStructure:
    @pytest.mark.parametrize("n,k", [(10, 3), (50, 4), (100, 20), (64, 7)])
    def test_exact_degrees(self, n, k):
        topo = RandomRegularTopology(n, k, seed=1)
        stats = degree_statistics(topo)
        assert stats.is_regular
        assert stats.minimum == k

    def test_no_self_loops(self):
        topo = RandomRegularTopology(60, 5, seed=2)
        for i in range(60):
            assert i not in topo.neighbors(i).tolist()

    def test_no_parallel_edges(self):
        topo = RandomRegularTopology(60, 5, seed=3)
        for i in range(60):
            row = topo.neighbors(i).tolist()
            assert len(row) == len(set(row))

    def test_connected_by_default(self):
        topo = RandomRegularTopology(100, 3, seed=4)
        assert is_connected(topo)

    def test_paper_view_size_20(self):
        topo = RandomRegularTopology(500, 20, seed=5)
        assert degree_statistics(topo).minimum == 20
        assert is_connected(topo)

    def test_k_property(self):
        assert RandomRegularTopology(20, 4, seed=6).k == 4


class TestDeterminism:
    def test_same_seed_same_graph(self):
        a = RandomRegularTopology(40, 4, seed=9)
        b = RandomRegularTopology(40, 4, seed=9)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_different_seed_different_graph(self):
        a = RandomRegularTopology(40, 4, seed=9)
        b = RandomRegularTopology(40, 4, seed=10)
        assert sorted(a.edges()) != sorted(b.edges())


class TestRandomness:
    def test_edges_vary_across_nodes(self):
        """A pairing-model graph should not be a disjoint union of
        cliques or other degenerate structure: spot-check edge spread."""
        topo = RandomRegularTopology(200, 4, seed=11)
        spans = [abs(i - j) for i, j in topo.edges()]
        assert max(spans) > 100  # long-range edges exist

    def test_k2_is_union_of_cycles(self):
        topo = RandomRegularTopology(30, 2, seed=12)
        assert is_connected(topo)  # redrawn until connected: one cycle
        assert topo.edge_count() == 30
