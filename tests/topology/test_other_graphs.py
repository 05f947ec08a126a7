"""Tests for Erdős–Rényi, ring, Watts–Strogatz, Barabási–Albert and star
topologies."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.topology import (
    BarabasiAlbertTopology,
    ErdosRenyiTopology,
    RingTopology,
    StarTopology,
    WattsStrogatzTopology,
    clustering_coefficient,
    degree_statistics,
    is_connected,
)


class TestErdosRenyi:
    def test_p_zero_empty(self):
        topo = ErdosRenyiTopology(20, 0.0, seed=1)
        assert topo.edge_count() == 0

    def test_p_one_complete(self):
        topo = ErdosRenyiTopology(10, 1.0, seed=1)
        assert topo.edge_count() == 45

    @pytest.mark.parametrize("n, p, error", [
        (10, 1.5, TopologyError),
        (10, -0.1, TopologyError),
        (10, True, ConfigurationError),
        (10, float("nan"), ConfigurationError),
        (10, "0.5", ConfigurationError),
        (10.5, 0.5, ConfigurationError),
    ])
    def test_invalid_p(self, n, p, error):
        with pytest.raises(error):
            ErdosRenyiTopology(n, p)

    def test_edge_count_near_expectation(self):
        n, p = 100, 0.1
        counts = [
            ErdosRenyiTopology(n, p, seed=s).edge_count() for s in range(5)
        ]
        expected = p * n * (n - 1) / 2
        assert 0.8 * expected < np.mean(counts) < 1.2 * expected

    def test_deterministic(self):
        a = ErdosRenyiTopology(30, 0.2, seed=3)
        b = ErdosRenyiTopology(30, 0.2, seed=3)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_unrank_covers_all_pairs(self):
        n = 6
        pairs = {ErdosRenyiTopology._unrank(r, n) for r in range(15)}
        assert len(pairs) == 15
        assert all(i < j for i, j in pairs)

    def test_p_property(self):
        assert ErdosRenyiTopology(10, 0.3, seed=1).p == 0.3


class TestRing:
    def test_plain_cycle(self):
        topo = RingTopology(6, 2)
        assert topo.neighbors(0).tolist() == [1, 5]
        assert topo.edge_count() == 6

    def test_k4_lattice(self):
        topo = RingTopology(10, 4)
        assert sorted(topo.neighbors(0).tolist()) == [1, 2, 8, 9]

    @pytest.mark.parametrize("n, k, error", [
        (10, 3, TopologyError),
        (10, 2.0, ConfigurationError),
        (10, True, ConfigurationError),
        (10.0, 2, ConfigurationError),
    ])
    def test_odd_k_rejected(self, n, k, error):
        with pytest.raises(error):
            RingTopology(n, k)

    def test_k_too_large_rejected(self):
        with pytest.raises(TopologyError):
            RingTopology(4, 4)

    def test_connected(self):
        assert is_connected(RingTopology(50, 2))

    def test_high_clustering_for_k4(self):
        topo = RingTopology(30, 4)
        assert clustering_coefficient(topo, 0) == 0.5


class TestWattsStrogatz:
    def test_beta_zero_is_lattice(self):
        ws = WattsStrogatzTopology(20, 4, 0.0, seed=1)
        ring = RingTopology(20, 4)
        assert sorted(ws.edges()) == sorted(ring.edges())

    def test_beta_one_rewires(self):
        ws = WattsStrogatzTopology(50, 4, 1.0, seed=2)
        ring = RingTopology(50, 4)
        assert sorted(ws.edges()) != sorted(ring.edges())

    def test_edge_count_preserved(self):
        ws = WattsStrogatzTopology(40, 4, 0.3, seed=3)
        assert ws.edge_count() == 80

    @pytest.mark.parametrize("n, k, beta, error", [
        (10, 2, -0.1, TopologyError),
        (10, 2, True, ConfigurationError),
        (10, 2, float("inf"), ConfigurationError),
        (10, 2.0, 0.5, ConfigurationError),
        (10.5, 2, 0.5, ConfigurationError),
    ])
    def test_invalid_beta(self, n, k, beta, error):
        with pytest.raises(error):
            WattsStrogatzTopology(n, k, beta)

    def test_mean_degree_preserved(self):
        ws = WattsStrogatzTopology(60, 6, 0.5, seed=4)
        assert degree_statistics(ws).mean == pytest.approx(6.0)

    def test_deterministic(self):
        a = WattsStrogatzTopology(30, 4, 0.2, seed=5)
        b = WattsStrogatzTopology(30, 4, 0.2, seed=5)
        assert sorted(a.edges()) == sorted(b.edges())


class TestBarabasiAlbert:
    def test_edge_count(self):
        n, m = 50, 3
        topo = BarabasiAlbertTopology(n, m, seed=1)
        # star seed contributes m edges; each of (n - m - 1) arrivals adds m
        assert topo.edge_count() == m + (n - m - 1) * m

    def test_min_degree_is_m(self):
        topo = BarabasiAlbertTopology(80, 2, seed=2)
        assert degree_statistics(topo).minimum >= 2

    def test_hubs_emerge(self):
        topo = BarabasiAlbertTopology(300, 2, seed=3)
        stats = degree_statistics(topo)
        assert stats.maximum > 4 * stats.mean  # heavy tail

    def test_connected(self):
        assert is_connected(BarabasiAlbertTopology(100, 2, seed=4))

    @pytest.mark.parametrize("n, m, error", [
        (5, 0, TopologyError),
        (3, 3, TopologyError),
        (5, 1.0, ConfigurationError),
        (5, True, ConfigurationError),
        (5.5, 2, ConfigurationError),
    ])
    def test_invalid_params(self, n, m, error):
        with pytest.raises(error):
            BarabasiAlbertTopology(n, m)


class TestSparseRandomNeighborDraws:
    """Bounds + uniformity of the vectorized CSR partner draw on
    irregular overlays — the draw the kernel engine uses for every
    sparse-topology cycle."""

    def bounds(self, topo, rng, draws=4):
        nodes = np.arange(topo.n)
        for _ in range(draws):
            partners = topo.random_neighbor_array(nodes, rng)
            for node, partner in zip(nodes.tolist(), partners.tolist()):
                assert topo.has_edge(node, partner)
                assert partner != node

    def test_erdos_renyi_bounds(self, rng):
        topo = ErdosRenyiTopology(150, 0.15, seed=8)
        self.bounds(topo, rng)

    def test_scale_free_bounds(self, rng):
        topo = BarabasiAlbertTopology(150, 3, seed=9)
        self.bounds(topo, rng)

    @pytest.mark.parametrize("factory", [
        lambda: ErdosRenyiTopology(60, 0.2, seed=10),
        lambda: BarabasiAlbertTopology(60, 3, seed=11),
    ], ids=["erdos-renyi", "scale-free"])
    def test_per_node_uniformity(self, factory):
        """Each node's draw is uniform over its own neighbor list,
        whatever its degree — including the hubs of a scale-free
        graph."""
        topo = factory()
        rng = np.random.default_rng(42)
        degrees = np.array([topo.degree(v) for v in range(topo.n)])
        hub = int(np.argmax(degrees))
        lightest = int(np.argmin(degrees))
        draws = 8000
        for node in (hub, lightest):
            partners = topo.random_neighbor_array(np.full(draws, node), rng)
            counts = np.bincount(partners, minlength=topo.n)
            neighbors = topo.neighbors(node)
            assert set(np.nonzero(counts)[0]) == set(neighbors.tolist())
            expected = draws / len(neighbors)
            assert np.all(
                np.abs(counts[neighbors] - expected) < 0.25 * expected
            )


class TestStar:
    def test_structure(self):
        topo = StarTopology(5)
        assert topo.degree(0) == 4
        assert all(topo.degree(i) == 1 for i in range(1, 5))

    def test_hub_property(self):
        assert StarTopology(4).hub == 0

    @pytest.mark.parametrize("n, error", [
        (1, TopologyError),
        (4.0, ConfigurationError),
        (True, ConfigurationError),
    ])
    def test_minimum_size(self, n, error):
        with pytest.raises(error):
            StarTopology(n)

    def test_connected(self):
        assert is_connected(StarTopology(20))

    def test_leaf_random_neighbor_is_hub(self, rng):
        topo = StarTopology(6)
        assert topo.random_neighbor(3, rng) == 0
