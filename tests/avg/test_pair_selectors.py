"""Tests for the GETPAIR implementations (§3.3), drawn one cycle at a
time through ``PairProtocolSpec(name).bind(topology)``."""

import numpy as np
import pytest

from repro.errors import PairSelectionError
from repro.kernel import PairProtocolSpec
from repro.topology import CompleteTopology, RingTopology


@pytest.fixture
def complete_20():
    return CompleteTopology(20)


def cycle_pairs(selector, topology, rng):
    """One cycle's ``(N, 2)`` GETPAIR sequence."""
    return PairProtocolSpec(selector).bind(topology)(rng)


def phi_counts(pairs, n):
    """Per-node selection counts φ_k of a cycle's pair sequence."""
    return np.bincount(pairs.ravel(), minlength=n)


class TestPerfectMatching:
    def test_phi_exactly_two(self, complete_20, rng):
        pairs = cycle_pairs("pm", complete_20, rng)
        phi = phi_counts(pairs, complete_20.n)
        assert np.all(phi == 2)

    def test_pair_count_is_n(self, complete_20, rng):
        pairs = cycle_pairs("pm", complete_20, rng)
        assert pairs.shape == (20, 2)

    def test_matchings_are_disjoint(self, complete_20, rng):
        pairs = cycle_pairs("pm", complete_20, rng)
        first = {frozenset(p) for p in pairs[:10].tolist()}
        second = {frozenset(p) for p in pairs[10:].tolist()}
        assert len(first) == 10
        assert len(second) == 10
        assert first.isdisjoint(second)

    def test_each_half_is_perfect_matching(self, complete_20, rng):
        pairs = cycle_pairs("pm", complete_20, rng)
        for half in (pairs[:10], pairs[10:]):
            nodes = half.ravel().tolist()
            assert sorted(nodes) == list(range(20))

    def test_odd_n_rejected(self):
        with pytest.raises(PairSelectionError):
            PairProtocolSpec("pm").bind(CompleteTopology(21))

    def test_sparse_topology_rejected(self):
        with pytest.raises(PairSelectionError):
            PairProtocolSpec("pm").bind(RingTopology(20, 2))

    def test_no_self_pairs(self, complete_20, rng):
        pairs = cycle_pairs("pm", complete_20, rng)
        assert np.all(pairs[:, 0] != pairs[:, 1])


class TestRand:
    def test_no_self_pairs_complete(self, complete_20, rng):
        pairs = cycle_pairs("rand", complete_20, rng)
        assert np.all(pairs[:, 0] != pairs[:, 1])

    def test_pair_count(self, complete_20, rng):
        assert cycle_pairs("rand", complete_20, rng).shape == (20, 2)

    def test_respects_sparse_topology(self, rng):
        ring = RingTopology(10, 2)
        pairs = cycle_pairs("rand", ring, rng)
        for i, j in pairs.tolist():
            assert ring.has_edge(i, j)

    def test_phi_mean_is_two(self, rng):
        topo = CompleteTopology(2000)
        phi = phi_counts(cycle_pairs("rand", topo, rng), topo.n)
        assert phi.mean() == pytest.approx(2.0)

    def test_phi_approximately_poisson2(self, rng):
        """Variance of Poisson(2) equals 2."""
        topo = CompleteTopology(5000)
        phi = phi_counts(cycle_pairs("rand", topo, rng), topo.n)
        assert phi.var() == pytest.approx(2.0, rel=0.15)

    def test_uniform_over_edges(self, rng):
        ring = RingTopology(6, 2)  # 6 edges
        draw = PairProtocolSpec("rand").bind(ring)
        counts = {}
        for _ in range(600):
            for i, j in draw(rng).tolist():
                counts[frozenset((i, j))] = counts.get(frozenset((i, j)), 0) + 1
        values = np.array(list(counts.values()))
        assert len(counts) == 6
        assert values.std() / values.mean() < 0.15


class TestSeq:
    def test_every_node_initiates_once(self, complete_20, rng):
        pairs = cycle_pairs("seq", complete_20, rng)
        assert pairs[:, 0].tolist() == list(range(20))

    def test_phi_at_least_one(self, complete_20, rng):
        pairs = cycle_pairs("seq", complete_20, rng)
        phi = phi_counts(pairs, complete_20.n)
        assert np.all(phi >= 1)

    def test_phi_is_one_plus_poisson1(self, rng):
        topo = CompleteTopology(5000)
        phi = phi_counts(cycle_pairs("seq", topo, rng), topo.n)
        assert phi.mean() == pytest.approx(2.0, abs=0.05)
        assert phi.var() == pytest.approx(1.0, rel=0.15)  # Var(1+Poisson(1)) = 1

    def test_partners_are_neighbors(self, rng):
        ring = RingTopology(12, 4)
        pairs = cycle_pairs("seq", ring, rng)
        for i, j in pairs.tolist():
            assert ring.has_edge(i, j)

    def test_no_self_pairs(self, complete_20, rng):
        pairs = cycle_pairs("seq", complete_20, rng)
        assert np.all(pairs[:, 0] != pairs[:, 1])


class TestPMRand:
    def test_pair_count(self, complete_20, rng):
        assert cycle_pairs("pmrand", complete_20, rng).shape == (20, 2)

    def test_first_half_is_perfect_matching(self, complete_20, rng):
        pairs = cycle_pairs("pmrand", complete_20, rng)
        nodes = pairs[:10].ravel().tolist()
        assert sorted(nodes) == list(range(20))

    def test_phi_at_least_one(self, complete_20, rng):
        pairs = cycle_pairs("pmrand", complete_20, rng)
        phi = phi_counts(pairs, complete_20.n)
        assert np.all(phi >= 1)

    def test_phi_matches_seq_distribution(self, rng):
        topo = CompleteTopology(5000)
        phi = phi_counts(cycle_pairs("pmrand", topo, rng), topo.n)
        assert phi.mean() == pytest.approx(2.0, abs=0.05)
        assert phi.var() == pytest.approx(1.0, rel=0.15)

    def test_odd_n_rejected(self):
        with pytest.raises(PairSelectionError):
            PairProtocolSpec("pmrand").bind(CompleteTopology(7))

    def test_sparse_topology_rejected(self):
        with pytest.raises(PairSelectionError):
            PairProtocolSpec("pmrand").bind(RingTopology(10, 2))

    def test_no_self_pairs(self, complete_20, rng):
        pairs = cycle_pairs("pmrand", complete_20, rng)
        assert np.all(pairs[:, 0] != pairs[:, 1])
