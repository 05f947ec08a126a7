"""Property-based tests on the substrate data structures."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.avg import GetPairPerfectMatching, GetPairSeq
from repro.core import MeanAggregate, MultiAggregateState, combine_multi
from repro.rng import choice_excluding, make_rng
from repro.topology import CompleteTopology, RingTopology


class TestTopologyProperties:
    @given(n=st.integers(2, 40))
    def test_complete_neighbor_counts(self, n):
        topo = CompleteTopology(n)
        assert all(topo.degree(i) == n - 1 for i in range(n))

    @given(n=st.integers(3, 60), seed=st.integers(0, 2**31))
    def test_ring_symmetry(self, n, seed):
        topo = RingTopology(n, 2)
        for i, j in topo.edges():
            assert topo.has_edge(j, i)

    @given(n=st.integers(2, 50), excluded=st.integers(0, 49),
           seed=st.integers(0, 2**31))
    def test_choice_excluding_in_range(self, n, excluded, seed):
        excluded = excluded % n
        if n < 2:
            return
        rng = make_rng(seed)
        draw = choice_excluding(rng, n, excluded)
        assert 0 <= draw < n
        assert draw != excluded


class TestPairSelectorProperties:
    @settings(max_examples=30, deadline=None)
    @given(half_n=st.integers(2, 40), seed=st.integers(0, 2**31))
    def test_pm_always_two_disjoint_matchings(self, half_n, seed):
        n = 2 * half_n
        selector = GetPairPerfectMatching(CompleteTopology(n))
        pairs = selector.cycle_pairs(make_rng(seed))
        phi = selector.phi_counts(pairs)
        assert np.all(phi == 2)
        edges = {frozenset(p) for p in pairs.tolist()}
        assert len(edges) == n  # all N pairs distinct

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 60), seed=st.integers(0, 2**31))
    def test_seq_initiator_order(self, n, seed):
        selector = GetPairSeq(CompleteTopology(n))
        pairs = selector.cycle_pairs(make_rng(seed))
        assert pairs[:, 0].tolist() == list(range(n))
        assert np.all(pairs[:, 0] != pairs[:, 1])


class TestMultiAggregateProperties:
    @given(
        x=st.floats(-1e6, 1e6, allow_nan=False),
        y=st.floats(-1e6, 1e6, allow_nan=False),
    )
    def test_combine_converges_both_sides(self, x, y):
        left = MultiAggregateState()
        left.add_instance("m", MeanAggregate(), x)
        right = MultiAggregateState()
        right.add_instance("m", MeanAggregate(), y)
        combine_multi(left, right)
        assert left.get("m") == right.get("m")

    @given(values=st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                           min_size=1, max_size=8))
    def test_repeated_combine_idempotent(self, values):
        """Combining identical states leaves them unchanged."""
        left = MultiAggregateState()
        right = MultiAggregateState()
        for index, value in enumerate(values):
            left.add_instance(index, MeanAggregate(), value)
            right.add_instance(index, MeanAggregate(), value)
        combine_multi(left, right)
        for index, value in enumerate(values):
            assert left.get(index) == value

