"""Property-based tests for the extension modules (churn, trace, io,
matrix, robust averaging)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.io import read_csv, read_json, write_csv, write_json
from repro.avg.matrix import cycle_matrix, is_doubly_stochastic
from repro.core import median_of_instances
from repro.kernel import ChurnTrace, Scenario
from repro.rng import make_rng
from repro.topology import CompleteTopology


class TestChurnProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(10, 5000),
        amplitude_fraction=st.floats(0.0, 0.9),
        period=st.integers(2, 500),
        cycles=st.integers(1, 600),
    )
    def test_diurnal_size_within_bounds(
        self, n, amplitude_fraction, period, cycles
    ):
        amplitude = int(n * amplitude_fraction)
        trace = ChurnTrace.diurnal(n, cycles, period=period,
                                   amplitude=amplitude)
        sizes = n + np.cumsum(trace.joins - trace.leaves)
        assert sizes.min() >= n - amplitude
        assert sizes.max() <= n + amplitude

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(10, 2000),
        amplitude_fraction=st.floats(0.0, 0.5),
        period=st.integers(2, 200),
        fluctuation=st.integers(0, 20),
        start=st.integers(1, 4000),
    )
    def test_steps_never_empty_network(
        self, n, amplitude_fraction, period, fluctuation, start
    ):
        """Even when the live size has drifted from the wave the trace
        was drawn for, no step removes the last node."""
        amplitude = int(n * amplitude_fraction)
        trace = ChurnTrace.diurnal(n, 50, period=period,
                                   amplitude=amplitude,
                                   fluctuation=fluctuation)
        size = start
        for cycle in range(50):
            step = trace.step(cycle, size)
            assert step.joins >= 0
            assert 0 <= step.leaves < size or size <= 1
            size += step.joins - step.leaves
            assert size >= 1

    @settings(max_examples=30, deadline=None)
    @given(joins=st.integers(0, 50), leaves=st.integers(0, 50),
           size=st.integers(1, 500))
    def test_constant_bounds(self, joins, leaves, size):
        step = ChurnTrace.constant(1, joins, leaves).step(0, size)
        assert step.joins == joins
        assert step.leaves <= max(size - 1, 0)


class TestIoProperties:
    simple_cell = st.one_of(
        st.integers(-10**9, 10**9),
        st.floats(-1e9, 1e9, allow_nan=False),
        st.text(
            alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")),
            min_size=1, max_size=10,
        ),
    )

    @settings(max_examples=25, deadline=None)
    @given(rows=st.lists(
        st.fixed_dictionaries({"a": simple_cell, "b": simple_cell}),
        min_size=1, max_size=10,
    ))
    def test_json_roundtrip(self, rows, tmp_path_factory):
        path = tmp_path_factory.mktemp("io") / "rows.json"
        write_json(path, rows)
        assert read_json(path)["rows"] == rows


class TestMatrixProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 12),
        steps=st.integers(1, 30),
        seed=st.integers(0, 2**31),
    )
    def test_arbitrary_pair_products_doubly_stochastic(self, n, steps, seed):
        rng = make_rng(seed)
        pairs = []
        for _ in range(steps):
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n - 1))
            j = j + 1 if j >= i else j
            pairs.append((i, j))
        assert is_doubly_stochastic(cycle_matrix(n, pairs))


class TestRobustProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        instances=st.integers(1, 6),
        cycles=st.integers(0, 6),
        seed=st.integers(0, 2**31),
    )
    def test_single_instance_conserves_mass(self, instances, cycles, seed):
        """Instance 0 is the single estimate; the median of instances
        need not conserve mass, but it stays within the values' range."""
        values = np.linspace(-5.0, 5.0, 40)
        result = median_of_instances(
            Scenario(CompleteTopology(40), values, cycles=cycles, seed=seed),
            instances=instances,
        )
        assert abs(result.single_estimates.sum() - values.sum()) < 1e-8
        assert values.min() <= result.median_estimates.min()
        assert result.median_estimates.max() <= values.max()
