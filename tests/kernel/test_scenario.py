"""Tests for kernel.scenario — the declarative experiment config."""

import numpy as np
import pytest

from repro.core import MaxAggregate, MeanAggregate, moment_values
from repro.errors import ConfigurationError
from repro.kernel import AUTO_VECTORIZE_THRESHOLD, Scenario
from repro.topology import CompleteTopology


@pytest.fixture
def topo():
    return CompleteTopology(50)


@pytest.fixture
def values(topo):
    return np.random.default_rng(0).normal(0.0, 1.0, topo.n)


class TestValidation:
    def test_value_count_checked(self, topo):
        with pytest.raises(ConfigurationError):
            Scenario(topo, [1.0, 2.0])

    def test_values_must_be_1d(self, topo):
        with pytest.raises(ConfigurationError):
            Scenario(topo, np.zeros((topo.n, 2)))

    def test_empty_aggregates_rejected(self, topo, values):
        with pytest.raises(ConfigurationError):
            Scenario(topo, values, aggregates={})

    def test_non_aggregate_function_rejected(self, topo, values):
        with pytest.raises(ConfigurationError):
            Scenario(topo, values, aggregates={"mean": lambda x, y: x})

    def test_unknown_initial_key_rejected(self, topo, values):
        with pytest.raises(ConfigurationError):
            Scenario(topo, values, initial={"nope": values})

    def test_unknown_backend_rejected(self, topo, values):
        with pytest.raises(ConfigurationError):
            Scenario(topo, values, backend="gpu")


class TestDerivedViews:
    def test_default_single_mean_instance(self, topo, values):
        scenario = Scenario(topo, values)
        assert scenario.instance_names == ("mean",)
        matrix = scenario.initial_matrix()
        assert matrix.shape == (topo.n, 1)
        assert np.array_equal(matrix[:, 0], values)

    def test_initial_matrix_column_order(self, topo, values):
        scenario = Scenario(
            topo,
            values,
            aggregates={"mean": MeanAggregate(), "m2": MeanAggregate(),
                        "max": MaxAggregate()},
            initial={"m2": moment_values(values, 2)},
        )
        matrix = scenario.initial_matrix()
        assert matrix.shape == (topo.n, 3)
        assert np.array_equal(matrix[:, 0], values)
        assert np.array_equal(matrix[:, 1], values ** 2)
        assert np.array_equal(matrix[:, 2], values)

    def test_initial_matrix_is_a_copy(self, topo, values):
        scenario = Scenario(topo, values)
        scenario.initial_matrix()[:, 0] = 0.0
        assert np.array_equal(scenario.initial_matrix()[:, 0], values)

    def test_wrong_initial_length_rejected(self, topo, values):
        scenario = Scenario(
            topo, values,
            aggregates={"mean": MeanAggregate()},
            initial={"mean": [1.0, 2.0]},
        )
        with pytest.raises(ConfigurationError):
            scenario.initial_matrix()


class TestBackendResolution:
    def test_explicit_backend_kept(self, topo, values):
        assert Scenario(topo, values, backend="reference").resolve_backend() \
            == "reference"
        assert Scenario(topo, values, backend="vectorized").resolve_backend() \
            == "vectorized"

    def test_auto_small_is_reference(self, topo, values):
        assert Scenario(topo, values, backend="auto").resolve_backend() \
            == "reference"

    def test_auto_large_is_vectorized(self):
        n = AUTO_VECTORIZE_THRESHOLD
        scenario = Scenario(CompleteTopology(n), np.zeros(n), backend="auto")
        assert scenario.resolve_backend() == "vectorized"


class TestReplace:
    def test_replace_reseeds(self, topo, values):
        scenario = Scenario(topo, values, seed=1)
        other = scenario.replace(seed=2)
        assert other.seed == 2
        assert scenario.seed == 1
        assert other.topology is scenario.topology
