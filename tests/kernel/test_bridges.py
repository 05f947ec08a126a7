"""Bridges between the kernel and the surrounding layers:
MultiAggregateSpec (core.multi), the scenario-native replication
runner, and the monitoring suite's backend parity."""

import numpy as np
import pytest

from repro.analysis import replicate_scenario
from repro.core import (
    MaxAggregate,
    MeanAggregate,
    MultiAggregateSpec,
    moment_values,
    service_report,
    service_scenario,
)
from repro.errors import ConfigurationError
from repro.kernel import GossipEngine, Scenario
from repro.topology import CompleteTopology


@pytest.fixture
def topo():
    return CompleteTopology(300)


@pytest.fixture
def values(topo):
    return np.random.default_rng(11).lognormal(2.0, 0.5, topo.n)


class TestMultiAggregateSpec:
    def test_build_preserves_order(self, values):
        spec = MultiAggregateSpec.build(
            {"mean": MeanAggregate(), "max": MaxAggregate()},
            initial={},
        )
        assert spec.names == ("mean", "max")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiAggregateSpec(
                names=("a", "a"),
                functions=(MeanAggregate(), MeanAggregate()),
                initial={},
            )

    def test_unknown_initial_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiAggregateSpec.build(
                {"mean": MeanAggregate()}, initial={"other": [1.0]}
            )

    def test_scenario_round_trip(self, topo, values):
        spec = MultiAggregateSpec.build(
            {"mean": MeanAggregate(), "m2": MeanAggregate()},
            initial={"m2": moment_values(values, 2)},
        )
        scenario = spec.scenario(topo, values, seed=1, cycles=10)
        assert isinstance(scenario, Scenario)
        engine = GossipEngine(scenario)
        engine.run()
        assert engine.mean("mean") == pytest.approx(values.mean(), rel=1e-9)
        assert engine.mean("m2") == pytest.approx((values ** 2).mean(),
                                                  rel=1e-9)


class TestScenarioRunners:
    def test_replicate_scenario_independent_runs(self, topo, values):
        scenario = Scenario(topo, values, cycles=6, seed=3)
        result = replicate_scenario(scenario, runs=3)
        finals = [out.variance_array()[-1] for out in result.outputs]
        assert len(set(finals)) == 3  # independent streams differ
        again = replicate_scenario(scenario, runs=3)
        assert finals == [out.variance_array()[-1] for out in again.outputs]

    @pytest.mark.parametrize("runs", [0, True, 2.5])
    def test_replicate_scenario_validates_runs(self, topo, values, runs):
        with pytest.raises(ConfigurationError, match="runs"):
            replicate_scenario(Scenario(topo, values), runs=runs)


def _service_report(topo, values, **fields):
    with GossipEngine(service_scenario(topo, values, **fields)) as engine:
        engine.run()
        return service_report(engine)


class TestServiceBackendParity:
    def test_backends_agree_bitwise(self, topo, values):
        reports = [
            _service_report(topo, values, cycles=25, seed=5, backend=backend)
            for backend in ("reference", "vectorized")
        ]
        assert reports[0].as_dict() == reports[1].as_dict()

    def test_service_estimates_with_vectorized_backend(self, topo, values):
        report = _service_report(topo, values, cycles=30, seed=6,
                                 backend="vectorized")
        assert report.mean == pytest.approx(values.mean(), rel=1e-6)
        assert report.maximum == values.max()
        assert report.minimum == values.min()
        assert report.network_size == pytest.approx(topo.n, rel=1e-3)
