"""Tests for core.service — the monitoring suite's scenario recipes."""

import numpy as np
import pytest

from repro.core import service_report, service_scenario
from repro.errors import ConfigurationError
from repro.kernel import GossipEngine
from repro.kernel.messages import exchange_loss
from repro.topology import CompleteTopology, RandomRegularTopology


def _report(scenario, probe_node=0):
    with GossipEngine(scenario) as engine:
        engine.run()
        return service_report(engine, probe_node)


@pytest.fixture(scope="module")
def values():
    return np.random.default_rng(4).lognormal(2.0, 0.5, 600)


@pytest.fixture(scope="module")
def report(values):
    return _report(service_scenario(CompleteTopology(600), values, seed=5))


class TestEstimates:
    def test_mean(self, report, values):
        assert report.mean == pytest.approx(values.mean(), rel=1e-6)

    def test_max_exact(self, report, values):
        assert report.maximum == values.max()

    def test_min_exact(self, report, values):
        assert report.minimum == values.min()

    def test_network_size(self, report):
        assert report.network_size == pytest.approx(600, rel=1e-3)

    def test_total(self, report, values):
        assert report.total == pytest.approx(values.sum(), rel=1e-3)

    def test_value_variance(self, report, values):
        assert report.value_variance == pytest.approx(values.var(), rel=1e-3)

    def test_network_agreement(self, report):
        assert report.variance_across_nodes < 1e-8

    def test_cycles_recorded(self, report):
        assert report.cycles == 30

    def test_as_dict_roundtrip(self, report):
        payload = report.as_dict()
        assert payload["mean"] == report.mean
        assert set(payload) >= {"mean", "maximum", "network_size", "total"}


class TestConfiguration:
    def test_value_count_checked(self):
        with pytest.raises(ConfigurationError):
            service_scenario(CompleteTopology(5), [1.0])

    def test_cycles_validated(self, values):
        with pytest.raises(ConfigurationError):
            service_scenario(CompleteTopology(600), values, cycles=0, seed=1)

    @pytest.mark.parametrize("probe_node", [600, 1.7, True])
    def test_probe_node_validated(self, values, probe_node):
        scenario = service_scenario(CompleteTopology(600), values, cycles=5,
                                    seed=1)
        with GossipEngine(scenario) as engine:
            engine.run()
            with pytest.raises(ConfigurationError):
                service_report(engine, probe_node)

    def test_different_probe_nodes_agree(self, values):
        scenario = service_scenario(CompleteTopology(600), values, seed=6)
        a = _report(scenario, probe_node=0)
        b = _report(scenario, probe_node=599)
        assert a.mean == pytest.approx(b.mean, rel=1e-6)

    def test_sparse_topology(self, values):
        topology = RandomRegularTopology(600, 10, seed=7)
        report = _report(service_scenario(topology, values, cycles=40, seed=8))
        assert report.mean == pytest.approx(values.mean(), rel=1e-4)

    def test_with_loss_still_reasonable(self, values):
        scenario = service_scenario(CompleteTopology(600), values, cycles=40,
                                    seed=9)
        report = _report(scenario.replace(message_faults=exchange_loss(0.2)))
        assert report.mean == pytest.approx(values.mean(), rel=0.02)
