"""Tests for core.size_estimation — the §4 adaptive counting service."""

import numpy as np
import pytest

from repro.core import SizeEstimationConfig, SizeEstimationExperiment
from repro.kernel import ChurnTrace


class TestStaticNetwork:
    def test_estimates_exact_size(self):
        config = SizeEstimationConfig(
            cycles=30, cycles_per_epoch=30, initial_size=500, seed=1
        )
        experiment = SizeEstimationExperiment(config)
        reports = experiment.run()
        assert len(reports) == 1
        report = reports[0]
        assert report.size_at_start == 500
        assert report.estimate_mean == pytest.approx(500, rel=1e-4)
        assert report.estimate_min == pytest.approx(500, rel=1e-4)
        assert report.estimate_max == pytest.approx(500, rel=1e-4)

    def test_every_node_reports(self):
        config = SizeEstimationConfig(
            cycles=30, cycles_per_epoch=30, initial_size=200, seed=2
        )
        reports = SizeEstimationExperiment(config).run()
        assert reports[0].reporting_nodes == 200

    def test_multiple_epochs(self):
        config = SizeEstimationConfig(
            cycles=90, cycles_per_epoch=30, initial_size=300, seed=3
        )
        reports = SizeEstimationExperiment(config).run()
        assert [r.epoch for r in reports] == [0, 1, 2]
        for report in reports:
            assert report.relative_error < 1e-4

    def test_deterministic(self):
        config = SizeEstimationConfig(
            cycles=60, cycles_per_epoch=30, initial_size=100, seed=4
        )
        a = SizeEstimationExperiment(config).run()
        b = SizeEstimationExperiment(config).run()
        assert [r.estimate_mean for r in a] == [r.estimate_mean for r in b]

    def test_multiple_leaders_supported(self):
        config = SizeEstimationConfig(
            cycles=30,
            cycles_per_epoch=30,
            initial_size=400,
            expected_leaders=5.0,
            seed=5,
        )
        experiment = SizeEstimationExperiment(config)
        reports = experiment.run()
        assert reports[0].instance_count >= 1
        assert reports[0].estimate_mean == pytest.approx(400, rel=1e-4)

    def test_short_epoch_inaccurate(self):
        """An epoch far shorter than the convergence horizon yields a
        wide estimate range — the §4 accuracy/epoch-length trade-off."""
        config = SizeEstimationConfig(
            cycles=4, cycles_per_epoch=4, initial_size=500, seed=6
        )
        report = SizeEstimationExperiment(config).run()[0]
        spread = report.estimate_max - report.estimate_min
        assert spread > 100  # far from converged


class TestChurn:
    def test_growth_tracked_with_one_epoch_lag(self):
        config = SizeEstimationConfig(
            cycles=120, cycles_per_epoch=30, initial_size=500, seed=7
        )
        churn = ChurnTrace.constant(120, 5, 0)
        experiment = SizeEstimationExperiment(config, churn=churn)
        reports = experiment.run()
        # estimates reflect the epoch-start size, not the inflated end size
        for report in reports:
            assert report.estimate_mean == pytest.approx(
                report.size_at_start, rel=0.02
            )
            assert report.size_at_end > report.size_at_start

    def test_departures_bias_estimate(self):
        config = SizeEstimationConfig(
            cycles=30, cycles_per_epoch=30, initial_size=800, seed=8
        )
        churn = ChurnTrace.constant(30, 0, 4)
        report = SizeEstimationExperiment(config, churn=churn).run()[0]
        # leavers remove mass, so estimates drift from the start size but
        # stay within the epoch's size envelope (order of magnitude)
        assert report.size_at_end < report.size_at_start
        assert report.relative_error < 0.5

    def test_diurnal_trace_recorded(self):
        config = SizeEstimationConfig(
            cycles=100, cycles_per_epoch=20, initial_size=1000, seed=9
        )
        churn = ChurnTrace.diurnal(1000, 100, period=100, amplitude=100,
                                   fluctuation=2)
        experiment = SizeEstimationExperiment(config, churn=churn)
        experiment.run()
        trace = np.asarray(experiment.size_trace)
        assert len(trace) == 100
        assert trace.max() > 1050
        assert trace.min() < 950

    def test_estimate_follows_oscillation(self):
        config = SizeEstimationConfig(
            cycles=200, cycles_per_epoch=20, initial_size=1000, seed=10
        )
        churn = ChurnTrace.diurnal(1000, 200, period=200, amplitude=150,
                                   fluctuation=1)
        reports = SizeEstimationExperiment(config, churn=churn).run()
        estimates = np.array([r.estimate_mean for r in reports])
        starts = np.array([r.size_at_start for r in reports])
        correlation = np.corrcoef(estimates, starts)[0, 1]
        assert correlation > 0.9

    def test_joiners_do_not_report(self):
        config = SizeEstimationConfig(
            cycles=30, cycles_per_epoch=30, initial_size=300, seed=11
        )
        churn = ChurnTrace.constant(30, 10, 0)
        experiment = SizeEstimationExperiment(config, churn=churn)
        report = experiment.run()[0]
        assert report.reporting_nodes == 300  # none of the ~300 joiners
        assert experiment.current_size == pytest.approx(600, abs=10)
