"""Integration: the Figure 4 scenario end to end (scaled down)."""

import numpy as np
import pytest

from repro.core import SizeEstimationConfig, SizeEstimationExperiment
from repro.kernel import ChurnTrace


@pytest.fixture(scope="module")
def figure4_run():
    """A 1/100-scale Figure 4: size oscillates 900–1100, fluctuation 1
    node per cycle, epoch = 30 cycles, 300 cycles total."""
    config = SizeEstimationConfig(
        cycles=300,
        cycles_per_epoch=30,
        initial_size=1000,
        expected_leaders=1.0,
        seed=42,
    )
    churn = ChurnTrace.diurnal(1000, 300, period=300, amplitude=100,
                               fluctuation=1)
    experiment = SizeEstimationExperiment(config, churn=churn)
    experiment.run()
    return experiment


class TestFigure4Shape:
    def test_one_report_per_epoch(self, figure4_run):
        assert len(figure4_run.reports) == 10

    def test_estimates_track_size(self, figure4_run):
        for report in figure4_run.reports:
            assert report.relative_error < 0.15

    def test_estimate_lags_by_one_epoch(self, figure4_run):
        """'the curve of estimates is similar to the actual size curve,
        only translated by an epoch': end-of-epoch estimates match the
        epoch-START size better than the epoch-end size when they differ."""
        better_start = 0
        comparisons = 0
        for report in figure4_run.reports:
            if report.size_at_start == report.size_at_end:
                continue
            comparisons += 1
            err_start = abs(report.estimate_mean - report.size_at_start)
            err_end = abs(report.estimate_mean - report.size_at_end)
            if err_start <= err_end:
                better_start += 1
        assert comparisons > 0
        assert better_start >= comparisons * 0.7

    def test_error_bars_bracket_mean(self, figure4_run):
        for report in figure4_run.reports:
            assert report.estimate_min <= report.estimate_mean <= report.estimate_max

    def test_size_trace_oscillates(self, figure4_run):
        trace = np.asarray(figure4_run.size_trace)
        assert trace.max() >= 1080
        assert trace.min() <= 920

    def test_oscillation_recovered_from_estimates(self, figure4_run):
        estimates = np.array([r.estimate_mean for r in figure4_run.reports])
        assert estimates.max() > estimates.min() * 1.1  # sees the swing
