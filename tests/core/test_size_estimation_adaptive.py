"""Tests for adaptive leader election (§4: leader probability 'can also
depend on the previous approximation of network size')."""

import numpy as np
import pytest

from repro.core import SizeEstimationConfig, SizeEstimationExperiment
from repro.kernel import ChurnTrace


class TestAdaptiveLeaders:
    def test_static_network_equivalent_accuracy(self):
        base = dict(
            cycles=90, cycles_per_epoch=30, initial_size=400,
            expected_leaders=2.0,
        )
        fixed = SizeEstimationExperiment(
            SizeEstimationConfig(seed=1, **base)
        ).run()
        adaptive = SizeEstimationExperiment(
            SizeEstimationConfig(seed=1, adaptive_leaders=True, **base)
        ).run()
        for fixed_report, adaptive_report in zip(fixed, adaptive):
            assert fixed_report.relative_error < 1e-3
            assert adaptive_report.relative_error < 1e-3

    def test_adaptive_probability_tracks_growth(self):
        """With adaptive leaders the expected instance count stays near
        the target even while the network grows: the election
        denominator follows the (lagged) estimate."""
        config = SizeEstimationConfig(
            cycles=300,
            cycles_per_epoch=30,
            initial_size=500,
            expected_leaders=4.0,
            adaptive_leaders=True,
            seed=3,
        )
        churn = ChurnTrace.constant(300, 5, 0)
        experiment = SizeEstimationExperiment(config, churn=churn)
        reports = experiment.run()
        counts = [report.instance_count for report in reports]
        # instance counts hover around expected_leaders with the right
        # order of magnitude (Poisson-4 spread), never exploding
        assert 1 <= min(counts)
        assert max(counts) <= 16
        assert 2.0 <= np.mean(counts) <= 8.0

    def test_first_epoch_falls_back_to_true_size(self):
        """No previous estimate exists at epoch 0; the adaptive mode
        must still elect sensibly (falls back to the participant count)."""
        config = SizeEstimationConfig(
            cycles=30, cycles_per_epoch=30, initial_size=300,
            adaptive_leaders=True, seed=5,
        )
        reports = SizeEstimationExperiment(config).run()
        assert len(reports) == 1
        assert reports[0].instance_count >= 1
        assert reports[0].relative_error < 1e-3
