"""Tests for avg.convergence — empirical rate extraction."""

import numpy as np
import pytest

from repro.avg import (
    cycles_until_threshold,
    empirical_reduction_rates,
    fit_geometric_rate,
    geometric_mean_reduction,
)
from repro.errors import ConfigurationError


class TestReductionRates:
    def test_simple_ratios(self):
        rates = empirical_reduction_rates([8.0, 4.0, 1.0])
        assert rates.tolist() == [0.5, 0.25]

    def test_zero_previous_gives_nan(self):
        rates = empirical_reduction_rates([1.0, 0.0, 0.0])
        assert rates[0] == 0.0
        assert np.isnan(rates[1])

    def test_too_short_rejected(self):
        with pytest.raises(ConfigurationError):
            empirical_reduction_rates([1.0])


class TestGeometricMeanReduction:
    def test_exact_geometric_series(self):
        series = [100.0 * 0.3**i for i in range(6)]
        assert geometric_mean_reduction(series) == pytest.approx(0.3)

    def test_ignores_converged_cycles(self):
        """Regression: a run that hits exact convergence mid-way used to
        report nan for the whole run (the 0.0 ratio survived the
        nan-filter and tripped the <= 0 guard). Converged-cycle ratios
        are dropped; the pre-convergence empirical rate remains."""
        # ratios 0.25, 0.25, then 0.0 (converged) and nan (past it)
        series = [4.0, 1.0, 0.25, 0.0, 0.0]
        assert geometric_mean_reduction(series) == pytest.approx(0.25)


class TestGeometricFit:
    def test_exact_geometric_series(self):
        series = [100.0 * 0.3**i for i in range(10)]
        assert fit_geometric_rate(series) == pytest.approx(0.3)

    def test_noisy_series(self):
        rng = np.random.default_rng(1)
        series = [50.0 * 0.25**i * rng.uniform(0.9, 1.1) for i in range(12)]
        assert fit_geometric_rate(series) == pytest.approx(0.25, rel=0.05)

    def test_zeros_trimmed(self):
        series = [4.0, 1.0, 0.25, 0.0, 0.0]
        assert fit_geometric_rate(series) == pytest.approx(0.25)

    def test_all_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_geometric_rate([0.0, 0.0])

    def test_too_short_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_geometric_rate([1.0])


class TestCyclesUntilThreshold:
    def test_hits_threshold(self):
        series = [1.0, 0.3, 0.09, 0.027, 0.0081, 0.00243, 0.000729]
        assert cycles_until_threshold(series, 1e-3) == 6

    def test_never_reaches(self):
        assert cycles_until_threshold([1.0, 0.9, 0.8], 1e-3) == -1

    def test_first_cycle_counts(self):
        assert cycles_until_threshold([1.0, 0.0005], 1e-3) == 1

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            cycles_until_threshold([1.0, 0.5], 2.0)

    def test_zero_initial_rejected(self):
        with pytest.raises(ConfigurationError):
            cycles_until_threshold([0.0, 0.0], 0.5)
