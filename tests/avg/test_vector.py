"""Tests for avg.vector — the eq. (2)-(3) statistics."""

import numpy as np
import pytest

from repro.avg import empirical_mean, empirical_variance
from repro.errors import ConfigurationError


class TestStatistics:
    def test_empirical_mean(self):
        assert empirical_mean(np.array([1.0, 2.0, 3.0])) == 2.0

    def test_empirical_mean_empty(self):
        with pytest.raises(ConfigurationError):
            empirical_mean(np.array([]))

    def test_empirical_variance_unbiased(self):
        # eq. (3) uses the 1/(N-1) normalization
        values = np.array([0.0, 2.0])
        assert empirical_variance(values) == pytest.approx(2.0)

    def test_empirical_variance_needs_two(self):
        with pytest.raises(ConfigurationError):
            empirical_variance(np.array([1.0]))

