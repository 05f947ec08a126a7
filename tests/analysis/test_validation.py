"""Tests for analysis.validation — χ² machinery and the paper's
distributional claims about φ."""

import numpy as np
import pytest

from repro.analysis import (
    chi_square_critical,
    chi_square_statistic,
    poisson_fit_ok,
)
from repro.errors import ConfigurationError
from repro.kernel.pairs import pairs_rand, pairs_seq
from repro.rng import make_rng
from repro.topology import CompleteTopology


class TestChiSquare:
    def test_perfect_fit_statistic_zero(self):
        observed = np.array([50, 30, 20])
        probabilities = np.array([0.5, 0.3, 0.2])
        assert chi_square_statistic(observed, probabilities) == pytest.approx(0.0)

    def test_bad_fit_large_statistic(self):
        observed = np.array([90, 5, 5])
        probabilities = np.array([1 / 3, 1 / 3, 1 / 3])
        assert chi_square_statistic(observed, probabilities) > 50

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            chi_square_statistic([0, 0], [0.5, 0.5])

    def test_critical_values_reasonable(self):
        # df=10, alpha=0.01: true value 23.21
        assert chi_square_critical(10, alpha=0.01) == pytest.approx(23.2, rel=0.05)
        # df=5, alpha=0.05: true value 11.07
        assert chi_square_critical(5, alpha=0.05) == pytest.approx(11.07, rel=0.05)

    def test_critical_validation(self):
        with pytest.raises(ConfigurationError):
            chi_square_critical(0)


class TestPoissonFit:
    def test_true_poisson_accepted(self):
        rng = np.random.default_rng(1)
        samples = rng.poisson(2.0, size=20000)
        assert poisson_fit_ok(samples, 2.0)

    def test_wrong_rate_rejected(self):
        rng = np.random.default_rng(2)
        samples = rng.poisson(4.0, size=20000)
        assert not poisson_fit_ok(samples, 2.0)

    def test_shifted_distribution(self):
        rng = np.random.default_rng(3)
        samples = 1 + rng.poisson(1.0, size=20000)
        assert poisson_fit_ok(samples, 1.0, shift=1)
        assert not poisson_fit_ok(samples, 1.0)  # unshifted fit fails

    def test_negative_after_shift_rejected(self):
        assert not poisson_fit_ok([0, 1, 2], 1.0, shift=1)


class TestPaperDistributionClaims:
    """Eq. (9) and eq. (11) tested as distributions, not just moments."""

    def test_rand_phi_is_poisson2(self):
        topo = CompleteTopology(20000)
        pairs = pairs_rand(topo, make_rng(4))
        phi = np.bincount(pairs.ravel(), minlength=topo.n)
        assert poisson_fit_ok(phi, 2.0)

    def test_seq_phi_is_one_plus_poisson1(self):
        topo = CompleteTopology(20000)
        pairs = pairs_seq(topo, make_rng(5))
        phi = np.bincount(pairs.ravel(), minlength=topo.n)
        assert poisson_fit_ok(phi, 1.0, shift=1)

    def test_seq_phi_is_not_poisson2(self):
        """SEQ and RAND have the same mean φ = 2 but different
        distributions — the whole point of §3.3.3."""
        topo = CompleteTopology(20000)
        pairs = pairs_seq(topo, make_rng(6))
        phi = np.bincount(pairs.ravel(), minlength=topo.n)
        assert not poisson_fit_ok(phi, 2.0)
