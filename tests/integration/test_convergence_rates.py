"""Integration: empirical AVG convergence matches the §3.3 theory.

These are the paper's headline quantitative claims, verified end to end
(value vector + pair selector + algorithm + rate fitting).
"""

import numpy as np
import pytest

from repro.analysis import geometric_mean, replicate
from repro.avg import (
    GetPairPerfectMatching,
    GetPairPMRand,
    GetPairRand,
    GetPairSeq,
    RATE_PM,
    RATE_RAND,
    RATE_SEQ,
    ValueVector,
    cycles_until_threshold,
    run_avg,
)
from repro.topology import CompleteTopology, RandomRegularTopology

N = 1000
CYCLES = 12


def measure_rate(selector_factory, topology, runs=5, seed=100):
    def one_run(rng):
        vec = ValueVector.gaussian(topology.n, seed=rng)
        result = run_avg(vec, selector_factory(topology), CYCLES, seed=rng)
        return result.geometric_mean_reduction()

    return geometric_mean(replicate(one_run, runs=runs, seed=seed).outputs)


@pytest.fixture(scope="module")
def complete():
    return CompleteTopology(N)


class TestRatesOnCompleteTopology:
    def test_pm_rate(self, complete):
        rate = measure_rate(GetPairPerfectMatching, complete)
        assert rate == pytest.approx(RATE_PM, rel=0.03)

    def test_rand_rate(self, complete):
        rate = measure_rate(GetPairRand, complete)
        assert rate == pytest.approx(RATE_RAND, rel=0.05)

    def test_seq_rate(self, complete):
        rate = measure_rate(GetPairSeq, complete)
        assert rate == pytest.approx(RATE_SEQ, rel=0.05)

    def test_pmrand_rate(self, complete):
        rate = measure_rate(GetPairPMRand, complete)
        assert rate == pytest.approx(RATE_SEQ, rel=0.05)

    def test_empirical_ordering(self, complete):
        """PM < SEQ < RAND and PM < PMRAND < RAND (§3.3.3 comparison)."""
        pm = measure_rate(GetPairPerfectMatching, complete)
        seq = measure_rate(GetPairSeq, complete)
        pmrand = measure_rate(GetPairPMRand, complete)
        rand = measure_rate(GetPairRand, complete)
        assert pm < seq < rand
        assert pm < pmrand < rand


class TestRatesOnRandomTopology:
    """Figure 3: the 20-regular random overlay converges slightly slower
    than fully connected, but stays in the same regime."""

    @pytest.fixture(scope="class")
    def regular(self):
        return RandomRegularTopology(N, 20, seed=55)

    def test_seq_close_to_theory(self, regular):
        rate = measure_rate(GetPairSeq, regular)
        assert rate == pytest.approx(RATE_SEQ, rel=0.15)

    def test_rand_close_to_theory(self, regular):
        rate = measure_rate(GetPairRand, regular)
        assert rate == pytest.approx(RATE_RAND, rel=0.15)

    @pytest.mark.parametrize("selector", [GetPairSeq, GetPairRand])
    def test_random_topology_no_faster_than_complete(self, regular,
                                                     selector):
        complete_rate = measure_rate(selector, CompleteTopology(N))
        regular_rate = measure_rate(selector, regular)
        assert regular_rate > complete_rate * 0.98


class TestScaleInvariance:
    """Figure 3(a): convergence is independent of network size."""

    @pytest.mark.parametrize("n", [100, 1000, 4000])
    def test_seq_first_cycle_reduction(self, n):
        def one_run(rng):
            vec = ValueVector.gaussian(n, seed=rng)
            result = run_avg(vec, GetPairSeq(CompleteTopology(n)), 1, seed=rng)
            return result.cycles[0].reduction

        rate = np.mean(replicate(one_run, runs=8, seed=n).outputs)
        assert rate == pytest.approx(RATE_SEQ, rel=0.12)


class TestEfficiencyClaim:
    def test_999_reduction_within_seven_cycles_rand(self):
        """§5: 'the variance over the network will decrease 99.9% in
        ln 1000 ≈ 7 cycles of AVG' with GETPAIR_RAND."""
        def one_run(rng):
            vec = ValueVector.gaussian(2000, seed=rng)
            result = run_avg(
                vec, GetPairRand(CompleteTopology(2000)), 10, seed=rng
            )
            return cycles_until_threshold(result.variances, 1e-3)

        cycles = replicate(one_run, runs=5, seed=7).outputs
        assert all(c != -1 for c in cycles)
        assert np.mean(cycles) <= 8  # 7 ± stochastic slack
