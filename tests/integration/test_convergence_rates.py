"""Integration: empirical AVG convergence matches the §3.3 theory.

These are the paper's headline quantitative claims, verified end to end
(initial values + pair-mode scenario + kernel run + rate fitting).
"""

import numpy as np
import pytest

from repro.analysis import geometric_mean, replicate
from repro.avg import (
    RATE_PM,
    RATE_RAND,
    RATE_SEQ,
    cycles_until_threshold,
    geometric_mean_reduction,
)
from repro.kernel import PairProtocolSpec, Scenario, run_scenario
from repro.rng import make_rng
from repro.topology import CompleteTopology, RandomRegularTopology

N = 1000
CYCLES = 12


def gaussian_variances(topology, selector, cycles, rng):
    """The variance trajectory of AVG over N(0, 1) values, drawn from
    ``rng`` before the run itself draws from it."""
    scenario = Scenario(
        topology,
        make_rng(rng).normal(0.0, 1.0, size=topology.n),
        pair_protocol=PairProtocolSpec(selector),
        cycles=cycles,
        seed=rng,
    )
    return run_scenario(scenario).variance_array("avg")


def measure_rate(selector, topology, runs=5, seed=100):
    def one_run(rng):
        return geometric_mean_reduction(
            gaussian_variances(topology, selector, CYCLES, rng)
        )

    return geometric_mean(replicate(one_run, runs=runs, seed=seed).outputs)


@pytest.fixture(scope="module")
def complete():
    return CompleteTopology(N)


class TestRatesOnCompleteTopology:
    def test_pm_rate(self, complete):
        rate = measure_rate("pm", complete)
        assert rate == pytest.approx(RATE_PM, rel=0.03)

    def test_rand_rate(self, complete):
        rate = measure_rate("rand", complete)
        assert rate == pytest.approx(RATE_RAND, rel=0.05)

    def test_seq_rate(self, complete):
        rate = measure_rate("seq", complete)
        assert rate == pytest.approx(RATE_SEQ, rel=0.05)

    def test_pmrand_rate(self, complete):
        rate = measure_rate("pmrand", complete)
        assert rate == pytest.approx(RATE_SEQ, rel=0.05)

    def test_empirical_ordering(self, complete):
        """PM < SEQ < RAND and PM < PMRAND < RAND (§3.3.3 comparison)."""
        pm = measure_rate("pm", complete)
        seq = measure_rate("seq", complete)
        pmrand = measure_rate("pmrand", complete)
        rand = measure_rate("rand", complete)
        assert pm < seq < rand
        assert pm < pmrand < rand


class TestRatesOnRandomTopology:
    """Figure 3: the 20-regular random overlay converges slightly slower
    than fully connected, but stays in the same regime."""

    @pytest.fixture(scope="class")
    def regular(self):
        return RandomRegularTopology(N, 20, seed=55)

    def test_seq_close_to_theory(self, regular):
        rate = measure_rate("seq", regular)
        assert rate == pytest.approx(RATE_SEQ, rel=0.15)

    def test_rand_close_to_theory(self, regular):
        rate = measure_rate("rand", regular)
        assert rate == pytest.approx(RATE_RAND, rel=0.15)

    @pytest.mark.parametrize("selector", ["seq", "rand"])
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
            variances = gaussian_variances(CompleteTopology(n), "seq", 1, rng)
            return variances[1] / variances[0]

        rate = np.mean(replicate(one_run, runs=8, seed=n).outputs)
        assert rate == pytest.approx(RATE_SEQ, rel=0.12)


class TestEfficiencyClaim:
    def test_999_reduction_within_seven_cycles_rand(self):
        """§5: 'the variance over the network will decrease 99.9% in
        ln 1000 ≈ 7 cycles of AVG' with GETPAIR_RAND."""
        def one_run(rng):
            variances = gaussian_variances(CompleteTopology(2000), "rand",
                                           10, rng)
            return cycles_until_threshold(variances, 1e-3)

        cycles = replicate(one_run, runs=5, seed=7).outputs
        assert all(c != -1 for c in cycles)
        assert np.mean(cycles) <= 8  # 7 ± stochastic slack
