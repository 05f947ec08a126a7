"""Paper-scale spot checks.

Full paper-scale sweeps live in the benchmark scripts and the CLI;
these tests verify the headline size-independence claim at the paper's
actual N = 100 000 with single cycles, which is cheap enough for the
regular suite.
"""

import numpy as np
import pytest

from repro.avg import RATE_RAND, RATE_SEQ, empirical_mean
from repro.kernel import GossipEngine, PairProtocolSpec, Scenario
from repro.kernel.pairs import pairs_seq
from repro.rng import make_rng
from repro.topology import CompleteTopology

N_PAPER = 100_000


@pytest.fixture(scope="module")
def paper_topology():
    return CompleteTopology(N_PAPER)


def one_cycle(topology, selector, values, seed):
    """The variance reduction of one AVG cycle and the final values."""
    scenario = Scenario(topology, values,
                        pair_protocol=PairProtocolSpec(selector), seed=seed)
    with GossipEngine(scenario) as engine:
        variances = engine.run(1).variance_array("avg")
        return variances[1] / variances[0], engine.alive_column("avg")


def gaussian(seed, mean=0.0):
    return make_rng(seed).normal(mean, 1.0, size=N_PAPER)


class TestPaperScaleSingleCycle:
    def test_seq_reduction_at_100k(self, paper_topology):
        reduction, _ = one_cycle(paper_topology, "seq", gaussian(1), 2)
        assert reduction == pytest.approx(RATE_SEQ, rel=0.03)

    def test_rand_reduction_at_100k(self, paper_topology):
        reduction, _ = one_cycle(paper_topology, "rand", gaussian(3), 4)
        assert reduction == pytest.approx(RATE_RAND, rel=0.03)

    def test_mean_conserved_at_100k(self, paper_topology):
        values = gaussian(5, mean=7.0)
        _, final = one_cycle(paper_topology, "seq", values, 6)
        assert empirical_mean(final) == pytest.approx(
            empirical_mean(values), abs=1e-10
        )

    def test_phi_mean_at_100k(self, paper_topology):
        pairs = pairs_seq(paper_topology, np.random.default_rng(7))
        phi = np.bincount(pairs.ravel(), minlength=N_PAPER)
        assert phi.mean() == pytest.approx(2.0)
        assert phi.min() >= 1  # every node initiates
