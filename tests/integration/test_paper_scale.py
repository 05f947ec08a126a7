"""Paper-scale spot checks.

Full paper-scale sweeps live in the benchmark scripts and the CLI;
these tests verify the headline size-independence claim at the paper's
actual N = 100 000 with single cycles, which is cheap enough for the
regular suite.
"""

import numpy as np
import pytest

from repro.avg import (
    GetPairRand,
    GetPairSeq,
    RATE_RAND,
    RATE_SEQ,
    ValueVector,
    run_avg,
)
from repro.topology import CompleteTopology

N_PAPER = 100_000


@pytest.fixture(scope="module")
def paper_topology():
    return CompleteTopology(N_PAPER)


class TestPaperScaleSingleCycle:
    def test_seq_reduction_at_100k(self, paper_topology):
        vector = ValueVector.gaussian(N_PAPER, seed=1)
        result = run_avg(vector, GetPairSeq(paper_topology), 1, seed=2)
        assert result.cycles[0].reduction == pytest.approx(RATE_SEQ, rel=0.03)

    def test_rand_reduction_at_100k(self, paper_topology):
        vector = ValueVector.gaussian(N_PAPER, seed=3)
        result = run_avg(vector, GetPairRand(paper_topology), 1, seed=4)
        assert result.cycles[0].reduction == pytest.approx(RATE_RAND, rel=0.03)

    def test_mean_conserved_at_100k(self, paper_topology):
        vector = ValueVector.gaussian(N_PAPER, mean=7.0, seed=5)
        initial = vector.mean
        run_avg(vector, GetPairSeq(paper_topology), 1, seed=6)
        assert vector.mean == pytest.approx(initial, abs=1e-10)

    def test_phi_mean_at_100k(self, paper_topology):
        selector = GetPairSeq(paper_topology)
        pairs = selector.cycle_pairs(np.random.default_rng(7))
        phi = selector.phi_counts(pairs)
        assert phi.mean() == pytest.approx(2.0)
        assert phi.min() >= 1  # every node initiates
