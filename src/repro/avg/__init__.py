"""The theoretical AVG layer (Section 3 of the paper).

This package models one cycle of anti-entropy averaging as the AVG
algorithm of Figure 2: ``N`` elementary variance-reduction steps
``a_i = a_j = (a_i + a_j) / 2`` driven by a pluggable pair selector.
It contains the pair selectors analyzed in §3.3, the instrumented
algorithm runner, and the closed-form convergence theory.
"""

from .vector import ValueVector, empirical_mean, empirical_variance
from .pair_selectors import (
    PairSelector,
    GetPairPerfectMatching,
    GetPairRand,
    GetPairSeq,
    GetPairPMRand,
)
from .algorithm import CycleStats, RunResult, run_avg
from .theory import (
    RATE_PM,
    RATE_RAND,
    RATE_SEQ,
    convergence_rate,
    expected_reduction_lemma1,
    expected_two_pow_minus_phi,
    phi_distribution,
    poisson_pmf,
    cycles_to_reduce,
    rate_seq_with_loss,
    verify_lemma2_optimality,
)
from .convergence import (
    empirical_reduction_rates,
    fit_geometric_rate,
    cycles_until_threshold,
)

__all__ = [
    "ValueVector",
    "empirical_mean",
    "empirical_variance",
    "PairSelector",
    "GetPairPerfectMatching",
    "GetPairRand",
    "GetPairSeq",
    "GetPairPMRand",
    "CycleStats",
    "RunResult",
    "run_avg",
    "RATE_PM",
    "RATE_RAND",
    "RATE_SEQ",
    "convergence_rate",
    "expected_reduction_lemma1",
    "expected_two_pow_minus_phi",
    "phi_distribution",
    "poisson_pmf",
    "cycles_to_reduce",
    "rate_seq_with_loss",
    "verify_lemma2_optimality",
    "empirical_reduction_rates",
    "fit_geometric_rate",
    "cycles_until_threshold",
]
