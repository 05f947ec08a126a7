"""The theoretical AVG layer (Section 3 of the paper).

Algorithm AVG (Figure 2) runs a cycle as ``N`` elementary
variance-reduction steps ``a_i = a_j = (a_i + a_j) / 2`` over a GETPAIR
sequence. The kernel runs it: a :class:`~repro.kernel.Scenario` that
declares ``pair_protocol=PairProtocolSpec(selector)`` (one of the four
selectors of §3.3, hosted in :mod:`repro.kernel.pairs`) executes AVG,
and its :class:`~repro.kernel.KernelRunResult` carries the variance
trajectory, the φ counts and Theorem 1's ``s`` means. This package
holds what is read off such a run: the empirical statistics of
eqs. (2)–(3), the convergence analysis of a variance trajectory, the
closed-form theory and the small-N matrix view.
"""

from .vector import empirical_mean, empirical_variance
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
    geometric_mean_reduction,
    cycles_until_threshold,
)

__all__ = [
    "empirical_mean",
    "empirical_variance",
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
    "geometric_mean_reduction",
    "cycles_until_threshold",
]
