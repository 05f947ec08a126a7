"""Closed-form convergence theory (§3.2–§3.3 of the paper).

Implements, as executable formulas:

* Lemma 1 — the expected variance reduction of a single elementary step
  on uncorrelated zero-mean values,
* Theorem 1 — ``E(s_{i+1}) = E(2^{-φ}) E(s_i)``, reduced here to
  computing ``E(2^{-φ})`` for a φ distribution,
* the three case studies — eq. (8) for PM, eq. (10) for RAND and
  eq. (12) for SEQ/PMRAND,
* Lemma 2 — optimality of the deterministic φ ≡ 2 among all φ with
  ``E(φ) = 2``, checkable numerically for any candidate distribution,
* the §5 efficiency claim — cycles needed for a target variance
  reduction.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping

import numpy as np

from ..errors import ConfigurationError
from ..fields import check_real

#: Eq. (8): optimal rate of GETPAIR_PM, E(2^{-φ}) with φ ≡ 2.
RATE_PM: float = 0.25

#: Eq. (10): rate of GETPAIR_RAND, φ ~ Poisson(2) ⇒ E(2^{-φ}) = 1/e.
RATE_RAND: float = 1.0 / math.e

#: Eq. (12): rate of GETPAIR_SEQ ≈ GETPAIR_PMRAND, φ = 1 + Poisson(1)
#: ⇒ E(2^{-φ}) = 1/(2√e).
RATE_SEQ: float = 1.0 / (2.0 * math.sqrt(math.e))

#: Same distribution (and rate) as SEQ by the §3.3.3 argument.
RATE_PMRAND: float = RATE_SEQ

_RATES: Dict[str, float] = {
    "pm": RATE_PM,
    "rand": RATE_RAND,
    "seq": RATE_SEQ,
    "pmrand": RATE_PMRAND,
}


def convergence_rate(selector_name: str) -> float:
    """The paper's predicted per-cycle variance reduction rate for a
    selector name (``"pm"``, ``"rand"``, ``"seq"`` or ``"pmrand"``)."""
    try:
        return _RATES[selector_name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown selector {selector_name!r}; expected one of {sorted(_RATES)}"
        ) from None


def poisson_pmf(k: int, lam: float) -> float:
    """P(X = k) for X ~ Poisson(lam)."""
    if k < 0:
        return 0.0
    if lam < 0:
        raise ConfigurationError(f"Poisson rate must be non-negative, got {lam}")
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)) if lam > 0 else float(k == 0)


def phi_distribution(selector_name: str, *, max_k: int = 64) -> np.ndarray:
    """The pmf of φ (communications per node per cycle) for a selector.

    * PM: point mass at 2 (eq. 8 context).
    * RAND: Poisson(2) (eq. 9).
    * SEQ / PMRAND: shifted Poisson, φ = 1 + Poisson(1) (eq. 11).
    """
    name = selector_name.lower()
    pmf = np.zeros(max_k + 1)
    if name == "pm":
        pmf[2] = 1.0
    elif name == "rand":
        for k in range(max_k + 1):
            pmf[k] = poisson_pmf(k, 2.0)
    elif name in ("seq", "pmrand"):
        for k in range(1, max_k + 1):
            pmf[k] = poisson_pmf(k - 1, 1.0)
    else:
        raise ConfigurationError(f"unknown selector {selector_name!r}")
    return pmf


def expected_two_pow_minus_phi(pmf: Mapping[int, float] | np.ndarray) -> float:
    """``E(2^{-φ})`` for an arbitrary φ distribution (Theorem 1's rate).

    ``pmf`` is either an array indexed by k or a mapping k → probability.
    Probabilities must sum to ~1.
    """
    if isinstance(pmf, np.ndarray):
        items = enumerate(pmf.tolist())
        total = float(np.sum(pmf))
    else:
        items = pmf.items()
        total = float(sum(pmf.values()))
    if not math.isclose(total, 1.0, abs_tol=1e-6):
        raise ConfigurationError(f"pmf sums to {total}, expected 1")
    return float(sum(p * 2.0 ** (-k) for k, p in items))


def expected_reduction_lemma1(
    e_ai_sq: float, e_aj_sq: float, n: int
) -> float:
    """Lemma 1 (eq. 5): expected variance reduction from one elementary
    step replacing a_i, a_j with their average, for uncorrelated
    zero-mean values.

    Returns ``E(σ²_a − σ²_a')``.
    """
    if n < 2:
        raise ConfigurationError("Lemma 1 requires at least two elements")
    return (e_ai_sq + e_aj_sq) / (2.0 * (n - 1))


def cycles_to_reduce(factor: float, rate: float) -> int:
    """Cycles needed so that ``rate**cycles <= factor``.

    Implements the §5 claim: with GETPAIR_RAND (rate 1/e) a 99.9 %
    reduction (factor 10⁻³) needs ``ln 1000 ≈ 7`` cycles.
    """
    check_real(factor, "factor", above=0, below=1)
    check_real(rate, "rate", above=0, below=1)
    return math.ceil(math.log(factor) / math.log(rate))


def rate_seq_with_loss(p: float) -> float:
    """Predicted SEQ rate when each exchange independently fails with
    probability p (symmetric message loss).

    Under loss, a node's φ is the Bernoulli-thinned SEQ distribution:
    its own initiation survives with probability 1−p and the Poisson(1)
    incoming contacts are thinned to Poisson(1−p), so

        E(2^{-φ}) = (p + (1−p)/2) · exp(−(1−p)/2).

    Reduces to eq. (12)'s 1/(2√e) at p = 0 and to 1 (no convergence)
    at p = 1. This extends the paper's Theorem 1 machinery to the
    lossy-channel setting discussed in §1.4.
    """
    check_real(p, "loss probability", low=0, high=1)
    survive = 1.0 - p
    return (p + survive / 2.0) * math.exp(-survive / 2.0)


def verify_lemma2_optimality(
    pmf: Mapping[int, float] | np.ndarray, *, tolerance: float = 1e-9
) -> bool:
    """Check Lemma 2 numerically for a candidate φ distribution.

    Returns True when the candidate has ``E(φ) = 2`` (within tolerance)
    and ``E(2^{-φ}) >= 1/4``, i.e. it does not beat the point mass at 2.
    Raises if the mean constraint is violated, since Lemma 2 only speaks
    about distributions with mean exactly 2.
    """
    if isinstance(pmf, np.ndarray):
        ks = np.arange(len(pmf))
        mean = float((ks * pmf).sum())
    else:
        mean = float(sum(k * p for k, p in pmf.items()))
    if not math.isclose(mean, 2.0, abs_tol=1e-6):
        raise ConfigurationError(
            f"Lemma 2 applies to distributions with E(φ)=2, got {mean}"
        )
    return expected_two_pow_minus_phi(pmf) >= RATE_PM - tolerance
