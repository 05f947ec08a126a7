"""Empirical convergence analysis.

Turns AVG trajectories (or any variance series) into the quantities the
paper's figures report: per-cycle reduction ratios, fitted geometric
rates and cycles-to-threshold counts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..fields import check_real


def empirical_reduction_rates(variances: Sequence[float]) -> np.ndarray:
    """Per-cycle ratios σ²ᵢ/σ²ᵢ₋₁ from a variance trajectory.

    Ratios where the previous variance is zero are reported as ``nan``
    (the run already converged exactly).
    """
    variances = np.asarray(variances, dtype=np.float64)
    if variances.ndim != 1 or len(variances) < 2:
        raise ConfigurationError("need a 1-D trajectory with at least two points")
    previous = variances[:-1]
    ratios = np.full(len(variances) - 1, np.nan)
    nonzero = previous > 0
    ratios[nonzero] = variances[1:][nonzero] / previous[nonzero]
    return ratios


def geometric_mean_reduction(variances: Sequence[float]) -> float:
    """Geometric mean of the per-cycle ratios σ²ᵢ/σ²ᵢ₋₁ (the empirical
    rate) of a variance trajectory.

    Cycles at or past exact convergence contribute nothing to the
    empirical rate: a ``0.0`` ratio (the converging cycle) or a
    ``nan`` ratio (every cycle after it) is dropped, so a run that
    converges exactly mid-way still reports its pre-convergence
    rate instead of ``nan``.
    """
    ratios = empirical_reduction_rates(variances)
    ratios = ratios[np.isfinite(ratios) & (ratios > 0)]
    if len(ratios) == 0:
        return float("nan")
    return float(np.exp(np.log(ratios).mean()))


def fit_geometric_rate(variances: Sequence[float]) -> float:
    """Least-squares geometric rate of a variance trajectory.

    Fits ``log σ²ᵢ = log σ²₀ + i·log r`` and returns ``r``. This is the
    statistically robust way to extract the per-cycle rate the theory
    predicts (E(2^{-φ})) from a noisy simulated trajectory.
    """
    variances = np.asarray(variances, dtype=np.float64)
    if variances.ndim != 1 or len(variances) < 2:
        raise ConfigurationError("need a 1-D trajectory with at least two points")
    if np.any(variances <= 0):
        variances = variances[variances > 0]
        if len(variances) < 2:
            raise ConfigurationError("trajectory collapsed to zero too early to fit")
    cycles = np.arange(len(variances), dtype=np.float64)
    slope = np.polyfit(cycles, np.log(variances), 1)[0]
    return float(np.exp(slope))


def cycles_until_threshold(
    variances: Sequence[float], threshold_ratio: float
) -> int:
    """First cycle index i with σ²ᵢ/σ²₀ ≤ ``threshold_ratio``.

    Returns −1 when the trajectory never reaches the threshold.
    Used to check the §5 claim (99.9 % reduction in ≈ 7 cycles for
    GETPAIR_RAND).
    """
    check_real(threshold_ratio, "threshold_ratio", above=0, below=1)
    variances = np.asarray(variances, dtype=np.float64)
    if len(variances) == 0 or variances[0] <= 0:
        raise ConfigurationError("need a trajectory with positive initial variance")
    target = variances[0] * threshold_ratio
    hits = np.nonzero(variances <= target)[0]
    return int(hits[0]) if len(hits) else -1
