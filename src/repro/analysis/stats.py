"""Statistical summaries for experiment outputs.

The paper reports "averages over 50 independent runs" and error bars
showing ranges; these helpers compute exactly those summaries without
pulling in scipy (a normal-approximation CI is plenty for 50 runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class SeriesSummary:
    """Mean / spread summary of replicated scalar observations."""

    mean: float
    std: float
    minimum: float
    maximum: float
    count: int

    @property
    def standard_error(self) -> float:
        """Standard error of the mean."""
        return self.std / np.sqrt(self.count) if self.count > 0 else float("nan")


def summarize(values: Sequence[float]) -> SeriesSummary:
    """Summary statistics of a sample (ddof=1 std for n >= 2)."""
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        raise ConfigurationError("cannot summarize an empty sample")
    return SeriesSummary(
        mean=float(array.mean()),
        std=float(array.std(ddof=1)) if array.size > 1 else 0.0,
        minimum=float(array.min()),
        maximum=float(array.max()),
        count=int(array.size),
    )


def confidence_interval(
    values: Sequence[float], *, z: float = 1.96
) -> Tuple[float, float]:
    """Normal-approximation CI for the mean (default 95 %)."""
    summary = summarize(values)
    half_width = z * summary.standard_error
    return summary.mean - half_width, summary.mean + half_width


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values.

    The right way to average per-cycle variance *ratios* across runs.
    """
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        raise ConfigurationError("cannot average an empty sample")
    if np.any(array <= 0):
        raise ConfigurationError("geometric mean requires positive values")
    return float(np.exp(np.log(array).mean()))


def convergence_factor(variances: Sequence[float]) -> float:
    """Geometric per-cycle variance reduction rate over the longest
    prefix where the variance stays positive (late cycles underflow to
    exactly 0.0 on converged runs); NaN without two positive readings
    from the start."""
    variances = np.asarray(variances, dtype=np.float64)
    positive = np.flatnonzero(variances > 0.0)
    if len(positive) < 2 or positive[0] != 0:
        return float("nan")
    last = int(positive[-1])
    return float((variances[last] / variances[0]) ** (1.0 / last))
