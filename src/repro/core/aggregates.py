"""Aggregate functions (§1.1).

The protocol skeleton of Figure 1 is parameterized by an AGGREGATE
function applied to the two approximations of a communicating pair.
This module implements the functions the paper names:

* :class:`MeanAggregate` — AGGREGATE_AVG, the focus of the analysis.
  Averaging is the universal building block: with it one can compute
  "any moments, the size of the system, the sum of the value set, etc."
* :class:`MaxAggregate` / :class:`MinAggregate` — AGGREGATE_MAX and the
  dual; their spreading behavior "is identical to that of the push-pull
  epidemic broadcast".
* :class:`GeometricMeanAggregate` — averaging in the log domain, useful
  for products / multiplicative quantities.

plus the *derived estimators* built from converged averages: network
size (§4), sums, k-th moments and variance.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError, EstimationError


class AggregateFunction(ABC):
    """A symmetric, idempotent-on-agreement pairwise combiner.

    ``combine(x, y)`` is the new approximation adopted by *both* peers
    after an exchange. Symmetry (order independence) is what makes the
    push-pull exchange well defined.
    """

    #: identifier used in reports
    name: str = "abstract"

    @abstractmethod
    def combine(self, x: float, y: float) -> float:
        """The new shared approximation for a pair holding x and y."""

    def combine_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`combine` over aligned value arrays.

        The vectorized kernel backend applies a whole conflict-free
        batch of exchanges through this method. Subclasses override it
        with a closed-form numpy expression that is IEEE-identical to
        the scalar ``combine``; this fallback routes each element
        through the scalar path (correct for any combiner, but slow).
        """
        return np.frompyfunc(self.combine, 2, 1)(x, y).astype(np.float64)

    def combine_into(self, x: np.ndarray, y: np.ndarray, out) -> None:
        """:meth:`combine_array` written into ``out``, which may be
        ``x``: the batch kernel combines a gathered block in place.
        The built-ins override this fallback bit-identically, with
        ufunc calls that build no float64 temporary."""
        out[...] = self.combine_array(x, y)

    def __call__(self, x: float, y: float) -> float:
        return self.combine(x, y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class MeanAggregate(AggregateFunction):
    """AGGREGATE_AVG: both peers adopt the arithmetic mean.

    Conserves the sum of approximations across the network — the mass
    conservation property underlying the paper's correctness argument
    ("the algorithm does not introduce any errors").
    """

    name = "mean"

    def combine(self, x: float, y: float) -> float:
        return (x + y) / 2.0

    def combine_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # (x + y) * 0.5 is bitwise equal to (x + y) / 2.0 in IEEE-754
        return (x + y) * 0.5

    def combine_into(self, x, y, out) -> None:
        np.multiply(np.add(x, y, out=out), 0.5, out=out)


class MaxAggregate(AggregateFunction):
    """AGGREGATE_MAX: the true maximum spreads epidemically."""

    name = "max"

    def combine(self, x: float, y: float) -> float:
        return x if x >= y else y

    def combine_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # not np.maximum: the scalar path takes y when x is NaN and
        # keeps x on a signed-zero tie, and backend equivalence is
        # bitwise
        return np.where(x >= y, x, y)

    def combine_into(self, x, y, out) -> None:
        np.copyto(out, x)
        np.copyto(out, y, where=~(x >= y))


class MinAggregate(AggregateFunction):
    """The dual of AGGREGATE_MAX."""

    name = "min"

    def combine(self, x: float, y: float) -> float:
        return x if x <= y else y

    def combine_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # np.where, not np.minimum, to mirror the scalar tie/NaN
        # behavior bitwise (see MaxAggregate)
        return np.where(x <= y, x, y)

    def combine_into(self, x, y, out) -> None:
        np.copyto(out, x)
        np.copyto(out, y, where=~(x <= y))


class GeometricMeanAggregate(AggregateFunction):
    """Both peers adopt sqrt(x·y); conserves the product of values.

    Requires positive approximations.
    """

    name = "geometric_mean"

    def combine(self, x: float, y: float) -> float:
        if x <= 0 or y <= 0:
            raise ConfigurationError(
                f"geometric mean requires positive values, got ({x}, {y})"
            )
        return math.sqrt(x * y)

    def combine_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if np.any(x <= 0) or np.any(y <= 0):
            raise ConfigurationError(
                "geometric mean requires positive values"
            )
        return np.sqrt(x * y)

    def combine_into(self, x, y, out) -> None:
        if np.any(x <= 0) or np.any(y <= 0):
            raise ConfigurationError(
                "geometric mean requires positive values"
            )
        np.sqrt(np.multiply(x, y, out=out), out=out)


# ----------------------------------------------------------------------
# Derived estimators (§1.1, §4)
# ----------------------------------------------------------------------


def estimate_network_size(average_of_indicator: float) -> float:
    """§4: with one node holding 1 and the rest 0, the average is 1/N,
    so N = 1 / average."""
    if average_of_indicator <= 0:
        raise EstimationError(
            f"indicator average must be positive, got {average_of_indicator}"
        )
    return 1.0 / average_of_indicator


def estimate_sum(mean_estimate: float, size_estimate: float) -> float:
    """Sum = mean × N, combining an averaging instance with a counting
    instance (§1.1)."""
    if size_estimate <= 0:
        raise EstimationError(f"size estimate must be positive, got {size_estimate}")
    return mean_estimate * size_estimate


def moment_values(values: Sequence[float], k: int) -> np.ndarray:
    """Initial vector for estimating the k-th raw moment: average the
    k-th powers of the attribute values (§1.1)."""
    if k < 1:
        raise ConfigurationError(f"moment order must be >= 1, got {k}")
    return np.asarray(values, dtype=np.float64) ** k


def estimate_variance_from_moments(first_moment: float, second_moment: float) -> float:
    """Population variance from converged first and second raw moments:
    Var = E[a²] − E[a]².

    Small negative results from numerical noise are clamped to zero;
    anything substantially negative indicates the two instances did not
    converge consistently and raises.
    """
    variance = second_moment - first_moment * first_moment
    if variance < -1e-9 * max(1.0, abs(second_moment)):
        raise EstimationError(
            f"inconsistent moments: E[a^2]={second_moment} < (E[a])^2="
            f"{first_moment * first_moment}"
        )
    return max(variance, 0.0)
