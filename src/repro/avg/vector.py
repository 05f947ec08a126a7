"""The empirical statistics of eqs. (2)–(3).

The paper analyzes anti-entropy averaging as variance reduction over a
vector ``a = (a_1 .. a_N)`` of node values (a float64 array):

* :func:`empirical_mean` — the empirical average (eq. 2), conserved by
  every elementary step, and
* :func:`empirical_variance` — the unbiased empirical variance (eq. 3),
  which the convergence theorems drive to zero.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError


def empirical_mean(values: np.ndarray) -> float:
    """Empirical average, eq. (2)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ConfigurationError("mean of an empty vector is undefined")
    return float(values.mean())


def empirical_variance(values: np.ndarray) -> float:
    """Unbiased empirical variance with the paper's 1/(N−1) factor, eq. (3)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise ConfigurationError("variance needs at least two values")
    return float(values.var(ddof=1))

