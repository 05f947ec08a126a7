"""The asynchronous Figure 1 protocol as a time-ordered exchange schedule.

Under the paper's §2 model communication takes zero time, so an
asynchronous run is a sequence of atomic push-pull exchanges in
activation order — which the kernel's sequential one-sided primitive
applies as it is. Node ``i`` runs a clock of speed ``rate_i = 1 +
U(-skew, skew)`` and activates at ``(phase_i + k) / rate_i`` under
constant waiting or at cumulative Exp(1) gaps over ``rate_i`` under
exponential waiting. Each activation contacts a uniform partner; the
request is lost with probability ``loss`` (nothing happens), and so is
the reply (only the partner updates). Cycle ``c`` is the time window
``[c, c + 1)``.
"""

import numpy as np

from repro.core import MeanAggregate
from repro.kernel.backends.base import apply_one_sided_sequential


def activations(n, cycles, waiting, skew, rng):
    """``(times, nodes)`` of every activation before ``cycles``, in
    time order."""
    rate = 1.0 + rng.uniform(-skew, skew, n)[:, None]
    if waiting == "constant":
        local = rng.uniform(0.0, 1.0, (n, 1)) + np.arange(cycles * 2 + 2)
    else:
        local = np.cumsum(rng.exponential(1.0, (n, cycles * 4 + 40)), axis=1)
    times = local / rate
    assert (times[:, -1] >= cycles).all(), "activation horizon too short"
    early = times < cycles
    nodes = np.broadcast_to(np.arange(n)[:, None], times.shape)[early]
    times = times[early]
    order = np.argsort(times, kind="stable")
    return times[order], nodes[order]


def exchanges(n, cycles, waiting, skew, rng):
    """``(times, initiators, partners)`` of every exchange before
    ``cycles``, in time order; partners are uniform over the others."""
    times, steps_i = activations(n, cycles, waiting, skew, rng)
    steps_j = (steps_i + rng.integers(1, n, len(steps_i))) % n
    return times, steps_i, steps_j


def run(values, cycles, *, waiting="constant", skew=0.0, loss=0.0,
        function=None, seed=None):
    """Population variance after each of ``cycles`` cycles (index 0 is
    the initial one) and the final values."""
    rng = np.random.default_rng(seed)
    n = len(values)
    matrix = np.array(values, dtype=np.float64).reshape(n, 1)
    functions = [function or MeanAggregate()]
    times, steps_i, steps_j = exchanges(n, cycles, waiting, skew, rng)
    delivered = rng.random(len(steps_i)) >= loss
    replied = rng.random(len(steps_i)) >= loss
    bounds = np.searchsorted(times, np.arange(cycles + 1))
    variances = [matrix[:, 0].var()]
    for start, end in zip(bounds[:-1], bounds[1:]):
        sent = start + np.flatnonzero(delivered[start:end])
        apply_one_sided_sequential(
            matrix, functions, steps_i[sent], steps_j[sent],
            adopt_i=replied[sent],
        )
        variances.append(matrix[:, 0].var())
    return np.array(variances), matrix[:, 0]


def convergence_rate(variances):
    """Geometric mean of the per-cycle variance reduction."""
    return float(np.exp(np.mean(np.log(variances[1:] / variances[:-1]))))
