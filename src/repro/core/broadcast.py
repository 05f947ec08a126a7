"""Push-pull epidemic broadcast — the spreading model behind
AGGREGATE_MAX.

§1.1: "the behavior of this protocol from the point of view of the
spreading of the true maximum is identical to that of the push-pull
epidemic broadcast, which is well studied [4]". This module makes that
connection executable:

* :func:`broadcast_scenario` — SI-model spreading on a topology under
  the SEQ discipline (every node gossips once per cycle, push-pull),
  declared as that very MAX aggregation for the gossip kernel, and
  :func:`spread_trajectory`, its informed-count reducer;
* :func:`expected_rounds_push_pull` — the classical
  ``log₂ N + ln N + O(1)`` round complexity (Karp et al. / Pittel) for
  comparison;
* :func:`spread_trajectory_deterministic` — the mean-field recurrence
  for the informed fraction, useful as a reference curve.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..errors import ConfigurationError
from ..fields import check_node_id
from ..kernel.engine import GossipEngine
from ..kernel.scenario import Scenario
from ..rng import SeedLike
from ..topology.base import Topology
from .aggregates import MaxAggregate


def broadcast_scenario(
    topology: Topology, *, origin: int = 0, seed: SeedLike = None
) -> Scenario:
    """SI-model push-pull broadcast from ``origin`` under the SEQ
    discipline.

    Each cycle, every node contacts one uniformly random neighbor; if
    either side of the pair is informed, both become informed (push if
    the initiator knows, pull if the responder knows — the push-pull
    exchange of Figure 1 restricted to a boolean payload). That is
    AGGREGATE_MAX over a 0/1 indicator, the scenario's one column. A
    node with no neighbor never initiates; if it is not the origin it
    is never informed.
    """
    indicator = np.zeros(topology.n)
    indicator[check_node_id(origin, topology.n)] = 1.0
    return Scenario(
        topology, indicator, aggregates={"informed": MaxAggregate()},
        seed=seed,
    )


def spread_trajectory(
    engine: GossipEngine, *, max_cycles: int = 10_000
) -> List[int]:
    """Run a :func:`broadcast_scenario` engine to full coverage and
    return the informed-count trajectory (index 0 = before the first
    cycle run here). Raises once the engine has run ``max_cycles``
    cycles without full coverage (e.g. on a disconnected topology, or
    one with an isolated node)."""
    informed = engine.column()
    trajectory = [int(np.count_nonzero(informed))]
    while not informed.all():
        if engine.cycle >= max_cycles:
            raise ConfigurationError(
                f"broadcast incomplete after {max_cycles} cycles "
                "(disconnected topology?)"
            )
        engine.run_cycle()
        informed = engine.column()
        trajectory.append(int(np.count_nonzero(informed)))
    return trajectory


def expected_rounds_push(n: int) -> float:
    """Push-only round complexity: log₂ n + ln n + O(1) (Pittel 1987).

    An upper envelope for push-pull: useful as the conservative bound
    in tests and monitoring dashboards.
    """
    if n < 1:
        raise ConfigurationError(f"n must be positive, got {n}")
    if n == 1:
        return 0.0
    return math.log2(n) + math.log(n)


def expected_rounds_push_pull(n: int) -> float:
    """Push-pull round complexity: log₃ n + O(log log n)
    (Karp, Schindelhauer, Shenker, Vöcking 2000).

    In a push-pull round an informed node infects via its own call
    (push) *and* is found by uninformed callers (pull), so the informed
    set roughly triples early on and the uninformed remainder shrinks
    doubly exponentially at the end. Returned value is the
    ``log₃ n + log₂ log n`` approximation of the mean; the exact
    constant in the O(log log n) term is not needed for shape checks.
    """
    if n < 1:
        raise ConfigurationError(f"n must be positive, got {n}")
    if n == 1:
        return 0.0
    if n <= 3:
        return 1.0
    return math.log(n, 3) + math.log2(math.log(n))


def spread_trajectory_deterministic(n: int, *, max_cycles: int = 200) -> List[float]:
    """Mean-field informed-fraction recurrence for push-pull SEQ gossip.

    With informed fraction x, an uninformed node becomes informed when
    it contacts an informed node (prob. x) or is contacted by at least
    one informed initiator (each informed node picks it w.p. 1/n; for
    large n the number of informed contacts is Poisson(x)), so

        x' = x + (1 − x)·(1 − (1 − x)·e^{−x}).

    Returns fractions until within 1/(2n) of full coverage.
    """
    if n < 2:
        raise ConfigurationError(f"n must be at least 2, got {n}")
    x = 1.0 / n
    trajectory = [x]
    for _ in range(max_cycles):
        if x >= 1.0 - 1.0 / (2 * n):
            break
        x = x + (1.0 - x) * (1.0 - (1.0 - x) * math.exp(-x))
        trajectory.append(min(x, 1.0))
    return trajectory
