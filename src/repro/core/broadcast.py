"""Push-pull epidemic broadcast — the spreading model behind
AGGREGATE_MAX.

§1.1: "the behavior of this protocol from the point of view of the
spreading of the true maximum is identical to that of the push-pull
epidemic broadcast, which is well studied [4]". This module makes that
connection executable:

* :class:`PushPullBroadcast` — SI-model spreading on a topology under
  the SEQ discipline (every node gossips once per cycle, push-pull),
  run as that very MAX aggregation on the gossip kernel;
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
from ..kernel.engine import GossipEngine
from ..kernel.scenario import Scenario
from ..rng import SeedLike
from ..topology.base import Topology
from .aggregates import MaxAggregate


class PushPullBroadcast:
    """SI-model push-pull broadcast under the SEQ discipline.

    Each cycle, every node contacts one uniformly random neighbor; if
    either side of the pair is informed, both become informed (push if
    the initiator knows, pull if the responder knows — the push-pull
    exchange of Figure 1 restricted to a boolean payload). That is
    AGGREGATE_MAX over a 0/1 indicator, so the broadcast is one
    :class:`~repro.kernel.engine.GossipEngine` running it. A node with
    no neighbor never initiates; if it is not the origin it is never
    informed.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        origin: int = 0,
        seed: SeedLike = None,
    ):
        if not 0 <= origin < topology.n:
            raise ConfigurationError(
                f"origin {origin} outside range [0, {topology.n})"
            )
        self.topology = topology
        indicator = np.zeros(topology.n)
        indicator[origin] = 1.0
        self._engine = GossipEngine(Scenario(
            topology, indicator, aggregates={"informed": MaxAggregate()},
            seed=seed,
        ))

    @property
    def cycle(self) -> int:
        """Cycles run so far."""
        return self._engine.cycle

    @property
    def informed_count(self) -> int:
        """Number of informed nodes."""
        return int(np.count_nonzero(self._engine.column()))

    @property
    def informed_mask(self) -> np.ndarray:
        """Boolean mask of informed nodes (copy)."""
        return self._engine.column() > 0.0

    def is_complete(self) -> bool:
        """Whether every node is informed."""
        return bool(self._engine.column().all())

    def run_cycle(self) -> int:
        """One push-pull cycle; returns the number of newly informed."""
        before = self.informed_count
        self._engine.run_cycle()
        return self.informed_count - before

    def run_until_complete(self, *, max_cycles: int = 10_000) -> List[int]:
        """Run to full coverage; returns the informed-count trajectory
        (index 0 = before any cycle). Raises if max_cycles is exceeded
        (e.g. on a disconnected topology, or one with an isolated
        node)."""
        trajectory = [self.informed_count]
        while not self.is_complete():
            if self.cycle >= max_cycles:
                raise ConfigurationError(
                    f"broadcast incomplete after {max_cycles} cycles "
                    "(disconnected topology?)"
                )
            self.run_cycle()
            trajectory.append(self.informed_count)
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
