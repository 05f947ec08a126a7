"""Crash-stop failure plans.

A :class:`CrashPlan` maps cycle numbers to sets of node ids that crash
*before* that cycle executes — the standard fail-stop model the paper's
robustness discussion assumes (crashed nodes silently stop; their
contribution to the average is lost).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, make_rng


def check_integer(value, name: str) -> int:
    """``value`` as an ``int``, or :class:`ConfigurationError` naming
    ``name`` when it is not an ``int`` or ``np.integer`` (bools and
    floats included). The specs' integer counts — cycles, crash cycles,
    epoch lengths, checkpoint periods, view sizes, retry budgets and
    timeouts — go through here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} {value!r} is not an integer")
    return int(value)


def check_node_id(node_id, n: Optional[int] = None) -> int:
    """``node_id`` as an ``int``, or :class:`ConfigurationError` when it
    is not an integer (bools and floats included) or, given ``n``, lies
    outside ``[0, n)``. Every node id a caller hands the library —
    crash victims, broadcast origins, probe nodes, leaders, adversary
    nodes — goes through here."""
    node_id = check_integer(node_id, "node id")
    if n is not None and not 0 <= node_id < n:
        raise ConfigurationError(f"node id {node_id} out of range [0, {n})")
    return node_id


@dataclass
class CrashPlan:
    """Cycle → list of node ids crashing at the start of that cycle."""

    crashes: Dict[int, List[int]] = field(default_factory=dict)

    def add(self, cycle: int, node_ids: Sequence[int]) -> None:
        """Schedule ``node_ids`` to crash before ``cycle`` runs."""
        cycle = check_integer(cycle, "crash cycle")
        if cycle < 0:
            raise ConfigurationError(f"cycle must be non-negative, got {cycle}")
        ids = [check_node_id(node_id) for node_id in node_ids]
        self.crashes.setdefault(cycle, []).extend(ids)

    def crashing_at(self, cycle: int) -> List[int]:
        """Node ids crashing at ``cycle`` (empty list when none)."""
        return self.crashes.get(cycle, [])

    @property
    def total_crashes(self) -> int:
        """Total number of scheduled crashes."""
        return sum(len(ids) for ids in self.crashes.values())


def random_crash_plan(
    n: int,
    fraction: float,
    at_cycle: int,
    *,
    seed: SeedLike = None,
) -> CrashPlan:
    """Crash a random ``fraction`` of the ``n`` nodes at one cycle.

    The classic "kill X% of the network mid-run" robustness experiment.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in [0, 1], got {fraction}")
    rng = make_rng(seed)
    count = int(round(n * fraction))
    victims = rng.choice(n, size=count, replace=False).tolist() if count else []
    plan = CrashPlan()
    if victims:
        plan.add(at_cycle, victims)
    return plan
