"""Crash-stop failure plans.

A :class:`CrashPlan` maps cycle numbers to sets of node ids that crash
*before* that cycle executes — the standard fail-stop model the paper's
robustness discussion assumes (crashed nodes silently stop; their
contribution to the average is lost).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..fields import check_count, check_node_id, check_real
from ..rng import SeedLike, make_rng


@dataclass
class CrashPlan:
    """Cycle → list of node ids crashing at the start of that cycle."""

    crashes: Dict[int, List[int]] = field(default_factory=dict)

    def add(self, cycle: int, node_ids: Sequence[int]) -> None:
        """Schedule ``node_ids`` to crash before ``cycle`` runs."""
        cycle = check_count(cycle, "crash cycle", low=0)
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
    check_real(fraction, "fraction", low=0, high=1)
    rng = make_rng(seed)
    count = int(round(n * fraction))
    victims = rng.choice(n, size=count, replace=False).tolist() if count else []
    plan = CrashPlan()
    if victims:
        plan.add(at_cycle, victims)
    return plan
