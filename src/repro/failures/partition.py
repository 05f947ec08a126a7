"""Network partition fault model.

Splits an overlay into disjoint groups for a window of cycles: during
the partition, exchanges crossing the cut fail (as if the WAN link were
down); after healing, gossip resumes globally. Used to demonstrate the
protocol's behavior under the classic split-brain scenario: each side
converges to *its own* average, then the network re-converges globally
after the heal.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, make_rng


class PartitionSchedule:
    """Assigns nodes to partition groups during [start, end) cycles.

    ``groups`` is a list of disjoint node-id lists covering 0..n-1.
    ``blocks(cycle, i, j)`` is the predicate the engine consults per
    exchange.
    """

    def __init__(
        self,
        n: int,
        groups: Sequence[Sequence[int]],
        *,
        start: int,
        end: int,
    ):
        if start < 0 or end < start:
            raise ConfigurationError(
                f"need 0 <= start <= end, got start={start}, end={end}"
            )
        seen: set = set()
        for group in groups:
            for node in group:
                if not 0 <= node < n:
                    raise ConfigurationError(f"node id {node} out of range")
                if node in seen:
                    raise ConfigurationError(f"node {node} in two groups")
                seen.add(node)
        if seen != set(range(n)):
            raise ConfigurationError("groups must cover every node exactly once")
        self._assignment = np.empty(n, dtype=np.int64)
        for index, group in enumerate(groups):
            for node in group:
                self._assignment[node] = index
        self._start = start
        self._end = end

    @classmethod
    def random_split(
        cls, n: int, parts: int, *, start: int, end: int,
        seed: SeedLike = None,
    ) -> "PartitionSchedule":
        """A uniformly random split into ``parts`` near-equal groups."""
        if parts < 2:
            raise ConfigurationError(f"need at least 2 parts, got {parts}")
        if parts > n:
            raise ConfigurationError(f"cannot split {n} nodes into {parts} parts")
        permutation = make_rng(seed).permutation(n)
        groups: List[List[int]] = [[] for _ in range(parts)]
        for position, node in enumerate(permutation.tolist()):
            groups[position % parts].append(node)
        return cls(n, groups, start=start, end=end)

    def group_of(self, node: int) -> int:
        """The group index of ``node``."""
        return int(self._assignment[node])

    def active_at(self, cycle: int) -> bool:
        """Whether the partition is in effect at ``cycle``."""
        return self._start <= cycle < self._end

    def blocks(self, cycle: int, i: int, j: int) -> bool:
        """Whether an exchange between i and j fails at ``cycle``."""
        if not self.active_at(cycle):
            return False
        return self._assignment[i] != self._assignment[j]

    def blocks_array(
        self, cycle: int, i: np.ndarray, j: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`blocks` over aligned endpoint arrays."""
        if not self.active_at(cycle):
            return np.zeros(len(i), dtype=bool)
        return self._assignment[i] != self._assignment[j]

    def groups(self) -> List[List[int]]:
        """The node-id lists per group."""
        count = int(self._assignment.max()) + 1
        return [
            np.nonzero(self._assignment == g)[0].tolist() for g in range(count)
        ]
