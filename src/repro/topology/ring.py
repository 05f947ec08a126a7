"""Ring lattices: each node connected to its ``k`` nearest neighbors.

A deliberately badly-mixing topology for the "more realistic
topologies" ablation (experiment A1): averaging on a ring converges far
slower than the paper's random overlays because information moves a
constant distance per cycle.
"""

from __future__ import annotations

from ..errors import TopologyError
from ..fields import check_count
from .base import AdjacencyTopology


class RingTopology(AdjacencyTopology):
    """Ring lattice on ``n`` nodes, each linked to ``k`` nearest neighbors.

    ``k`` must be even (k/2 on each side) and satisfy ``2 <= k < n``.
    ``k=2`` is the plain cycle.
    """

    def __init__(self, n: int, k: int = 2):
        n = check_count(n, "RingTopology.n")
        k = check_count(k, "RingTopology.k")
        if k < 2 or k % 2 != 0:
            raise TopologyError(f"k must be a positive even integer, got {k}")
        if k >= n:
            raise TopologyError(f"k={k} must be smaller than n={n}")
        half = k // 2
        adjacency = [
            [(i + offset) % n for offset in range(-half, half + 1) if offset != 0]
            for i in range(n)
        ]
        super().__init__(adjacency, validate=False)
        self._k = k

    @property
    def k(self) -> int:
        """Number of lattice neighbors per node."""
        return self._k
