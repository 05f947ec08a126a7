"""Star topology — the worst case for the paper's "no performance
bottleneck" claim: every exchange involves the hub."""

from __future__ import annotations

from ..errors import TopologyError
from ..fields import check_count
from .base import AdjacencyTopology


class StarTopology(AdjacencyTopology):
    """Node 0 is the hub; every other node connects only to it."""

    def __init__(self, n: int):
        n = check_count(n, "StarTopology.n")
        if n < 2:
            raise TopologyError("a star needs at least two nodes")
        adjacency = [list(range(1, n))] + [[0] for _ in range(n - 1)]
        super().__init__(adjacency, validate=False)

    @property
    def hub(self) -> int:
        """The id of the hub node."""
        return 0
