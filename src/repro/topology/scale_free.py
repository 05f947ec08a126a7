"""Barabási–Albert preferential-attachment graphs.

Scale-free overlays have hubs; the paper's "no performance peaks"
property (§5) relies on the degree distribution being flat, so BA graphs
make an instructive counterpoint in the topology ablation.
"""

from __future__ import annotations

from ..errors import TopologyError
from ..fields import check_count
from ..rng import SeedLike, make_rng
from .base import AdjacencyTopology


class BarabasiAlbertTopology(AdjacencyTopology):
    """Barabási–Albert graph: nodes arrive one by one and attach ``m``
    edges preferentially to high-degree targets.

    Starts from a star on ``m + 1`` nodes so early degrees are non-zero.
    Preferential attachment is implemented with the standard
    repeated-endpoint list trick, giving O(total edges) construction.
    """

    def __init__(self, n: int, m: int, *, seed: SeedLike = None):
        n = check_count(n, "BarabasiAlbertTopology.n")
        m = check_count(m, "BarabasiAlbertTopology.m")
        if m < 1:
            raise TopologyError(f"m must be positive, got {m}")
        if n <= m:
            raise TopologyError(f"need n > m, got n={n}, m={m}")
        rng = make_rng(seed)
        neighbor_sets = [set() for _ in range(n)]
        endpoint_pool: list = []

        def add(i, j):
            neighbor_sets[i].add(j)
            neighbor_sets[j].add(i)
            endpoint_pool.append(i)
            endpoint_pool.append(j)

        for leaf in range(1, m + 1):  # seed star
            add(0, leaf)
        for new in range(m + 1, n):
            targets = set()
            while len(targets) < m:
                pick = endpoint_pool[int(rng.integers(0, len(endpoint_pool)))]
                if pick != new:
                    targets.add(pick)
            for t in targets:
                add(new, t)
        super().__init__([sorted(s) for s in neighbor_sets], validate=False)
        self._m = m

    @property
    def m(self) -> int:
        """Edges attached per arriving node."""
        return self._m
