"""Watts–Strogatz small-world graphs.

Interpolates between the ring lattice (rewiring probability 0) and a
random-ish graph (probability 1), probing how much randomness the
averaging protocol needs to recover near-paper convergence rates.
"""

from __future__ import annotations

from ..errors import TopologyError
from ..fields import check_count, check_real
from ..rng import SeedLike, make_rng
from .base import AdjacencyTopology


class WattsStrogatzTopology(AdjacencyTopology):
    """Watts–Strogatz rewiring of a ring lattice.

    Parameters
    ----------
    n, k:
        Ring-lattice parameters (``k`` even, ``k < n``).
    beta:
        Probability that each clockwise lattice edge is rewired to a
        uniformly random non-duplicate endpoint.
    seed:
        Seed or generator.
    """

    def __init__(self, n: int, k: int, beta: float, *, seed: SeedLike = None):
        n = check_count(n, "WattsStrogatzTopology.n")
        k = check_count(k, "WattsStrogatzTopology.k")
        check_real(beta, "WattsStrogatzTopology.beta")
        if k < 2 or k % 2 != 0:
            raise TopologyError(f"k must be a positive even integer, got {k}")
        if k >= n:
            raise TopologyError(f"k={k} must be smaller than n={n}")
        if not 0.0 <= beta <= 1.0:
            raise TopologyError(f"beta must be in [0, 1], got {beta}")
        rng = make_rng(seed)
        half = k // 2
        neighbor_sets = [set() for _ in range(n)]

        def add(i, j):
            neighbor_sets[i].add(j)
            neighbor_sets[j].add(i)

        def remove(i, j):
            neighbor_sets[i].discard(j)
            neighbor_sets[j].discard(i)

        for i in range(n):
            for offset in range(1, half + 1):
                add(i, (i + offset) % n)
        for i in range(n):
            for offset in range(1, half + 1):
                j = (i + offset) % n
                if j not in neighbor_sets[i]:
                    continue  # already rewired away
                if rng.random() >= beta:
                    continue
                candidates = [
                    t for t in range(n) if t != i and t not in neighbor_sets[i]
                ]
                if not candidates:
                    continue
                target = candidates[int(rng.integers(0, len(candidates)))]
                remove(i, j)
                add(i, target)
        super().__init__([sorted(s) for s in neighbor_sets], validate=False)
        self._beta = beta
        self._k = k

    @property
    def beta(self) -> float:
        """The rewiring probability."""
        return self._beta

    @property
    def k(self) -> int:
        """The underlying lattice degree."""
        return self._k
