"""Erdős–Rényi G(n, p) random graphs.

Not used directly in the paper's figures, but the natural "unbiased
random topology" against which the fixed-view-size graphs can be
compared in the topology ablation (experiment A1) and the sparse-overlay
scale benchmark (``benchmarks/bench_sparse.py``).

Sampling draws the edge *count* from the binomial and then that many
distinct pair ranks, unranked into (i, j) index pairs — everything
vectorized, so a 100 000-node overlay with ~10⁶ edges builds in well
under a second (the former per-rank Python unranking was O(n) per edge
and the distinct-rank draw materialized the full C(n, 2) population).
"""

from __future__ import annotations

import numpy as np

from ..errors import TopologyError
from ..fields import check_real
from ..rng import SeedLike, make_rng
from .base import AdjacencyTopology, Topology


def _sample_distinct_ranks(total: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """``m`` distinct uniform draws from ``[0, total)`` without ever
    materializing the population.

    Small populations take a plain partial shuffle; sparse regimes
    (``m ≪ total``, the G(n, p) norm) collect distinct values from
    over-drawn iid batches — the collected set is exchangeable over the
    population, so a uniform ``m``-subset of it is a uniform
    ``m``-subset of the population.
    """
    if m == 0:
        return np.empty(0, dtype=np.int64)
    if total <= 4 * m or total <= (1 << 20):
        return rng.permutation(total)[:m].astype(np.int64)
    distinct = np.unique(rng.integers(0, total, size=m + (m >> 3) + 16))
    while len(distinct) < m:
        distinct = np.union1d(distinct, rng.integers(0, total, size=m))
    if len(distinct) == m:
        return distinct
    keep = rng.choice(len(distinct), size=m, replace=False)
    return distinct[keep]


class ErdosRenyiTopology(AdjacencyTopology):
    """G(n, p): each of the n·(n−1)/2 possible edges present with prob. p.

    Sampling is O(m log m) for m edges: binomial edge count, distinct
    rank draw, vectorized unranking, and a direct CSR build (no per-row
    Python adjacency lists).
    """

    def __init__(self, n: int, p: float, *, seed: SeedLike = None):
        check_real(p, "ErdosRenyiTopology.p")
        if not 0.0 <= p <= 1.0:
            raise TopologyError(f"edge probability must be in [0, 1], got {p}")
        Topology.__init__(self, n)
        rng = make_rng(seed)
        total_pairs = n * (n - 1) // 2
        m = int(rng.binomial(total_pairs, p)) if total_pairs > 0 else 0
        ranks = _sample_distinct_ranks(total_pairs, m, rng)
        i, j = self._unrank_array(ranks, n)
        # duplicate each undirected edge into both directions and sort
        # by (source, destination): that IS the CSR flat array
        src = np.concatenate((i, j))
        dst = np.concatenate((j, i))
        order = np.lexsort((dst, src))
        flat = dst[order]
        degrees = np.bincount(src, minlength=n).astype(np.int64)
        self._init_csr(flat, degrees, validate=False)
        self._p = p

    @property
    def p(self) -> float:
        """The edge probability."""
        return self._p

    @staticmethod
    def _unrank_array(ranks: np.ndarray, n: int):
        """Vectorized :meth:`_unrank`: searchsorted over the row offsets
        of the strictly upper triangle (row i holds ``n - 1 - i``
        pairs)."""
        rows = np.arange(n, dtype=np.int64)
        row_offsets = rows * (n - 1) - rows * (rows - 1) // 2
        i = np.searchsorted(row_offsets, ranks, side="right") - 1
        j = ranks - row_offsets[i] + i + 1
        return i, j

    @staticmethod
    def _unrank(rank: int, n: int):
        """Map ``rank`` in [0, C(n,2)) to the pair (i, j), i < j, in the
        row-major order of the strictly upper triangle."""
        i, j = ErdosRenyiTopology._unrank_array(
            np.asarray([rank], dtype=np.int64), n
        )
        return int(i[0]), int(j[0])
