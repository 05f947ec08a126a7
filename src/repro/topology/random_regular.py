"""Random k-regular graphs — the paper's "random topology with a fixed
view size of 20".

Generated with the pairing (configuration) model followed by *edge-swap
repair*: ``k`` stubs per node are shuffled and paired, then every
self-loop or parallel edge is removed by a double-edge swap with a
random valid partner pair. Whole-attempt rejection is hopeless for
k = 20 (collision probability ≈ 1), while repair touches only the few
offending pairs and preserves the degree sequence exactly, giving an
asymptotically uniform sample in practice.
"""

from __future__ import annotations

import numpy as np

from ..errors import TopologyError
from ..fields import check_count
from ..rng import SeedLike, make_rng
from .base import AdjacencyTopology
from .analysis import is_connected

#: bound on full redraws (a failed edge-swap repair, or a disconnected
#: draw) before the generator gives up
MAX_ATTEMPTS = 50


def _edge_key(i: int, j: int, n: int) -> int:
    return (i * n + j) if i < j else (j * n + i)


def _pairing_with_repair(n: int, k: int, rng: np.random.Generator):
    """One pairing-model draw with double-edge-swap repair.

    Returns the pair list or None if repair failed to converge (then the
    caller redraws).
    """
    stubs = np.repeat(np.arange(n, dtype=np.int64), k)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2).tolist()
    m = len(pairs)

    edge_count: dict = {}
    for x, y in pairs:
        if x != y:
            key = _edge_key(x, y, n)
            edge_count[key] = edge_count.get(key, 0) + 1

    def is_bad(index: int) -> bool:
        x, y = pairs[index]
        return x == y or edge_count[_edge_key(x, y, n)] > 1

    bad = [index for index in range(m) if is_bad(index)]
    max_swaps = 200 * max(len(bad), 1) + 1000
    swaps = 0
    while bad:
        index = bad.pop()
        if not is_bad(index):
            continue  # fixed as a side effect of an earlier swap
        fixed = False
        while swaps < max_swaps and not fixed:
            swaps += 1
            other = int(rng.integers(0, m))
            if other == index:
                continue
            x, y = pairs[index]
            u, v = pairs[other]
            # two possible double-edge swaps
            for a, b, c, d in ((x, u, y, v), (x, v, y, u)):
                if a == b or c == d:
                    continue
                key_ab = _edge_key(a, b, n)
                key_cd = _edge_key(c, d, n)
                if key_ab == key_cd:
                    continue
                occupied = dict.get  # local alias for speed
                count_ab = occupied(edge_count, key_ab, 0)
                count_cd = occupied(edge_count, key_cd, 0)
                # the current (valid) keys of the two pairs go away
                for old_x, old_y in (pairs[index], pairs[other]):
                    if old_x != old_y:
                        old_key = _edge_key(old_x, old_y, n)
                        if old_key == key_ab:
                            count_ab -= 1
                        if old_key == key_cd:
                            count_cd -= 1
                if count_ab > 0 or count_cd > 0:
                    continue
                # apply the swap
                for old_x, old_y in (pairs[index], pairs[other]):
                    if old_x != old_y:
                        old_key = _edge_key(old_x, old_y, n)
                        edge_count[old_key] -= 1
                        if edge_count[old_key] == 0:
                            del edge_count[old_key]
                pairs[index] = [a, b]
                pairs[other] = [c, d]
                edge_count[key_ab] = edge_count.get(key_ab, 0) + 1
                edge_count[key_cd] = edge_count.get(key_cd, 0) + 1
                if is_bad(other):
                    bad.append(other)
                fixed = True
                break
        if not fixed:
            return None
    return pairs


class RandomRegularTopology(AdjacencyTopology):
    """Uniform-ish random k-regular graph on ``n`` nodes.

    Parameters
    ----------
    n:
        Number of nodes; ``n * k`` must be even and ``k < n``.
    k:
        View size (degree). The paper uses ``k = 20``.
    seed:
        Seed or generator for reproducibility.

    The graph is redrawn until it is connected, the paper's assumption
    of a *connected* random overlay (for k >= 3 a random regular graph
    is connected w.h.p., so redraws are rare), at most
    :data:`MAX_ATTEMPTS` times.
    """

    def __init__(self, n: int, k: int, *, seed: SeedLike = None):
        n = check_count(n, "RandomRegularTopology.n")
        k = check_count(k, "RandomRegularTopology.k")
        if k < 1:
            raise TopologyError(f"degree must be positive, got k={k}")
        if k >= n:
            raise TopologyError(f"degree k={k} must be smaller than n={n}")
        if (n * k) % 2 != 0:
            raise TopologyError(f"n*k must be even, got n={n}, k={k}")
        rng = make_rng(seed)
        adjacency = self._generate(n, k, rng)
        super().__init__(adjacency, validate=False)
        self._k = k

    @property
    def k(self) -> int:
        """The view size (uniform degree)."""
        return self._k

    @staticmethod
    def _generate(n, k, rng):
        for _ in range(MAX_ATTEMPTS):
            pairs = _pairing_with_repair(n, k, rng)
            if pairs is None:
                continue
            adjacency = [[] for _ in range(n)]
            for i, j in pairs:
                adjacency[i].append(j)
                adjacency[j].append(i)
            if is_connected(AdjacencyTopology(adjacency, validate=False)):
                return adjacency
        raise TopologyError(
            f"failed to generate a random {k}-regular graph on {n} nodes "
            f"after {MAX_ATTEMPTS} attempts"
        )
