"""Topology abstractions.

A :class:`Topology` is an undirected graph over node ids ``0 .. n-1``. It
is the object the pair selectors (``repro.kernel.pairs``) and the
protocol layer (``repro.core``) consult to find communication partners.

Two families exist:

* :class:`CompleteTopology` — neighbors are computed on the fly, nothing
  is stored (the paper's "fully connected" case scales to N = 100 000).
* :class:`AdjacencyTopology` — an explicit adjacency structure, the base
  of every sparse graph in this package. Stored as CSR (compressed
  sparse row): one flat int32 neighbor array plus int64 offsets and
  degrees, built once at construction. Every bulk query — the
  vectorized partner draw, the edge array, the regular-graph neighbor
  matrix — is a view or a single gather into those arrays, so sparse
  overlays run the paper-scale figures as fast as the complete graph.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TopologyError
from ..fields import check_count
from ..rng import choice_excluding


class Topology(ABC):
    """An undirected overlay graph over node ids ``0 .. n-1``."""

    def __init__(self, n: int):
        n = check_count(n, f"{type(self).__name__}.n")
        if n < 1:
            raise TopologyError(f"topology needs at least one node, got n={n}")
        self._n = n

    @property
    def n(self) -> int:
        """Number of nodes in the overlay."""
        return self._n

    @abstractmethod
    def neighbors(self, node: int) -> Sequence[int]:
        """The neighbor ids of ``node`` (no self-loops, no duplicates)."""

    @abstractmethod
    def degree(self, node: int) -> int:
        """Number of neighbors of ``node``."""

    @abstractmethod
    def random_neighbor(self, node: int, rng: np.random.Generator) -> int:
        """A uniformly random neighbor of ``node``."""

    @abstractmethod
    def random_edge(self, rng: np.random.Generator) -> Tuple[int, int]:
        """A uniformly random edge, as an (i, j) pair with ``i != j``."""

    @abstractmethod
    def edge_count(self) -> int:
        """Number of undirected edges."""

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate all undirected edges as ``(i, j)`` with ``i < j``."""
        for i in range(self.n):
            for j in self.neighbors(i):
                if i < j:
                    yield (i, j)

    def has_edge(self, i: int, j: int) -> bool:
        """Whether ``i`` and ``j`` are neighbors.

        Generic fallback: a linear scan of ``neighbors(i)`` with no
        per-call allocation. Subclasses with stored adjacency override
        this with an O(1) set lookup (:class:`AdjacencyTopology`) or a
        closed form (:class:`~repro.topology.complete.CompleteTopology`).
        """
        self._check_node(i)
        self._check_node(j)
        return j in self.neighbors(i)

    def random_neighbor_array(
        self,
        nodes: np.ndarray,
        rng: np.random.Generator,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`random_neighbor` for an array of node ids.

        The default implementation loops; stored and complete topologies
        override it with a single vectorized draw. Used by the gossip
        kernel for paper-scale runs. ``out``, when given, must be a
        ``len(nodes)``-shaped integer buffer the draw is written into
        (the engine's :class:`~repro.kernel.engine.CyclePlan` passes a
        reusable per-cycle buffer).
        """
        result = np.fromiter(
            (self.random_neighbor(int(v), rng) for v in nodes),
            dtype=np.int64,
            count=len(nodes),
        )
        if out is None:
            return result
        out[:] = result
        return out

    def isolated_mask(self) -> Optional[np.ndarray]:
        """Boolean mask of zero-degree nodes, or ``None`` when the
        topology cannot contain any (the generic/complete case).

        The gossip kernel consults this once at engine construction:
        isolated nodes stay *alive* — their value still counts toward
        the true aggregate — but are skipped as initiators, since they
        have no neighbor to draw (the vectorized CSR draw would
        otherwise raise from deep inside the batch).
        """
        return None

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n:
            raise TopologyError(f"node id {node} outside range [0, {self.n})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n})"


class AdjacencyTopology(Topology):
    """A topology backed by an explicit adjacency structure in CSR form.

    ``adjacency`` maps each node id to a sequence of neighbor ids. The
    constructor normalizes it (sorted, deduplicated) into a flat int32
    neighbor array plus int64 offsets/degrees, validating symmetry and
    the absence of self-loops so that generator bugs surface immediately
    instead of skewing results. The CSR arrays are immutable after
    construction; every bulk accessor returns a view into them.
    """

    def __init__(self, adjacency: Sequence[Sequence[int]], *, validate: bool = True):
        super().__init__(len(adjacency))
        rows = [
            np.asarray(sorted(set(int(x) for x in row)), dtype=np.int64)
            for row in adjacency
        ]
        degrees = np.fromiter(
            (len(row) for row in rows), dtype=np.int64, count=self.n
        )
        flat = (
            np.concatenate(rows)
            if degrees.sum() > 0
            else np.empty(0, dtype=np.int64)
        )
        self._init_csr(flat, degrees, validate=validate)

    def _init_csr(
        self, flat: np.ndarray, degrees: np.ndarray, *, validate: bool
    ) -> None:
        """Finish construction from a flat int64 neighbor array (rows
        concatenated in node order, each row sorted and deduplicated)
        and the per-node degree array. Subclasses with vectorized edge
        generators (:class:`~repro.topology.erdos_renyi
        .ErdosRenyiTopology`) call this directly after
        ``Topology.__init__`` and skip the per-row Python pass."""
        offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        if validate:
            self._validate_csr(flat, degrees)
        self._degrees = degrees
        self._offsets = offsets
        self._flat = flat.astype(np.int32)
        # CSR is immutable; neighbors()/neighbor_matrix() hand out
        # views, so freeze the backing array
        self._flat.flags.writeable = False
        self._edge_array = self._build_edge_array(flat, degrees)
        # built lazily on the first has_edge / neighbor_matrix call;
        # adjacency is immutable so the caches never invalidate
        self._neighbor_sets: Optional[List[set]] = None
        self._neighbor_matrix: Optional[np.ndarray] = None

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[Tuple[int, int]], *, validate: bool = True
    ) -> "AdjacencyTopology":
        """Build a topology from an iterable of undirected edges."""
        adjacency: List[set] = [set() for _ in range(n)]
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise TopologyError(f"edge ({i}, {j}) outside node range [0, {n})")
            if i == j:
                raise TopologyError(f"self-loop on node {i}")
            adjacency[i].add(j)
            adjacency[j].add(i)
        return cls([sorted(s) for s in adjacency], validate=validate)

    def _validate_csr(self, flat: np.ndarray, degrees: np.ndarray) -> None:
        """Vectorized symmetry / self-loop / range validation: O(E log E)
        in numpy instead of the former per-entry Python loop."""
        if len(flat) == 0:
            return
        n = self.n
        src = np.repeat(np.arange(n, dtype=np.int64), degrees)
        bad = (flat < 0) | (flat >= n)
        if bad.any():
            where = int(np.argmax(bad))
            raise TopologyError(
                f"node {int(src[where])} lists out-of-range neighbor "
                f"{int(flat[where])}"
            )
        loops = src == flat
        if loops.any():
            raise TopologyError(
                f"self-loop on node {int(src[int(np.argmax(loops))])}"
            )
        # i -> j exists without j -> i iff the directed edge key i*n+j
        # has no counterpart among the reversed keys
        missing = np.setdiff1d(src * n + flat, flat * n + src)
        if len(missing):
            i, j = divmod(int(missing[0]), n)
            raise TopologyError(
                f"asymmetric adjacency: {i} lists {j} but not vice versa"
            )

    def _build_edge_array(
        self, flat: np.ndarray, degrees: np.ndarray
    ) -> np.ndarray:
        src = np.repeat(np.arange(self.n, dtype=np.int64), degrees)
        keep = src < flat
        return np.column_stack((src[keep], flat[keep]))

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbor ids of ``node`` — a read-only view into the
        CSR neighbor array (no per-call allocation)."""
        self._check_node(node)
        return self._flat[self._offsets[node]:self._offsets[node + 1]]

    def has_edge(self, i: int, j: int) -> bool:
        """O(1) membership test against cached adjacency sets (the
        base-class fallback would scan O(deg) per call)."""
        self._check_node(i)
        self._check_node(j)
        if self._neighbor_sets is None:
            self._neighbor_sets = [
                set(self.neighbors(node).tolist()) for node in range(self.n)
            ]
        return j in self._neighbor_sets[i]

    def degree(self, node: int) -> int:
        self._check_node(node)
        return int(self._degrees[node])

    def isolated_mask(self) -> Optional[np.ndarray]:
        """Zero-degree nodes of the CSR structure (see the base-class
        contract); ``None`` when every node has a neighbor."""
        if int(self._degrees.min(initial=1)) > 0:
            return None
        return self._degrees == 0

    def random_neighbor(self, node: int, rng: np.random.Generator) -> int:
        row = self.neighbors(node)
        if len(row) == 0:
            raise TopologyError(f"node {node} has no neighbors")
        return int(row[rng.integers(0, len(row))])

    def random_edge(self, rng: np.random.Generator) -> Tuple[int, int]:
        if len(self._edge_array) == 0:
            raise TopologyError("topology has no edges")
        i, j = self._edge_array[rng.integers(0, len(self._edge_array))]
        return int(i), int(j)

    def edge_count(self) -> int:
        return len(self._edge_array)

    def edges(self) -> Iterator[Tuple[int, int]]:
        for i, j in self._edge_array:
            yield int(i), int(j)

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an ``(m, 2)`` int64 array (read-only view)."""
        view = self._edge_array.view()
        view.flags.writeable = False
        return view

    def neighbor_matrix(self) -> np.ndarray:
        """``(n, k)`` neighbor matrix when the graph is regular.

        A cached read-only reshape of the CSR neighbor array — building
        it is free and calling it every cycle costs nothing (it used to
        re-vstack the whole adjacency per call). Raises
        :class:`TopologyError` when degrees differ.
        """
        if self._neighbor_matrix is None:
            k = int(self._degrees[0]) if self.n else 0
            if not np.array_equal(
                self._degrees, np.full(self.n, k, dtype=np.int64)
            ):
                raise TopologyError("neighbor_matrix requires a regular graph")
            self._neighbor_matrix = self._flat.reshape(self.n, k)
        return self._neighbor_matrix

    def random_neighbor_array(
        self,
        nodes: np.ndarray,
        rng: np.random.Generator,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One vectorized CSR draw for *any* degree distribution:
        ``flat[offsets[nodes] + floor(u * degrees[nodes])]``. Consumes
        exactly one batched uniform draw regardless of regularity (the
        former fast path was regular-only and fell back to a per-node
        Python loop on irregular graphs)."""
        nodes = np.asarray(nodes)
        deg = self._degrees[nodes]
        if len(deg) and int(deg.min()) == 0:
            node = int(nodes[int(np.argmin(deg))])
            raise TopologyError(
                f"node {node} has no neighbors to draw from — the "
                f"gossip kernel skips isolated nodes as initiators "
                f"(Topology.isolated_mask); direct callers must filter "
                f"zero-degree nodes themselves"
            )
        picks = (rng.random(len(nodes)) * deg).astype(np.int64)
        # u < 1 strictly, but the product can round up to deg for large
        # degrees; clamp to keep the gather in-row
        np.minimum(picks, deg - 1, out=picks)
        picks += self._offsets[nodes]
        if out is None:
            return self._flat[picks].astype(np.int64)
        np.take(self._flat, picks, out=out)
        return out
