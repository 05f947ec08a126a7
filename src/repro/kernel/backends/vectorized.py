"""The single-process numpy scale path."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ...core.aggregates import AggregateFunction
from ...errors import SimulationError
from .base import (
    GREEDY_TAIL,
    PAIR_CHUNK,
    SEGMENT_SEQUENTIAL,
    VIEW_TAIL,
    ExecutionBackend,
    GreedyScratch,
    apply_disjoint_batch,
    apply_sequential,
    iter_greedy_segments,
    merge_views_batch,
    merge_views_sequential,
)


class VectorizedBackend(ExecutionBackend):
    """Batched structure-of-arrays execution — the scale path.

    Processes exchanges in conflict-free batches via numpy
    gather/scatter. Batches are selected by first-occurrence of each
    endpoint among the pending exchanges, which preserves per-node
    exchange order; exchanges that share no node commute exactly, so
    the result is **bitwise identical** to the sequential reference
    execution (the cross-backend equivalence suite asserts this).
    """

    name = "vectorized"

    def __init__(self):
        self._scratch = GreedyScratch()

    def apply_exchanges(
        self,
        matrix: np.ndarray,
        functions: Sequence[AggregateFunction],
        exch_i: np.ndarray,
        exch_j: np.ndarray,
    ) -> None:
        self.apply_pairs(matrix, functions, exch_i, exch_j)

    # -- pair mode --------------------------------------------------------

    def apply_pairs(
        self,
        matrix: np.ndarray,
        functions: Sequence[AggregateFunction],
        pairs_i: np.ndarray,
        pairs_j: np.ndarray,
        *,
        plan: Optional[Tuple[Tuple[int, int, bool], ...]] = None,
    ) -> None:
        """Pair-mode fast path.

        Conflict-free segments of the plan (PM's matching halves) are
        applied as single scatter batches with no segmentation scan;
        everything else goes through :meth:`_apply_greedy`, the
        order-preserving greedy segmentation. Bitwise-identical to the
        sequential reference execution either way.
        """
        if matrix.dtype != np.float64 or not matrix.flags.c_contiguous:
            # the batch kernel writes through a view whose item is a row
            raise SimulationError(
                "the vectorized backend applies to a C-contiguous float64 "
                "matrix (adopt_matrix / grow_matrix / allocate_matrix "
                "return one); hand the matrix over first"
            )
        pi = np.asarray(pairs_i)
        pj = np.asarray(pairs_j)
        if plan is None:
            plan = ((0, len(pi), False),)
        for start, end, conflict_free in plan:
            if conflict_free:
                apply_disjoint_batch(
                    matrix, functions, pi[start:end], pj[start:end]
                )
            else:
                self._apply_greedy(
                    matrix, functions, pi[start:end], pj[start:end]
                )

    def apply_view_exchanges(
        self,
        views: np.ndarray,
        exch_i: np.ndarray,
        exch_j: np.ndarray,
    ) -> None:
        """Newscast view merges through the same greedy segmentation
        as value exchanges — node-disjoint batches via
        :func:`~.base.merge_views_batch`, conflicted steps via
        :func:`~.base.merge_views_sequential` — which is what keeps the
        view matrix bitwise-identical to the sequential reference
        execution. The plan's scalar threshold is
        :data:`~.base.VIEW_TAIL`, not the value path's
        :data:`~.base.GREEDY_TAIL`: a scalar merge costs fifty scalar
        value steps, so a drained tail of more than a handful of
        exchanges is worth another scan and another batch."""
        for kind, chunk_i, chunk_j in iter_greedy_segments(
            np.asarray(exch_i), np.asarray(exch_j), self._scratch,
            views.shape[0], PAIR_CHUNK, VIEW_TAIL,
        ):
            if kind == SEGMENT_SEQUENTIAL:
                merge_views_sequential(views, chunk_i, chunk_j)
            else:
                merge_views_batch(views, chunk_i, chunk_j)

    def _apply_greedy(self, matrix, functions, pending_i, pending_j) -> None:
        """Greedy segmentation over an arbitrary exchange/pair
        sequence.

        The segmentation itself lives in
        :func:`~.base.iter_greedy_segments` — a pure plan the sharded
        backend's parent also consumes (writing segments out instead
        of applying them). Here each segment is applied the moment it
        is planned, which keeps the scans cache-resident: one
        first-occurrence scan and one fat batch per
        :data:`~.base.PAIR_CHUNK` steps of input, the steps that were
        not ready carried into the next scan, and the last few
        conflicted steps (:data:`GREEDY_TAIL`) run sequentially —
        batch sizes decay geometrically, so the tail would otherwise
        burn one full scan per handful of steps.
        """
        for kind, chunk_i, chunk_j in iter_greedy_segments(
            pending_i, pending_j, self._scratch, matrix.shape[0],
            PAIR_CHUNK, GREEDY_TAIL,
        ):
            if kind == SEGMENT_SEQUENTIAL:
                apply_sequential(matrix, functions, chunk_i, chunk_j)
            else:
                apply_disjoint_batch(matrix, functions, chunk_i, chunk_j)
