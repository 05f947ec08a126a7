"""The sequential semantic oracle."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...core.aggregates import AggregateFunction, MeanAggregate
from .base import ExecutionBackend


class ReferenceBackend(ExecutionBackend):
    """Sequential exchange-order execution — the semantic oracle: a
    plain Python loop in exchange order. Kept honest and simple.

    Newscast view exchanges use the base-class
    :meth:`~.base.ExecutionBackend.apply_view_exchanges` unchanged —
    the one-merge-at-a-time step-order loop *is* the reference
    semantics the batched backends are checked against."""

    name = "reference"

    def apply_exchanges(
        self,
        matrix: np.ndarray,
        functions: Sequence[AggregateFunction],
        exch_i: np.ndarray,
        exch_j: np.ndarray,
    ) -> None:
        if len(exch_i) == 0:
            return
        pairs = zip(exch_i.tolist(), exch_j.tolist())
        k = matrix.shape[1]
        if k == 1:
            values = matrix[:, 0].tolist()
            function = functions[0]
            if isinstance(function, MeanAggregate):
                # tight AGGREGATE_AVG path: list indexing beats numpy
                # scalar indexing by ~5x in the sequential loop
                for i, j in pairs:
                    midpoint = (values[i] + values[j]) * 0.5
                    values[i] = midpoint
                    values[j] = midpoint
            else:
                combine = function.combine
                for i, j in pairs:
                    combined = combine(values[i], values[j])
                    values[i] = combined
                    values[j] = combined
            matrix[:, 0] = values
            return
        columns = [matrix[:, c].tolist() for c in range(k)]
        combines = [function.combine for function in functions]
        for i, j in pairs:
            for column, combine in zip(columns, combines):
                combined = combine(column[i], column[j])
                column[i] = combined
                column[j] = combined
        for c, column in enumerate(columns):
            matrix[:, c] = column
