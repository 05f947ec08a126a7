"""The plain scalar oracle of the one-sided exchange, kept out of
``src/`` on purpose: one Python step per exchange, per column, in list
order — the semantics :func:`repro.kernel.backends.apply_one_sided`
must reproduce bitwise however it segments the list."""

from unittest import mock

import numpy as np

from repro.core import MaxAggregate, MeanAggregate, MinAggregate
from repro.kernel.backends import (
    GREEDY_TAIL,
    PAIR_CHUNK,
    SEGMENT_BATCH,
    SEGMENT_SEQUENTIAL,
    GreedyScratch,
    apply_one_sided,
    base,
    iter_greedy_segments,
)

#: the five-column mix the one-sided tests run besides k = 1
MIXED_FUNCTIONS = (
    MeanAggregate(), MeanAggregate(), MaxAggregate(), MinAggregate(),
    MeanAggregate(),
)


def scalar_one_sided(matrix, functions, steps_i, steps_j,
                     adopt_i=None, payload=None):
    """Apply the steps to ``matrix`` in place. Returns ``(moved,
    combined, sent)``, all ``(m, k)``: per step the mass a non-adopting
    step moved (zero where the initiator adopted), the combined row and
    the row it answered."""
    m, k = len(steps_i), matrix.shape[1]
    moved = np.zeros((m, k))
    combined = np.empty((m, k))
    sent = np.empty((m, k))
    for t in range(m):
        i, j = int(steps_i[t]), int(steps_j[t])
        take = adopt_i is not None and bool(adopt_i[t])
        for c, function in enumerate(functions):
            asked = matrix[i, c] if payload is None else payload[t, c]
            old = matrix[j, c]
            value = function.combine(asked, old)
            matrix[j, c] = value
            if take:
                matrix[i, c] = value
            else:
                moved[t, c] = value - old
            combined[t, c] = value
            sent[t, c] = asked
    return moved, combined, sent


def check_against_oracle(functions, nodes, steps_i, steps_j,
                         adopt_i=None, payload=None, collect=True, seed=11):
    """Run ``apply_one_sided`` and the oracle on copies of one random
    ``(nodes, k)`` matrix: matrix and collected rows must agree
    bitwise, the delta to 1e-12 of the mass moved (it is summed per
    segment, the oracle's per step). The segments handed to the two
    appliers must be the two-sided plan's, kind for kind and step for
    step: one plan for every ordered write."""
    actual = np.random.default_rng(seed).normal(
        10.0, 4.0, (nodes, len(functions))
    )
    expected = actual.copy()
    applied = []

    def recording(kind, applier):
        def record(matrix, functions, chunk_i, chunk_j, *rest):
            applied.append((kind, chunk_i.copy(), chunk_j.copy()))
            return applier(matrix, functions, chunk_i, chunk_j, *rest)
        return record

    with mock.patch.multiple(
        base,
        apply_one_sided_batch=recording(
            SEGMENT_BATCH, base.apply_one_sided_batch
        ),
        apply_one_sided_sequential=recording(
            SEGMENT_SEQUENTIAL, base.apply_one_sided_sequential
        ),
    ):
        delta, combined, sent = apply_one_sided(
            actual, functions, steps_i, steps_j, GreedyScratch(),
            adopt_i=adopt_i, payload=payload, collect=collect,
        )
    planned = list(iter_greedy_segments(
        steps_i, steps_j, GreedyScratch(), nodes, PAIR_CHUNK, GREEDY_TAIL
    ))
    assert len(applied) == len(planned)
    for (kind, chunk_i, chunk_j), (want, want_i, want_j) in zip(
        applied, planned
    ):
        assert kind == want
        assert np.array_equal(chunk_i, want_i)
        assert np.array_equal(chunk_j, want_j)
    moved, expected_combined, expected_sent = scalar_one_sided(
        expected, functions, steps_i, steps_j, adopt_i, payload
    )
    assert np.array_equal(actual, expected)
    if collect:
        assert np.array_equal(combined, expected_combined)
        assert np.array_equal(sent, expected_sent)
    else:
        assert combined is None and sent is None
    gross = np.abs(moved).sum(axis=0)
    assert np.all(np.abs(delta - moved.sum(axis=0)) <= 1e-12 * gross)
