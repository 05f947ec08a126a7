"""Property: whatever the step list, window and tail, the greedy plan
is an order-preserving rearrangement of its input, applying it equals
one scalar step per exchange, and it is the frozen oracle's plan,
segment for segment."""

from collections import defaultdict
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import MeanAggregate
from repro.kernel.backends import (
    SEGMENT_BATCH,
    GreedyScratch,
    apply_disjoint_batch,
    apply_sequential,
    base,
    iter_greedy_segments,
)

from ..kernel import greedy_oracle
from ..kernel.one_sided_oracle import MIXED_FUNCTIONS

#: the step lists every planner property runs over
PLANNER_CASES = dict(
    nodes=st.integers(2, 400),
    steps=st.integers(0, 5000),
    hub_share=st.sampled_from([0.0, 0.3, 1.0]),
    window=st.sampled_from([1, 7, 64, 4096]),
    tail=st.sampled_from([0, 3, 48]),
    dtype=st.sampled_from([np.int32, np.int64]),
    seed=st.integers(0, 2**31),
)


def random_steps(nodes, steps, hub_share, dtype, rng):
    """``steps`` exchanges over ``nodes`` nodes; ``hub_share`` of them
    are initiated by node 0 (at 1.0 a scan never finds more than one
    step ready)."""
    fi = rng.integers(0, nodes, steps)
    fi[rng.random(steps) < hub_share] = 0
    fj = (fi + rng.integers(1, nodes, steps)) % nodes
    return fi.astype(dtype), fj.astype(dtype)


def steps_by_node(steps_i, steps_j):
    """Per node, the steps that touch it, in list order."""
    touching = defaultdict(list)
    for step in zip(steps_i, steps_j):
        for node in step:
            touching[node].append(step)
    return touching


def scalar_steps(matrix, functions, steps_i, steps_j):
    for i, j in zip(steps_i, steps_j):
        for c, function in enumerate(functions):
            combined = function.combine(matrix[i, c], matrix[j, c])
            matrix[i, c] = combined
            matrix[j, c] = combined


@settings(max_examples=60, deadline=None)
@given(**PLANNER_CASES, mixed_columns=st.booleans())
def test_plan_preserves_order_and_equals_scalar(
    nodes, steps, hub_share, window, tail, dtype, seed, mixed_columns
):
    rng = np.random.default_rng(seed)
    fi, fj = random_steps(nodes, steps, hub_share, dtype, rng)
    functions = MIXED_FUNCTIONS if mixed_columns else (MeanAggregate(),)
    actual = rng.normal(10.0, 4.0, (nodes, len(functions)))
    expected = actual.copy()

    scanned = []
    scan = base.first_occurrence_ready

    def counting(chunk_i, *rest):
        scanned.append(len(chunk_i))
        return scan(chunk_i, *rest)

    planned_i, planned_j = [], []
    with mock.patch.object(base, "first_occurrence_ready", counting):
        for kind, chunk_i, chunk_j in iter_greedy_segments(
            fi, fj, GreedyScratch(), nodes, window, tail
        ):
            assert len(chunk_i) == len(chunk_j) > 0
            if kind == SEGMENT_BATCH:
                touched = np.concatenate((chunk_i, chunk_j))
                assert len(np.unique(touched)) == len(touched)
                apply_disjoint_batch(actual, functions, chunk_i, chunk_j)
            else:
                apply_sequential(actual, functions, chunk_i, chunk_j)
            planned_i += chunk_i.tolist()
            planned_j += chunk_j.tolist()

    assert max(scanned, default=0) <= window
    assert len(planned_i) == steps
    assert steps_by_node(planned_i, planned_j) == steps_by_node(
        fi.tolist(), fj.tolist()
    )
    scalar_steps(expected, functions, fi.tolist(), fj.tolist())
    assert np.array_equal(actual, expected)


@settings(max_examples=60, deadline=None)
@given(**PLANNER_CASES, carry_positions=st.booleans())
def test_plan_is_the_oracles_and_owns_no_scratch(
    nodes, steps, hub_share, window, tail, dtype, seed, carry_positions
):
    fi, fj = random_steps(
        nodes, steps, hub_share, dtype, np.random.default_rng(seed)
    )
    expected = list(greedy_oracle.iter_greedy_segments(
        fi, fj, greedy_oracle.OracleGreedyScratch(), nodes, window, tail
    ))
    # the list positions ride along as the one-sided writes carry them,
    # and must not move a single cut
    carried = (np.arange(steps),) if carry_positions else ()
    scratch = GreedyScratch()
    kept, positions = [], []
    for kind, chunk_i, chunk_j, *rest in iter_greedy_segments(
        fi, fj, scratch, nodes, window, tail, *carried
    ):
        assert len(rest) == len(carried)
        for chunk in (chunk_i, chunk_j, *rest):
            assert chunk.dtype == np.intp
            for buffer in (scratch.position, scratch.flat, scratch.slots,
                           scratch.gathered, scratch.first, scratch.ready):
                assert not np.shares_memory(chunk, buffer)
        if rest:
            at, = rest
            assert np.array_equal(fi[at], chunk_i)
            assert np.array_equal(fj[at], chunk_j)
            positions.append(at)
        # a consumer that holds on to every segment, as the sharded
        # bank copy and the journal do
        kept.append((kind, chunk_i, chunk_j))
    if carry_positions:
        assert np.array_equal(
            np.sort(np.concatenate([np.arange(0), *positions])),
            np.arange(steps),
        )
    assert len(kept) == len(expected)
    for (kind, chunk_i, chunk_j), (want, want_i, want_j) in zip(
        kept, expected
    ):
        assert kind == want
        assert np.array_equal(chunk_i, want_i)
        assert np.array_equal(chunk_j, want_j)
