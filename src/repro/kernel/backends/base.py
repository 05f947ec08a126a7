"""Backend contract and the shared batched-execution primitives.

A backend's job is small and precisely bounded: given the kernel's
``(n, k)`` value matrix (one column per aggregation instance) and one
cycle's worth of *successful* exchanges — endpoint index arrays, in
step order — apply every exchange's AGGREGATE to both endpoints.
Everything stochastic (neighbor draws, loss coins, crash schedules,
pair-mode GETPAIR sequences) already happened in the engine, so
backends are deterministic functions of their inputs and can be
swapped freely.

Beyond the abstract contract this module hosts the primitives every
batched backend builds on:

* :func:`first_occurrence_ready` — the O(m) conflict scan: which of the
  pending steps touch only nodes not seen earlier in the window (and so
  commute bitwise with each other),
* :func:`iter_greedy_segments` — the plan: a pending set of at most one
  window slid over the step stream, one scan and one batch per round,
* :func:`apply_disjoint_batch` — one node-disjoint batch applied as
  whole rows, a cache-sized tile and an aggregate group at a time,
* :func:`apply_sequential` — a short run of (possibly conflicting)
  steps applied in step order through the scalar ``combine`` path,
* :func:`apply_one_sided` — that plan, list positions carried, run for
  the engine's *one-sided* exchanges (message faults: the partner
  adopts the combined value, the initiator only where its reply
  survived) by :func:`apply_one_sided_batch` / ``_sequential``,
* :func:`column_moments` — the one reduction behind every reported
  variance and mean, run by whichever process has the rows mapped.

``combine_array`` and its in-place form ``combine_into`` are
IEEE-identical to the scalar ``combine`` (the
:class:`~repro.core.aggregates.AggregateFunction` contract), so any
mix of the two appliers over an order-preserving segmentation is
**bitwise identical** to the sequential reference execution.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ...core.aggregates import AggregateFunction

#: the bound on the planner's pending set in the vectorized
#: backend — the most steps one first-occurrence scan ever sees, and
#: so the size of its scratch. Within a few thousand steps node
#: collisions are rare (≈ 85 % of a full pending set is ready at once),
#: so the scans stay cache-resident and the batches fat. A constant,
#: not an option: it never changes results, only batch shapes.
PAIR_CHUNK = 4096

#: the most steps :func:`apply_disjoint_batch` gathers, combines and
#: scatters at once, so its blocks stay cache-resident whatever window
#: planned the batch: longer tiles page-fault their temporaries in on
#: every call, shorter ones pay numpy's per-call cost too often.
BATCH_TILE = 4096

#: the planner's scalar threshold. A drained stream's last this-many
#: pending steps run sequentially (batch sizes decay geometrically, so
#: peeling them would pay a full first-occurrence scan per handful of
#: steps), and a scan that finds fewer ready steps than this hands the
#: oldest this-many to the sequential applier instead — a hub. Purely
#: a constant-factor knob — results stay bitwise-identical.
GREEDY_TAIL = 48

#: segment kinds yielded by :func:`iter_greedy_segments` (and used in
#: the sharded backend's published schedules)
SEGMENT_BATCH = 0
SEGMENT_SEQUENTIAL = 1

#: the view path's scalar threshold, where :data:`GREEDY_TAIL` serves
#: the value path. A scalar value step costs 0.2 µs, a scalar view
#: merge 10 µs, and one more round of the planner — a scan and a
#: :func:`merge_views_batch` call on a handful of steps — ≈ 50 µs, so
#: the break-even sits near eight merges, not 48.
VIEW_TAIL = 8

#: the widest row numpy's sort handles at its cheapest: a ``(rows, w)``
#: int32 or int64 block sorts along its rows in half the time at any
#: ``w <= 32`` that it takes at ``33 <= w <= 64``.
#: :func:`merge_views_batch` cuts its candidate block here when the
#: full ``2 * view_size + 2`` columns would cross it.
VIEW_SORT_WIDTH = 32

_NO_STEPS = np.empty(0, dtype=np.intp)


def first_occurrence_ready(
    chunk_i: np.ndarray,
    chunk_j: np.ndarray,
    scratch: "GreedyScratch",
) -> np.ndarray:
    """Which pending steps are first occurrences of *both* endpoints,
    as a boolean mask in step order.

    The test is O(m) with no sorting: a scatter of slot numbers into an
    ``n``-sized ``position`` scratch (last write wins, so the endpoints
    are interleaved back to front — the last write to a node is then
    its *first* occurrence), one gather, one compare, and one ``and``
    of the two endpoints' strided views, read back to front so the mask
    comes out in forward step order. Every result lands in
    ``scratch``'s buffers, which :meth:`GreedyScratch.fit` must have
    sized for ``len(chunk_i)`` steps: the mask is a view of the
    scratch, valid until its next scan. The endpoints may be of any
    integer dtype: writing them into the ``intp`` interleave is the one
    cast the scan needs.
    """
    m = len(chunk_i)
    flat = scratch.flat[:2 * m]
    flat[-1::-2] = chunk_i
    flat[-2::-2] = chunk_j
    slots = scratch.slots[:2 * m]
    position = scratch.position
    position[flat] = slots
    # flat holds rows the scatter above accepted, so "clip" never
    # clips: it only spares take the copy of ``out`` its default mode
    # makes
    first = np.equal(
        position.take(flat, out=scratch.gathered[:2 * m], mode="clip"),
        slots, out=scratch.first[:2 * m],
    )
    return np.logical_and(
        first[-1::-2], first[-2::-2], out=scratch.ready[:m]
    )


class GreedyScratch:
    """The reusable buffers of :func:`first_occurrence_ready`: an int32
    ``position`` array with one entry per matrix row; the ``intp``
    interleave (numpy's native index dtype — a scatter or gather
    through int32 indices runs 2–3x slower), the int32 ``0, 1, 2, …``
    slot numbers, the int32 gather and the boolean compare, each
    ``2 * window`` long; and the ``window``-long ``ready`` mask.
    Nothing is allocated before the first use; every buffer grows on
    demand (:meth:`fit`)."""

    __slots__ = ("position", "flat", "slots", "gathered", "first", "ready")

    def __init__(self):
        self.position: Optional[np.ndarray] = None
        self.flat: Optional[np.ndarray] = None
        self.slots: Optional[np.ndarray] = None
        self.gathered: Optional[np.ndarray] = None
        self.first: Optional[np.ndarray] = None
        self.ready: Optional[np.ndarray] = None

    def fit(self, rows: int, window: int) -> None:
        """Size the buffers for a matrix of ``rows`` rows and scans of
        at most ``window`` steps."""
        if self.flat is None or len(self.flat) < 2 * window:
            self.flat = np.empty(2 * window, dtype=np.intp)
            self.slots = np.arange(2 * window, dtype=np.int32)
            self.gathered = np.empty(2 * window, dtype=np.int32)
            self.first = np.empty(2 * window, dtype=bool)
            self.ready = np.empty(window, dtype=bool)
        if self.position is None or len(self.position) < rows:
            self.position = np.empty(rows, dtype=np.int32)


def iter_greedy_segments(
    pending_i: np.ndarray,
    pending_j: np.ndarray,
    scratch: GreedyScratch,
    rows: int,
    window: int,
    tail: int,
    *carried: np.ndarray,
):
    """The order-preserving greedy segmentation as a pure plan.

    Yields ``(kind, chunk_i, chunk_j)`` in execution order, then one
    chunk per ``carried`` integer array (say, the steps' positions),
    cut exactly as the endpoints are. ``kind`` is :data:`SEGMENT_BATCH`
    (the steps are node-disjoint and may be applied through
    ``combine_array`` in any partition) or :data:`SEGMENT_SEQUENTIAL`
    (conflicted steps that must run one at a time, in order). Executing
    the yielded segments in order through :func:`apply_disjoint_batch` /
    :func:`apply_sequential` is bitwise-identical to the sequential
    reference execution — segmentation depends only on indices, never
    on values, which is what lets the sharded backend *plan* a call
    completely before (or while) the workers apply it.

    The plan slides a pending set over the step stream: every round
    tops the set up, in order, to at most ``window`` steps, scans it
    once (:func:`first_occurrence_ready`) and yields the ready steps as
    one batch; the others are carried into the next round ahead of the
    new steps, so the pending set always holds every unexecuted step
    that precedes any of its members and a first occurrence in it is a
    first occurrence overall. A round that finds fewer than ``tail``
    steps ready — every step touches one hub — hands the oldest
    ``tail`` pending steps to the sequential applier instead (a prefix
    of the pending set is always order-preserving), and once the stream
    is drained the last ``tail`` steps go the same way.

    A round counts its ready steps and lists the batch and the carry
    only when some but not all are ready; a round with nothing carried
    takes its steps straight from the input. The chunks are ``intp``
    arrays whatever the integer dtype of the input, cast one window at
    a time — an ``intp`` input's chunks may be views of it, never of
    ``scratch``, so a consumer may keep a segment for as long as it
    leaves the input alone. ``scratch`` serves a matrix of ``rows``
    rows.
    """
    total = len(pending_i)
    scratch.fit(rows, window)
    scalar = max(tail, 1)
    streams = (pending_i, pending_j) + carried
    carry = [_NO_STEPS] * len(streams)
    cursor = 0
    while True:
        stop = min(cursor + window - len(carry[0]), total)
        chunks = [
            np.concatenate((held, stream[cursor:stop]), dtype=np.intp)
            if len(held) else stream[cursor:stop].astype(np.intp, copy=False)
            for held, stream in zip(carry, streams)
        ]
        cursor = stop
        size = len(chunks[0])
        if cursor == total and size <= tail:
            if size:
                yield (SEGMENT_SEQUENTIAL, *chunks)
            return
        ready = first_occurrence_ready(chunks[0], chunks[1], scratch)
        count = np.count_nonzero(ready)
        if count == size:
            yield (SEGMENT_BATCH, *chunks)
            carry = [_NO_STEPS] * len(streams)
        elif count < scalar:
            yield (SEGMENT_SEQUENTIAL, *(c[:scalar] for c in chunks))
            carry = [c[scalar:] for c in chunks]
        else:
            peeled = np.flatnonzero(ready)
            kept = np.flatnonzero(~ready)
            carry = [c.take(kept) for c in chunks]
            yield (SEGMENT_BATCH, *(c.take(peeled) for c in chunks))


@lru_cache(maxsize=32)
def column_groups(functions: Tuple[AggregateFunction, ...]) -> tuple:
    """How :func:`apply_disjoint_batch` splits the columns of one
    ``functions`` tuple (hashable, as instances are by default), worked
    out once per tuple: functions of one class with equal instance
    state form a group. Returns ``(lead, own, foreign)`` — a function
    of the widest group, its first column, and the ``(column,
    function)`` pairs outside that group."""
    groups: List[List[int]] = []
    for c, function in enumerate(functions):
        for group in groups:
            peer = functions[group[0]]
            if type(peer) is type(function) and vars(peer) == vars(function):
                group.append(c)
                break
        else:
            groups.append([c])
    widest = max(groups, key=len)
    foreign = [(c, f) for c, f in enumerate(functions) if c not in widest]
    return functions[widest[0]], widest[0], tuple(foreign)


def apply_disjoint_batch(
    matrix: np.ndarray,
    functions: Sequence[AggregateFunction],
    batch_i: np.ndarray,
    batch_j: np.ndarray,
) -> None:
    """Apply one node-disjoint batch of exchanges, bitwise-equal to one
    scalar ``combine`` per step and column.

    Several columns move as whole rows of a C-contiguous float64
    ``matrix``, one :data:`BATCH_TILE` at a time (disjoint steps
    commute: any tiling is exact). Both endpoints' rows are gathered,
    the widest of the :func:`column_groups` is combined in one
    contiguous in-place pass over the gathered block, the other columns
    one by one, and each side is written back by one flat ``put``
    through a view of the matrix whose item is a row. *A function only
    sees values of columns it owns*: for the block pass the foreign
    columns of both blocks hold a copy of one of the group's own — a
    min / max column may hold ± inf, a corrupted row anything.
    """
    if len(batch_i) == 0:
        return
    # the planner's chunks are intp already; the sharded workers'
    # int32 bank slices pay one cheap pass here
    batch_i = batch_i.astype(np.intp, copy=False)
    batch_j = batch_j.astype(np.intp, copy=False)
    if matrix.shape[1] == 1:
        column = matrix[:, 0]
        combined = functions[0].combine_array(
            column.take(batch_i), column.take(batch_j)
        )
        column[batch_i] = combined
        column[batch_j] = combined
        return
    lead, own, foreign = column_groups(tuple(functions))
    rows = matrix.view(np.dtype((np.void, 8 * matrix.shape[1]))).reshape(-1)
    for lo in range(0, len(batch_i), BATCH_TILE):
        tile_i = batch_i[lo:lo + BATCH_TILE]
        tile_j = batch_j[lo:lo + BATCH_TILE]
        block = matrix.take(tile_i, axis=0)
        other = matrix.take(tile_j, axis=0)
        kept = [f.combine_array(block[:, c], other[:, c]) for c, f in foreign]
        for c, _ in foreign:
            block[:, c] = block[:, own]
            other[:, c] = other[:, own]
        lead.combine_into(block, other, block)
        for (c, _), result in zip(foreign, kept):
            block[:, c] = result
        combined = block.view(rows.dtype).reshape(-1)
        rows.put(tile_i, combined)
        rows.put(tile_j, combined)


def apply_sequential(
    matrix: np.ndarray,
    functions: Sequence[AggregateFunction],
    steps_i: np.ndarray,
    steps_j: np.ndarray,
) -> None:
    """Apply steps one at a time, in step order, via scalar ``combine``.

    Used for the conflicted tail of a greedy window; switching to the
    scalar path mid-window keeps the result bitwise-equal to the
    batched execution (the combine/combine_array IEEE contract).
    """
    if len(steps_i) == 0:
        return
    steps = zip(steps_i.tolist(), steps_j.tolist())
    if matrix.shape[1] == 1:
        column = matrix[:, 0]
        combine = functions[0].combine
        for i, j in steps:
            combined = combine(column[i], column[j])
            column[i] = combined
            column[j] = combined
        return
    for i, j in steps:
        for c, function in enumerate(functions):
            combined = function.combine(matrix[i, c], matrix[j, c])
            matrix[i, c] = combined
            matrix[j, c] = combined


def apply_one_sided_batch(
    matrix: np.ndarray,
    functions: Sequence[AggregateFunction],
    batch_i: np.ndarray,
    batch_j: np.ndarray,
    adopt_i: Optional[np.ndarray] = None,
    payload: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply one node-disjoint batch of *one-sided* exchanges via
    ``combine_array``: every partner ``j`` adopts ``AGGREGATE(sent,
    x_j)``, an initiator ``i`` only where ``adopt_i`` is set (``None``:
    nowhere). ``sent`` is the initiator's row, or the matching row of
    ``payload`` when one is given — the initiator is then neither read
    nor written. Returns ``(combined, sent, delta)``: the ``(m, k)``
    combined rows, the rows they answered, and the per-column mass the
    non-adopting steps moved (``combined - x_j`` summed over them)."""
    k = matrix.shape[1]
    state = matrix[:, 0] if k == 1 else matrix
    batch_i = batch_i.astype(np.intp, copy=False)
    batch_j = batch_j.astype(np.intp, copy=False)
    old = state.take(batch_j, axis=0)
    sent = (
        state.take(batch_i, axis=0) if payload is None
        else payload.reshape(old.shape)
    )
    if k == 1:
        combined = functions[0].combine_array(sent, old)
    else:
        combined = np.empty_like(old)
        for c, function in enumerate(functions):
            combined[:, c] = function.combine_array(sent[:, c], old[:, c])
    state[batch_j] = combined
    moved = combined - old
    if adopt_i is not None:
        state[batch_i[adopt_i]] = combined[adopt_i]
        moved = moved[~adopt_i]
    return combined.reshape(-1, k), sent.reshape(-1, k), moved.sum(axis=0)


def apply_one_sided_sequential(
    matrix: np.ndarray,
    functions: Sequence[AggregateFunction],
    steps_i: np.ndarray,
    steps_j: np.ndarray,
    adopt_i: Optional[np.ndarray] = None,
    payload: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scalar counterpart of :func:`apply_one_sided_batch` for
    conflicted window tails: one step at a time, in step order, each
    seeing every earlier write. Same arguments, same return value."""
    m, k = len(steps_i), matrix.shape[1]
    combined = np.empty((m, k), dtype=np.float64)
    sent = np.empty((m, k), dtype=np.float64)
    delta = np.zeros(k, dtype=np.float64)
    takes = [False] * m if adopt_i is None else adopt_i.tolist()
    steps = zip(steps_i.tolist(), steps_j.tolist(), takes)
    for t, (i, j, take) in enumerate(steps):
        for c, function in enumerate(functions):
            asked = matrix[i, c] if payload is None else payload[t, c]
            old = matrix[j, c]
            value = function.combine(asked, old)
            matrix[j, c] = value
            if take:
                matrix[i, c] = value
            else:
                delta[c] += value - old
            combined[t, c] = value
            sent[t, c] = asked
    return combined, sent, delta


def apply_one_sided(
    matrix: np.ndarray,
    functions: Sequence[AggregateFunction],
    steps_i: np.ndarray,
    steps_j: np.ndarray,
    scratch: GreedyScratch,
    *,
    adopt_i: Optional[np.ndarray] = None,
    payload: Optional[np.ndarray] = None,
    collect: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Apply a list of one-sided exchanges in list order.

    One pass over the two-sided plan (:func:`iter_greedy_segments`),
    each step's list position carried along: its batches run through
    :func:`apply_one_sided_batch`, its sequential runs through
    :func:`apply_one_sided_sequential` — bitwise-identical to applying
    the list one step at a time. A ``payload`` step conflicts on its
    initiator too, though it never touches it: a batch cut early.

    Returns ``(delta, combined, sent)``. ``delta`` adds the segments'
    deltas up in execution order (its last digits depend on the cuts).
    With ``collect`` the other two are the ``(len(steps_i), k)``
    per-step rows in list order, else ``None`` and never built.
    """
    m, k = len(steps_i), matrix.shape[1]
    delta = np.zeros(k, dtype=np.float64)
    combined, sent = np.empty((2, m, k)) if collect else (None, None)
    for kind, chunk_i, chunk_j, at in iter_greedy_segments(
        steps_i, steps_j, scratch, matrix.shape[0], PAIR_CHUNK,
        GREEDY_TAIL, np.arange(m),
    ):
        applier = (apply_one_sided_sequential if kind == SEGMENT_SEQUENTIAL
                   else apply_one_sided_batch)
        rows, asked, moved = applier(
            matrix, functions, chunk_i, chunk_j,
            None if adopt_i is None else adopt_i.take(at),
            None if payload is None else payload.take(at, axis=0),
        )
        delta += moved
        if collect:
            combined[at] = rows
            sent[at] = asked
    return delta, combined, sent


class MomentScratch:
    """The one ``(rows,)`` float64 buffer :func:`column_moments`
    reduces every column through. Nothing is allocated before the
    first use; the buffer is regrown only when the matrix outgrows it,
    so a process pays for it once however many readings it takes."""

    __slots__ = ("_buffer",)

    def __init__(self):
        self._buffer: Optional[np.ndarray] = None

    def rows(self, count: int) -> np.ndarray:
        """The leading ``count`` entries of the buffer."""
        if self._buffer is None or len(self._buffer) < count:
            self._buffer = np.empty(count, dtype=np.float64)
        return self._buffer[:count]


#: one column's ``(variance, mean)``, as :func:`column_moments` reports it
Moments = Tuple[float, float]


def column_moments(
    matrix: np.ndarray,
    columns: Sequence[int],
    mask: Optional[np.ndarray] = None,
    scratch: Optional[MomentScratch] = None,
) -> List[Moments]:
    """``(variance, mean)`` of each of ``columns`` over the rows
    ``mask`` selects (``None``: every row) — the unbiased variance of
    eq. 3 and the plain mean.

    Per column the selected rows are copied into ``scratch`` and
    reduced in place: ``add.reduce / n``, subtract, square,
    ``add.reduce / (n - 1)`` — numpy's own operation sequence for
    ``var(ddof=1)`` and ``mean()`` of a contiguous copy, so the result
    equals ``matrix[:, c][mask].var(ddof=1)`` / ``.mean()`` bit for bit
    with no per-call temporaries. Each column is reduced whole, by one
    caller: splitting the *columns* between processes moves no bit,
    splitting the rows would. ``matrix`` is only read. No rows:
    ``(0.0, nan)``, silently; one row: ``(0.0, value)``.
    """
    selected = None if mask is None else np.flatnonzero(mask)
    n = matrix.shape[0] if selected is None else len(selected)
    if n == 0:
        return [(0.0, float("nan"))] * len(columns)
    values = (MomentScratch() if scratch is None else scratch).rows(n)
    moments = []
    for c in columns:
        if selected is None:
            np.copyto(values, matrix[:, c])
        else:
            # the indices are in range by construction, and every mode
            # but "raise" writes straight into ``out``
            np.take(matrix[:, c], selected, out=values, mode="clip")
        mean = np.add.reduce(values) / n
        variance = 0.0
        if n > 1:
            np.subtract(values, mean, out=values)
            np.multiply(values, values, out=values)
            variance = float(np.add.reduce(values) / (n - 1))
        moments.append((variance, float(mean)))
    return moments


def _first_distinct_batch(
    candidates: np.ndarray, view_size: int, capacity: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per row: the first ``view_size`` distinct entries in candidate
    order, padded with the remaining duplicates (in order) when fewer
    distinct values exist. Entries must lie in ``[0, capacity)``; a row
    holds ``view_size`` candidates or more. Returns ``(firsts,
    complete)``: the ``(rows, view_size)`` answer and, per row, whether
    it found ``view_size`` distinct entries — no duplicate pads it, and
    no candidate appended on the right could change it, which is what
    lets :func:`merge_views_batch` hand in a prefix of the candidate
    sequence first. ``candidates`` is scratch: where the keys fit its
    dtype they are built in place, and ``firsts`` is a view of it.

    Two in-place value sorts of bit-packed keys, no index bookkeeping
    (a plain row sort is ~5x cheaper than an argsort at this width, and
    the take/put passes that follow an argsort cost as much again).
    With ``s`` bits for the column and ``capbits`` for the id:

    * sort 1 orders ``(id << s) | col`` — equal ids become adjacent,
      earliest column first, so ``id[k] == id[k-1]`` flags every
      repeat occurrence;
    * sort 2 orders ``((dup << s | col) << capbits) | id`` — first
      occurrences in column order, then repeats in column order; the
      answer is the low ``capbits`` bits of the leading columns, and a
      row is complete when its ``view_size``-th key carries no ``dup``
      bit.

    Keys are int32 while ``s + 1 + capbits`` fits 31 bits (capacity up
    to 16.7M at ``view_size`` 20), int64 above that. One block-sized
    temporary (``ids``, reused for the ``dup`` bits) is all the kernel
    allocates beside the bool flags: blocks of a few hundred kB sit
    above glibc's mmap threshold, and a fresh one costs its page faults
    — more than the pass that fills it.
    """
    width = candidates.shape[1]
    s = (width - 1).bit_length()
    capbits = max(capacity - 1, 1).bit_length()
    dtype = np.int32 if s + 1 + capbits <= 31 else np.int64
    keys = candidates.astype(dtype, copy=False)
    keys <<= s
    keys |= np.arange(width, dtype=dtype)
    keys.sort(axis=1)
    ids = keys >> s
    keys &= (1 << s) - 1
    keys <<= capbits
    keys |= ids
    # id[k] == id[k-1] over the flattened block, one contiguous pass
    # (column slices would run one inner loop per row); the compare
    # that straddles two rows lands in column 0, which is cleared
    dup = np.empty(ids.shape, dtype=bool)
    flat = ids.reshape(-1)
    np.equal(flat[1:], flat[:-1], out=dup.reshape(-1)[1:])
    dup[:, 0] = False
    # the ids are packed into the keys by now: their block takes the bits
    keys |= np.left_shift(dup, s + capbits, out=ids, dtype=dtype)
    keys.sort(axis=1)
    complete = keys[:, view_size - 1] < (1 << (s + capbits))
    keys &= (1 << capbits) - 1
    firsts = keys[:, :view_size]
    return firsts.astype(candidates.dtype, copy=False), complete


def _first_distinct_row(candidates: list, view_size: int) -> list:
    """Scalar counterpart of :func:`_first_distinct_batch`: first
    occurrences in order, then duplicates in order, truncated."""
    seen = set()
    firsts = []
    repeats = []
    for entry in candidates:
        if entry in seen:
            repeats.append(entry)
        else:
            seen.add(entry)
            firsts.append(entry)
    firsts += repeats
    return firsts[:view_size]


def _interleave(
    cand: np.ndarray,
    own: np.ndarray,
    partner: np.ndarray,
    rows: np.ndarray,
    mates: np.ndarray,
) -> None:
    """Fill ``cand`` with the leading ``cand.shape[1]`` entries of
    ``[own, partner, own[0], partner's[0], own[1], partner's[1], …]``,
    row for row: ``own`` / ``partner`` are the two ids, ``rows`` /
    ``mates`` the nodes' own views and their partners'."""
    width = cand.shape[1]
    cand[:, 0] = own
    cand[:, 1] = partner
    cand[:, 2::2] = rows[:, :(width - 1) // 2]
    cand[:, 3::2] = mates[:, :(width - 2) // 2]


def merge_views_batch(
    views: np.ndarray,
    batch_a: np.ndarray,
    batch_b: np.ndarray,
) -> None:
    """Apply one node-disjoint batch of Newscast view exchanges.

    For each pair ``(a, b)`` both rows of ``views`` (recency-ordered,
    youngest first) are rebuilt from the candidate sequence
    ``[partner, own[0], partner's[0], own[1], partner's[1], …]`` with
    self-entries rewritten to the partner, keeping the first
    ``view_size`` *distinct* candidates (duplicates only pad the tail
    if the two views overlap so much that distinct candidates run out).
    The dedup is what keeps views diverse — without it repeated
    exchanges between acquainted nodes collapse views onto a handful of
    peers. Pure integer column ops — the int32 analogue of
    :func:`apply_disjoint_batch` — so batching versus one-at-a-time
    application is trivially bitwise-identical.

    *The rewrite is not a pass.* A rewritten self-entry repeats the
    partner of column 0, so it is never a first occurrence. Putting the
    node itself in front of its candidates (:func:`_interleave`),
    keeping ``view_size + 1`` distinct ids and dropping the first makes
    the raw self-entry a repeat in exactly the same columns; the two
    differ only where duplicates *pad* a row, and there the node is
    rewritten to its partner in the answer.

    *Prefix first.* Where the candidates straddle
    :data:`VIEW_SORT_WIDTH` only the leading that-many are assembled,
    keyed and sorted (:func:`_first_distinct_batch`). A row that is
    complete on them is finished: the first *k* distinct entries of a
    sequence are those of any prefix that holds *k*. The others — two
    views that overlap heavily, ≈ 1.4 % of the rows of the pinned
    N = 5 000 overlay — are redone at full width by the same kernel,
    which also keeps the duplicate-padding case. Both passes are exact,
    so which rows take the second is invisible in the result.
    """
    m = len(batch_a)
    if m == 0:
        return
    capacity, view_size = views.shape
    full = 2 * view_size + 2
    width = VIEW_SORT_WIDTH if view_size < VIEW_SORT_WIDTH < full else full
    # both sides as one block: rows [:m] rebuild a's views, [m:] b's
    index = np.concatenate((batch_a, batch_b), dtype=np.intp)
    own = index.astype(views.dtype)
    rows = views.take(index, axis=0)
    cand = np.empty((2 * m, width), dtype=views.dtype)
    _interleave(cand[:m], own[:m], own[m:], rows[:m], rows[m:])
    _interleave(cand[m:], own[m:], own[:m], rows[m:], rows[:m])
    firsts, complete = _first_distinct_batch(cand, view_size + 1, capacity)
    merged = firsts[:, 1:]
    short = np.flatnonzero(~complete)
    if len(short):
        mate = (short + m) % (2 * m)
        node, partner = own[short], own[mate]
        if width < full:
            cand = np.empty((len(short), full), dtype=views.dtype)
            _interleave(cand, node, partner, rows[short], rows[mate])
            padded = _first_distinct_batch(
                cand, view_size + 1, capacity
            )[0][:, 1:]
        else:
            padded = merged[short]
        # where duplicates pad a row the node itself can show
        np.copyto(padded, partner[:, None], where=padded == node[:, None])
        merged[short] = padded
    views[index] = merged


def merge_views_sequential(
    views: np.ndarray,
    steps_a: np.ndarray,
    steps_b: np.ndarray,
) -> None:
    """Apply view exchanges one at a time, in step order.

    The scalar counterpart of :func:`merge_views_batch` for conflicted
    window tails, computed over plain Python lists (per-row numpy calls
    cost more than the merge itself). It is the merge rule spelled out
    — interleave, self-rewrite, first-distinct selection — and what
    the batch kernel's shortcuts are tested against; both are integer
    functions of the same rows, so mixing the two over an
    order-preserving segmentation stays bitwise-identical to sequential
    execution with no IEEE caveat.
    """
    view_size = views.shape[1]
    cand = [0] * (2 * view_size + 1)
    for a, b in zip(steps_a.tolist(), steps_b.tolist()):
        row_a = views[a].tolist()
        row_b = views[b].tolist()
        for own, partner, row_own, row_partner in (
            (a, b, row_a, row_b), (b, a, row_b, row_a)
        ):
            cand[0] = partner
            cand[1::2] = row_own
            cand[2::2] = row_partner
            if own in cand:
                cand = [partner if x == own else x for x in cand]
            views[own] = _first_distinct_row(cand, view_size)


class ExecutionBackend(ABC):
    """Applies one cycle's successful exchanges to the value matrix."""

    #: identifier used in Scenario.backend and reports
    name: str = "abstract"

    @abstractmethod
    def apply_exchanges(
        self,
        matrix: np.ndarray,
        functions: Sequence[AggregateFunction],
        exch_i: np.ndarray,
        exch_j: np.ndarray,
    ) -> None:
        """Apply exchanges ``(exch_i[t], exch_j[t])`` for t = 0..m-1, in
        order, to ``matrix`` in place.

        ``matrix`` is the ``(n, k)`` structure-of-arrays node state —
        the array :meth:`adopt_matrix` (or :meth:`grow_matrix` /
        :meth:`allocate_matrix`) last returned; ``functions`` holds the
        per-column AGGREGATE.
        """

    def apply_pairs(
        self,
        matrix: np.ndarray,
        functions: Sequence[AggregateFunction],
        pairs_i: np.ndarray,
        pairs_j: np.ndarray,
        *,
        plan: Optional[Tuple[Tuple[int, int, bool], ...]] = None,
    ) -> None:
        """Apply one pair-mode cycle's elementary steps, in step order.

        Semantically identical to :meth:`apply_exchanges`; ``plan`` is
        an optional tuple of ``(start, end, conflict_free)`` segments
        covering the sequence, marking stretches that are node-disjoint
        *by construction* (PM's matching halves). Sequential backends
        may ignore it; batched backends apply a conflict-free segment
        as a single batch with no segmentation scan.
        """
        self.apply_exchanges(matrix, functions, pairs_i, pairs_j)

    def apply_view_exchanges(
        self,
        views: np.ndarray,
        exch_i: np.ndarray,
        exch_j: np.ndarray,
    ) -> None:
        """Apply one cycle's Newscast view exchanges, in step order.

        ``views`` is the membership layer's int32 ``(capacity,
        view_size)`` partial-view matrix — engine-hosted state like the
        alive mask, never aliased with the backend's value matrix.
        That separation makes this call ``sync()``-safe: the sharded
        backend may merge views in the parent while a pipelined value
        cycle is still in flight on its workers. The base
        implementation is the sequential reference semantics; batched
        backends re-segment through the same node-disjoint primitives
        as value exchanges and stay bitwise-identical.
        """
        merge_views_sequential(views, exch_i, exch_j)

    def adopt_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Engine hand-off hook: take ownership of storing ``matrix``.

        The engine calls this once at construction — with the
        scenario's initial matrix, or with a checkpoint's on restore —
        and again whenever it reallocates the value matrix (capacity
        growth under churn, an epoch restart that changes the instance
        count), then uses the returned array as its matrix from that
        point on. The matrix is C-contiguous float64 on both sides: the
        batch kernel writes through a row view, and ``apply_*`` refuses
        any other layout with a :class:`~repro.errors.SimulationError`.
        In-process backends return the array unchanged; the sharded
        backend copies it into a :mod:`multiprocessing.shared_memory`
        segment and returns the shared view so every subsequent engine
        mutation — epoch reseeds, joiner admissions, crash recycling —
        is visible to the worker processes with no per-cycle copying.
        """
        return matrix

    def grow_matrix(self, matrix: np.ndarray, rows: int) -> np.ndarray:
        """Grow an adopted matrix to ``rows`` slots, preserving content.

        The engine calls this on churn capacity growth instead of
        vstacking into a heap array and re-adopting — that pair costs
        two full matrix copies where one suffices. The contract: the
        returned ``(rows, k)`` array holds ``matrix`` in its leading
        rows, zeros below, is owned by the backend exactly like an
        adopted matrix, and is produced with **at most one** copy of
        the old content (the sharded backend copies the old shared
        view directly into the freshly mapped larger segment; the
        in-process default copies into a fresh heap array).
        """
        grown = np.zeros((rows, matrix.shape[1]), dtype=np.float64)
        grown[:matrix.shape[0]] = matrix
        return grown

    def allocate_matrix(self, rows: int, k: int) -> np.ndarray:
        """A zeroed backend-owned ``(rows, k)`` matrix (epoch rebuilds
        that change the instance count start from zeros, so routing the
        allocation through the backend avoids a heap array that
        :meth:`adopt_matrix` would immediately copy and discard — the
        sharded backend maps a fresh segment and returns its view,
        zero-filled by the OS for free)."""
        return np.zeros((rows, k), dtype=np.float64)

    def sync(self) -> None:
        """Block until every previously submitted apply call has fully
        landed in the matrix.

        In-process backends apply synchronously, so this is a no-op.
        The pipelined sharded backend returns from ``apply_*`` with the
        work still in flight on its workers (that overlap is the whole
        point); the engine calls :meth:`sync` before every matrix
        *read* (variance/mean observers, epoch finalize) and every
        engine-side matrix *write* (churn admissions, epoch reseeds) so
        no consumer ever sees a half-applied cycle. Deferred readings
        (:meth:`defer_moments`) are waited for as well: after
        :meth:`sync` nothing but the caller touches the matrix.
        """

    def defer_moments(
        self, matrix: np.ndarray, columns: Sequence[int]
    ) -> Optional[Callable[[], List[Moments]]]:
        """Take :func:`column_moments` of ``columns`` over every row of
        the adopted ``matrix`` *behind whatever is in flight*, without
        the caller waiting for it.

        Returns ``None`` when the backend cannot (the default: there is
        nothing in flight to read behind, so the caller calls
        :meth:`sync` and reduces the matrix itself), else a
        zero-argument callable that blocks until the reading is in and
        returns it. The reading is of the matrix as every apply call
        submitted so far leaves it; the caller may go on submitting
        apply calls, and must call :meth:`sync` before writing the
        matrix itself, as ever.
        """
        return None

    def release_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Counterpart of :meth:`adopt_matrix` at shutdown: return a
        matrix that stays valid after :meth:`close`.

        In-process backends return the array unchanged. The sharded
        backend returns a private heap copy of its shared view —
        numpy's ``buffer=`` interface does not hold a buffer export,
        so closing the shared segment unmaps it out from under any
        remaining views; the engine swaps in the copy before closing
        so post-close observers (``matrix``, ``variance``, …) keep
        working.
        """
        return matrix

    def close(self) -> None:
        """Release backend-owned resources (worker pools, shared
        memory). In-process backends hold none; idempotent."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
