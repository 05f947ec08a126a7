"""A frozen copy of the greedy planner as it stood before its round was
cut down to fewer passes, kept out of ``src/`` on purpose: the
planner in :mod:`repro.kernel.backends.base` must yield the identical
``(kind, chunk_i, chunk_j)`` stream, segment for segment, because the
sharded schedules, the one-sided ledger sums and every digest depend
on where the segments are cut. The three definitions below are the
original code, with the docstrings dropped and the scratch class
renamed ``OracleGreedyScratch``."""

from typing import Optional, Tuple

import numpy as np

from repro.kernel.backends.base import (
    PAIR_CHUNK,
    SEGMENT_BATCH,
    SEGMENT_SEQUENTIAL,
)

_NO_STEPS = np.empty(0, dtype=np.intp)


def first_occurrence_ready(
    chunk_i: np.ndarray,
    chunk_j: np.ndarray,
    position: np.ndarray,
    flat_buffer: np.ndarray,
    slot_numbers: np.ndarray,
) -> np.ndarray:
    m = len(chunk_i)
    flat = flat_buffer[:2 * m]
    flat[-1::-2] = chunk_i
    flat[-2::-2] = chunk_j
    slots = slot_numbers[:2 * m]
    position[flat] = slots
    first = position.take(flat) == slots
    return (first[0::2] & first[1::2])[::-1]


class OracleGreedyScratch:
    __slots__ = ("_position", "_flat", "_slots")

    def __init__(self):
        self._position: Optional[np.ndarray] = None
        self._flat: Optional[np.ndarray] = None
        self._slots: Optional[np.ndarray] = None

    def arrays(
        self, rows: int, window: int = PAIR_CHUNK
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._flat is None or len(self._flat) < 2 * window:
            self._flat = np.empty(2 * window, dtype=np.intp)
            self._slots = np.arange(2 * window, dtype=np.int32)
        if self._position is None or len(self._position) < rows:
            self._position = np.empty(rows, dtype=np.int32)
        return self._position, self._flat, self._slots


def iter_greedy_segments(
    pending_i: np.ndarray,
    pending_j: np.ndarray,
    scratch: OracleGreedyScratch,
    rows: int,
    window: int,
    tail: int,
):
    total = len(pending_i)
    arrays = scratch.arrays(rows, window)
    scalar = max(tail, 1)
    carry_i = carry_j = _NO_STEPS
    cursor = 0
    while True:
        stop = min(cursor + window - len(carry_i), total)
        chunk_i = np.concatenate(
            (carry_i, pending_i[cursor:stop]), dtype=np.intp
        )
        chunk_j = np.concatenate(
            (carry_j, pending_j[cursor:stop]), dtype=np.intp
        )
        cursor = stop
        size = len(chunk_i)
        if cursor == total and size <= tail:
            if size:
                yield SEGMENT_SEQUENTIAL, chunk_i, chunk_j
            return
        ready = first_occurrence_ready(chunk_i, chunk_j, *arrays)
        peeled = np.flatnonzero(ready)
        if len(peeled) == size:
            yield SEGMENT_BATCH, chunk_i, chunk_j
            carry_i = carry_j = _NO_STEPS
        elif len(peeled) < scalar:
            yield SEGMENT_SEQUENTIAL, chunk_i[:scalar], chunk_j[:scalar]
            carry_i, carry_j = chunk_i[scalar:], chunk_j[scalar:]
        else:
            yield SEGMENT_BATCH, chunk_i.take(peeled), chunk_j.take(peeled)
            kept = np.flatnonzero(~ready)
            carry_i, carry_j = chunk_i.take(kept), chunk_j.take(kept)
