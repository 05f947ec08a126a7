"""In-memory span recorder and the arithmetic on recorded spans.

A span is one call across a layer boundary: ``(name, start, end,
parent, cycle)``. ``parent`` is the index of the span that was open
when this one began (``-1`` for a root) and ``cycle`` the engine cycle
the call belongs to — the identifier every span of one cycle shares.
Spans are appended to a list while the traced repetition runs and are
only summarised (or written out) afterwards, so recording costs two
clock reads and one list append per boundary crossing.

The recorder knows nothing about the program under test; the wrappers
that call it live in :mod:`tracing`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    cycle: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from one thread of control.

    ``cycle`` is set by whoever knows the current cycle (the
    ``run_cycle`` wrapper) and stamped on every span begun afterwards.
    ``counts`` holds the work counters taken at the same boundaries
    (exchanges per apply call, kept/candidate steps per compaction, …).
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._open: List[int] = []
        self._rows: List[list] = []
        self.cycle = -1
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}

    def begin(self, name: str) -> int:
        index = len(self._rows)
        parent = self._open[-1] if self._open else -1
        self._rows.append([name, 0.0, 0.0, parent, self.cycle])
        self._open.append(index)
        self._rows[index][1] = self._clock()
        return index

    def end(self, index: int) -> None:
        now = self._clock()
        self._rows[index][2] = now
        # an exception may have skipped inner end() calls: close them
        # at the same instant so the tree stays well nested
        while self._open:
            top = self._open.pop()
            if top == index:
                break
            self._rows[top][2] = now

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """``begin``/``end`` as a ``with`` block, for call sites where
        a generator's overhead does not matter."""
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    @property
    def spans(self) -> List[Span]:
        return [Span(*row) for row in self._rows]


@dataclass(frozen=True)
class Totals:
    """Per-name sums over a set of spans."""

    calls: int
    total: float
    self_time: float


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its direct children
    cover. Children of one parent run one after another on a single
    thread, so the covered part is the sum of their durations."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def summarise(spans: Sequence[Span]) -> Dict[str, Totals]:
    """Calls, total time and self time per span name."""
    own = self_times(spans)
    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}
    selfs: Dict[str, float] = {}
    for span, self_time in zip(spans, own):
        calls[span.name] = calls.get(span.name, 0) + 1
        total[span.name] = total.get(span.name, 0.0) + span.duration
        selfs[span.name] = selfs.get(span.name, 0.0) + self_time
    return {
        name: Totals(calls[name], total[name], selfs[name])
        for name in calls
    }


def subtree(spans: Sequence[Span], root: int) -> List[Span]:
    """The spans under ``root`` (inclusive), re-indexed so ``root`` is
    span 0 with no parent. Relies on a child always being recorded
    after its parent."""
    mapping = {root: 0}
    kept = [Span(spans[root].name, spans[root].start, spans[root].end,
                 -1, spans[root].cycle)]
    for index in range(root + 1, len(spans)):
        span = spans[index]
        if span.parent in mapping:
            mapping[index] = len(kept)
            kept.append(Span(span.name, span.start, span.end,
                             mapping[span.parent], span.cycle))
    return kept


def coverage(spans: Sequence[Span], root_name: str) -> float:
    """Share of the ``root_name`` span's wall time that named spans
    below it account for with their self times — one minus the root's
    own self time over its duration. ``0.0`` without such a span."""
    for index, span in enumerate(spans):
        if span.name == root_name and span.duration > 0:
            tree = subtree(spans, index)
            return 1.0 - self_times(tree)[0] / span.duration
    return 0.0


def uncovered_gaps(spans: Sequence[Span], root_name: str,
                   limit: int = 3) -> List[str]:
    """Where the root's uncovered time sits, for the report printed
    when coverage falls short: the largest stretches of the root span
    no child covers, each named by the children on either side."""
    for index, span in enumerate(spans):
        if span.name == root_name:
            root, tree = span, subtree(spans, index)
            break
    else:
        return [f"no {root_name!r} span was recorded"]
    children = [child for child in tree[1:] if child.parent == 0]
    gaps = []
    cursor, previous = root.start, "start"
    for child in children:
        gaps.append((child.start - cursor, previous, child.name))
        cursor, previous = child.end, child.name
    gaps.append((root.end - cursor, previous, "end"))
    gaps.sort(reverse=True)
    return [
        f"{seconds:.4f} s between {before} and {after}"
        for seconds, before, after in gaps[:limit]
    ]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return float(ordered[rank])


def as_rows(spans: Sequence[Span]) -> List[list]:
    """Spans as JSON-ready rows with times relative to the first
    span's start."""
    if not spans:
        return []
    origin = spans[0].start
    return [
        [s.name, s.start - origin, s.end - origin, s.parent, s.cycle]
        for s in spans
    ]
