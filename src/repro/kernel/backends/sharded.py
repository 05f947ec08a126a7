"""The multi-process scale path: shared-memory sharded execution.

At N = 10⁶ a cycle is a long sequence of gather/combine/scatter passes
over an ~8 MB-per-column value matrix with random int32 indices —
memory-bound work that one core's load/store ports serialize.
:class:`ShardedBackend` splits that work across a persistent pool of
worker processes:

* **Storage.** The value matrix lives in one
  :mod:`multiprocessing.shared_memory` segment, followed by **two
  banks** of int32 step buffers carved from the same segment. The
  engine hands its matrix over through
  :meth:`~.base.ExecutionBackend.adopt_matrix` and works on the shared
  view from then on, so churn admissions, epoch reseeds and crash
  recycling are ordinary in-place writes that every worker sees — zero
  per-cycle copying. That hand-off is the only way in: ``apply_*``
  refuses any array but the adopted one, so a caller outside an engine
  adopts, applies and calls ``sync()`` before it reads, as the engine
  does. Capacity growth goes through
  :meth:`~.base.ExecutionBackend.grow_matrix`: the old shared view is
  copied **once**, directly into the freshly mapped larger segment;
  epoch rebuilds that change the instance count allocate a zero-filled
  segment outright (:meth:`~.base.ExecutionBackend.allocate_matrix`,
  no copy at all).

* **Scheduling.** The parent computes the *schedule* for each call up
  front — the same sliding-window greedy segmentation the
  vectorized backend uses (:func:`~.base.iter_greedy_segments`), over
  a window that follows the row count (:data:`SHARD_CHUNK`), but as a
  pure plan: steps are rewritten into execution order in one
  bank's step buffers and described as a list of ``(start, end,
  kind)`` segments. Conflict-free plan segments from pair mode (PM's
  matching halves) become single batch segments with no scan at all.
  Segmentation depends only on indices, never on values, which is what
  makes plan-then-execute — and plan-*ahead* — possible.

* **Execution.** ``apply_*`` publishes the schedule to the workers and
  **returns immediately**: batch segments are applied by the workers in
  equal contiguous slices, conflicted sequential tails by worker 0, a
  workers-only barrier ordering the segments, and each worker posts
  one ``applied`` acknowledgement per schedule. The two banks turn
  that into a pipeline: while the workers apply cycle ``t`` from bank
  A, the parent is already drawing cycle ``t+1``'s randomness, running
  its mask pass and planning its segmentation into bank B. The handoff
  is two-phase — before planning into a bank the parent drains that
  bank's outstanding acknowledgement, so a schedule is never
  overwritten while in flight, and the engine calls :meth:`sync`
  before every matrix read or engine-side write (observers, churn
  admissions, epoch reseeds) so no consumer sees a half-applied cycle.

* **Readings.** The per-cycle variance and mean of a recorded run do
  not need the parent: :meth:`ShardedBackend.defer_moments` queues a
  ``moments`` command behind the published schedules, each worker
  reduces its share of the *columns* (:func:`~.base.column_moments` —
  whole columns, so the bits do not depend on the worker count) once
  the last schedule's closing barrier has passed, and the parent
  collects the replies when the engine asks for them — after the run,
  not once per cycle. Acknowledgements and readings come back in
  publish order on every pipe, so the parent keeps one queue of what
  it is owed and :meth:`sync` waits for all of it.

* **Bitwise equality.** The schedule preserves per-node step order,
  disjoint steps commute exactly, and ``combine_array`` matches scalar
  ``combine`` bit for bit, so the result is identical to the
  sequential reference execution for any worker count; pipelining
  changes *when* a planned segment is applied, never *what* is
  applied. Slicing each batch — rather than assigning steps by the
  row-shard of their initiator — is deliberate: exchange-mode
  initiators arrive sorted, so a greedy window's initiators span one
  narrow row range and row-ownership would hand the whole window to a
  single worker; a contiguous slice of a sorted window *is* a row
  range, keeping the locality while balancing the work exactly.

Workers never draw randomness and never see the overlay (CSR partner
draws stay engine-side), so backend swaps keep the engine's RNG stream
untouched. ``workers="auto"`` resolves one worker per schedulable core
(``os.sched_getaffinity``, capped at 8) and falls back to *inline*
in-process execution below :data:`SHARD_INLINE` rows — at degenerate
sizes the pool's spawn and IPC costs cannot be amortized, so ``auto``
is never slower than the vectorized backend there. The pool is spawned
lazily on first use — fork where the platform has it, spawn otherwise
— and torn down by :meth:`ShardedBackend.close` (also hooked to
garbage collection, and workers are daemonic as a last resort).

* **Failure.** The pool's life is one state machine: *no pool* →
  *live* → *lost*. A pool is lost when a detection site
  (``_broadcast``, ``_await_acks``) meets a worker killed mid-segment,
  a broken command pipe or a missing acknowledgement, and either
  policy takes the same way through (:meth:`ShardedBackend._recover`):
  kill and join every worker, forget what was in flight, then do what
  ``on_failure`` says. ``"raise"`` parks the mappings, unlinks every
  name and raises a :class:`repro.errors.ShardPoolError` naming the
  dead or stalled worker and the protocol phase — *failed for good*:
  every later apply or hand-off raises the same error, while
  ``sync()``, ``release_matrix()`` and ``close()`` stay usable for the
  post-mortem. ``"respawn"`` replays the journaled in-flight schedule
  in-process, takes the readings the pool still owed, and spends one
  of ``max_respawns`` credits — the pool is *down until the next
  schedule*, which forks workers and attaches them to the current
  segment the way first use does — or, the budget spent, runs
  *in-process for good*.

Configuration is the three constructor arguments plus the two
environment variables whose setters sit outside the code that builds
the backend: ``REPRO_SHARD_TIMEOUT`` (fault harnesses) and
``REPRO_SHARD_ON_FAILURE`` (the CLI's ``--on-pool-failure``).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import sys
import time
import traceback
import weakref
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ...core.aggregates import AggregateFunction
from ...errors import ConfigurationError, ShardPoolError, SimulationError
from ...fields import check_count, check_real
from ..faults import BACKEND_FAULT_KINDS, FaultSpec
from .base import (
    PAIR_CHUNK,
    SEGMENT_BATCH,
    ExecutionBackend,
    GreedyScratch,
    Moments,
    MomentScratch,
    apply_disjoint_batch,
    apply_sequential,
    column_moments,
    iter_greedy_segments,
)
from .vectorized import VectorizedBackend

#: cap on the pool planner's greedy window. Every peeled batch costs
#: one pool barrier, every step left unready one more scan by the
#: parent; how much of a window is ready at once depends on the window
#: over the row count, so the default window is an eighth of the
#: adopted rows (its first scan 83 % ready at any N), kept between
#: :data:`~.base.PAIR_CHUNK` and this cap — which it reaches from
#: 524 288 rows on. The batch kernel tiles what it is handed, so the
#: window is no cache question. The backend's in-process work (inline,
#: degraded, views) crosses no barrier and keeps the vectorized
#: backend's :data:`~.base.PAIR_CHUNK`.
SHARD_CHUNK = 65536

#: sequential-tail threshold for the sharded planner — larger than the
#: in-process :data:`~.base.GREEDY_TAIL` because here a batch costs a
#: barrier round-trip on top of the first-occurrence scan.
SHARD_TAIL = 192

#: below this many matrix rows, ``workers="auto"`` skips the pool
#: entirely and applies in-process (the vectorized path): a worker
#: pool cannot amortize its spawn/IPC costs on sub-cache matrices, so
#: ``sharded:auto`` is never slower than ``vectorized`` at degenerate
#: sizes.
SHARD_INLINE = 65536

#: default seconds a barrier/acknowledgement wait may block before the
#: pool is declared dead (override via ``REPRO_SHARD_TIMEOUT``)
_DEFAULT_TIMEOUT = 120.0

#: what a lost pool costs: ``raise`` surfaces a ShardPoolError, and the
#: backend stays failed; ``respawn`` replays the in-flight schedule
#: in-process and lets the next schedule fork new workers, up to
#: ``max_respawns`` times, then degrades to in-process vectorized
#: execution (at once with ``max_respawns=0``) — the run always
#: finishes.
POOL_FAILURE_MODES = ("raise", "respawn")

#: default respawn budget before a ``respawn`` pool degrades to inline
_DEFAULT_MAX_RESPAWNS = 2


def _barrier_timeout() -> float:
    """The pool liveness timeout, resolved at backend construction so a
    malformed ``REPRO_SHARD_TIMEOUT`` raises a typed error from the
    component that uses it, not an import-time crash."""
    env = os.environ.get("REPRO_SHARD_TIMEOUT", "").strip()
    if not env:
        return _DEFAULT_TIMEOUT
    try:
        value = float(env)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_SHARD_TIMEOUT must be a number of seconds, got {env!r}"
        ) from None
    return check_real(value, "REPRO_SHARD_TIMEOUT", above=0)


class _PoolFailure(Exception):
    """Internal signal a detection site (``_broadcast``,
    ``_await_acks``) raises when it finds the pool lost, under either
    policy. The boundaries — ``_drain_while`` (so :meth:`sync`, the
    bank handoff and the ticket of a deferred reading),
    ``defer_moments``, ``_map`` and ``_apply`` — hand it to
    :meth:`ShardedBackend._recover`. Never escapes the backend."""

    def __init__(self, phase: str, worker: int, failure: str):
        super().__init__(phase)
        self.phase = phase
        self.worker = worker
        self.failure = failure


@dataclass(frozen=True)
class PoolHealthReport:
    """What happened to a sharded pool over its lifetime.

    ``events`` carries one dict per detected failure (``phase``,
    ``worker``, ``action`` taken, whether an in-flight schedule was
    ``replayed`` inline, recovery ``seconds``, worker diagnostics).
    A report with no events is a run the pool survived untouched.
    """

    on_failure: str
    workers: int
    respawns: int
    degraded: bool
    events: Tuple[dict, ...] = field(default_factory=tuple)

    @property
    def recovery_seconds(self) -> float:
        """Total wall-clock spent inside failure recovery."""
        return float(sum(e.get("seconds", 0.0) for e in self.events))


#: the batch segment kind in a schedule (shared with the greedy
#: planner); every other segment is a sequential tail
_BATCH = SEGMENT_BATCH

Segment = Tuple[int, int, int]

#: replies the parent lets pile up in the command pipes ahead of a new
#: reading; past that, the reading first collects the oldest. Cycles
#: that publish a schedule drain their bank and stay within it (the
#: last reading but one, two schedules and the reading between them);
#: a run of cycles with no exchanges would otherwise queue one unread
#: reply per cycle until the pipe is full and parent and workers block
#: on each other's sends.
_MAX_UNCOLLECTED = 4


class _Reading:
    """One deferred :func:`~.base.column_moments` reading: the columns
    asked for and, once every worker has replied, their moments. The
    engine's ticket and the in-flight queue share it, so a reply met
    while draining for another reason lands where the ticket looks."""

    __slots__ = ("columns", "moments")

    def __init__(self, columns: Tuple[int, ...]):
        self.columns = columns
        self.moments: Optional[List[Moments]] = None


#: an operation the workers owe a reply for, in publish order:
#: ``("applied", bank, None)`` or ``("moments", serial, reading)``
_InFlight = Tuple[str, int, Optional[_Reading]]


def default_workers() -> int:
    """Worker count when none is requested: one per *schedulable* core
    (cpusets/affinity masks in containers often expose fewer cores
    than ``os.cpu_count`` reports), capped — the exchange path
    saturates memory bandwidth before it runs out of arithmetic, so
    very wide pools only add barrier traffic."""
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    return max(1, min(8, cores))


def _carve(
    shm: shared_memory.SharedMemory, rows: int, k: int, steps_cap: int
) -> Tuple[np.ndarray, Tuple[Tuple[np.ndarray, np.ndarray], ...]]:
    """The views carved from one shared segment: the ``(rows, k)``
    float64 value matrix followed by two banks of int32 step buffers
    (``(step_i, step_j)`` per bank). Bank B exists so the parent can
    plan schedule ``t+1`` while the workers apply ``t`` from bank A;
    the untouched bank costs address space, not resident pages."""
    matrix_bytes = rows * k * 8
    view = np.ndarray((rows, k), dtype=np.float64, buffer=shm.buf)
    banks = []
    for bank in range(2):
        base = matrix_bytes + bank * steps_cap * 8
        step_i = np.ndarray(
            (steps_cap,), dtype=np.int32, buffer=shm.buf, offset=base
        )
        step_j = np.ndarray(
            (steps_cap,), dtype=np.int32, buffer=shm.buf,
            offset=base + steps_cap * 4,
        )
        banks.append((step_i, step_j))
    return view, tuple(banks)


def _worker_slice(start: int, end: int, index: int, workers: int) -> slice:
    """Worker ``index``'s contiguous slice of a batch segment."""
    span = end - start
    base, remainder = divmod(span, workers)
    lo = start + index * base + min(index, remainder)
    return slice(lo, lo + base + (1 if index < remainder else 0))


def _apply_schedule(
    view: np.ndarray, functions, step_i: np.ndarray, step_j: np.ndarray,
    segments: Sequence[Segment], index: int = 0, workers: int = 1,
    wait: Callable[[], object] = lambda: None,
) -> float:
    """Applier ``index`` of ``workers``' share of a schedule, in
    segment order: its slice of every batch and — applier 0 only — the
    conflicted tails, whole and in step order; ``wait()`` after each
    segment is what orders it against the peers'. A lone applier (the
    journal replay) is worker 0 of 1: every batch whole, every tail,
    nobody to wait for. Returns the seconds busy, waits excluded."""
    clock = time.perf_counter
    busy = 0.0
    for start, end, kind in segments:
        started = clock()
        if kind == _BATCH:
            sl = _worker_slice(start, end, index, workers)
            apply_disjoint_batch(view, functions, step_i[sl], step_j[sl])
        elif index == 0:
            apply_sequential(
                view, functions, step_i[start:end], step_j[start:end]
            )
        busy += clock() - started
        wait()
    return busy


def _worker_main(
    conn, barrier, index: int, workers: int, timeout: float,
) -> None:
    """Worker loop: remap / functions / apply / moments / quit
    commands.

    The barrier has ``workers`` parties (the parent is off planning
    the next schedule), worker 0 applies the conflicted sequential
    tails, and each worker acknowledges every completed schedule with
    ``("applied", bank, seconds)`` and every reading with
    ``("moments", serial, moments, seconds)`` — ``seconds`` is the time
    the worker was busy with it, barrier waits excluded.
    """
    shm: Optional[shared_memory.SharedMemory] = None
    view = None
    banks: Tuple = ()
    functions: Tuple[AggregateFunction, ...] = ()
    scratch = MomentScratch()
    clock = time.perf_counter
    try:
        while True:
            message = conn.recv()
            command = message[0]
            if command == "quit":
                break
            if command == "remap":
                _, name, rows, k, steps_cap = message
                view = None
                banks = ()
                if shm is not None:
                    shm.close()
                # NOTE: attaching registers the name with the resource
                # tracker again (bpo-38119), but parent and workers
                # share one tracker process, whose name set dedups the
                # double registration; the parent's unlink clears it.
                shm = shared_memory.SharedMemory(name=name)
                view, banks = _carve(shm, rows, k, steps_cap)
                # the parent keeps the *previous* segment linked until
                # every worker has confirmed the switch (attaching a
                # name that a faster remap already unlinked would fail)
                conn.send(("remapped", name))
            elif command == "functions":
                functions = message[1]
            elif command == "sleep":
                # the delay_ack fault: stall this worker's command
                # stream (a sleep past the pool timeout is how the
                # fault harness turns a worker into a detected hang)
                time.sleep(message[1])
            elif command == "apply":
                _, bank, segments = message
                busy = _apply_schedule(
                    view, functions, *banks[bank], segments,
                    index, workers, lambda: barrier.wait(timeout),
                )
                conn.send(("applied", bank, busy))
            elif command == "moments":
                # the barrier that ended the last schedule is the
                # consistent cut: every peer is past its last write.
                # Each column is reduced whole by exactly one worker,
                # so the bits do not depend on the worker count
                _, serial, columns = message
                started = clock()
                moments = column_moments(
                    view, columns[index::workers], scratch=scratch
                )
                busy = clock() - started
                # nobody starts the next schedule while a peer reads
                barrier.wait(timeout)
                conn.send(("moments", serial, moments, busy))
    except (EOFError, KeyboardInterrupt):
        # the parent closed the command pipe (shutdown) — exit quietly
        pass
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:
            pass
        barrier.abort()
    finally:
        view = None
        banks = ()
        if shm is not None:
            shm.close()


def _unlink(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def _stop_pool(procs, pipes, *, kill: bool = False) -> None:
    """Stop the worker processes and close the command pipes: by the
    ``quit`` handshake, or — ``kill``, for a pool that failed —
    SIGKILL. The survivor of a dead peer is parked at the segment
    barrier, where it never reads a ``quit``; and waking it from here
    (``Barrier.abort()``) deadlocks whenever the peer died *asleep* at
    that barrier: ``notify_all`` then waits, holding the barrier's
    lock, for a sleeper that will never wake."""
    for proc, pipe in zip(procs, pipes):
        if kill:
            proc.kill()
            continue
        try:
            pipe.send(("quit",))
        except OSError:
            pass
    for proc in procs:
        proc.join(timeout=5)
        if proc.is_alive():  # pragma: no cover - crash path
            proc.terminate()
            proc.join(timeout=5)
    for pipe in pipes:
        try:
            pipe.close()
        except OSError:
            pass
    procs.clear()
    pipes.clear()


def _shutdown(procs, pipes, shm_holder, parked) -> None:
    """Full teardown; module-level so ``weakref.finalize`` holds no
    reference back to the backend.

    Closing a segment unmaps it even while numpy views exist (numpy's
    ``buffer=`` interface holds no buffer export), so this must only
    run when no live view can still be read: the orderly path detaches
    the engine's matrix first (:meth:`ExecutionBackend.release_matrix`),
    and the GC path implies the engine is unreachable.
    """
    _stop_pool(procs, pipes)
    for shm in shm_holder + parked:
        _unlink(shm)
        shm.close()
    shm_holder.clear()
    parked.clear()


class ShardedBackend(ExecutionBackend):
    """Shared-memory multi-process execution — the million-node path."""

    name = "sharded"

    def __init__(
        self,
        workers: Optional[Union[int, str]] = None,
        *,
        on_failure: Optional[str] = None,
        max_respawns: Optional[int] = None,
    ):
        self._auto = workers == "auto"
        if workers is None or self._auto:
            workers = default_workers()
        if (
            isinstance(workers, bool)
            or not isinstance(workers, (int, np.integer))
            or workers < 1
        ):
            raise ConfigurationError(
                f"sharded worker count must be a positive integer or "
                f"'auto', got {workers!r}"
            )
        self.workers = int(workers)
        self._timeout = _barrier_timeout()
        if on_failure is None:
            env = os.environ.get("REPRO_SHARD_ON_FAILURE", "")
            on_failure = env.strip().lower() or "raise"
        if on_failure not in POOL_FAILURE_MODES:
            raise ConfigurationError(
                f"on_failure (REPRO_SHARD_ON_FAILURE) must be one of "
                f"{POOL_FAILURE_MODES}, got {on_failure!r}"
            )
        self._on_failure = on_failure
        if max_respawns is None:
            max_respawns = _DEFAULT_MAX_RESPAWNS
        self._max_respawns = check_count(max_respawns, "max_respawns", low=0)
        # where a lost pool went: respawn credits spent (the pool is
        # down until the next schedule forks another), degraded to
        # in-process execution, or failed with the error every later
        # call re-raises — the last two sticky for the backend's life;
        # then the event log behind health_report(), and the armed
        # fault injections with the apply-call counter they key on
        self._respawns_used = 0
        self._degraded = False
        self._failed: Optional[ShardPoolError] = None
        self._events: List[dict] = []
        self._faults: List[FaultSpec] = []
        self._apply_calls = 0
        # healing journal: a pre-publish snapshot of the value matrix
        # plus a heap copy of the scheduled steps, enough to replay
        # the one in-flight schedule inline after the pool died
        self._snapshot: Optional[np.ndarray] = None
        self._journal: Optional[Tuple] = None
        self._journal_pending = False
        #: parent-side wall-clock breakdown, accumulated across calls:
        #: ``plan`` = segmentation + bank writes + the healing journal
        #: + publish, ``apply`` = parent-applied work (the inline /
        #: degraded fallback), ``sync`` = time blocked on worker
        #: replies (acknowledgements and readings). ``bench_shard.py``
        #: archives these.
        self.phase_seconds = {"plan": 0.0, "apply": 0.0, "sync": 0.0}
        #: worker-side busy seconds, one total per worker, as the
        #: workers report them with each reply: ``apply`` = applying
        #: schedules, ``moments`` = deferred readings
        self.worker_seconds: Dict[str, List[float]] = {
            "apply": [0.0] * self.workers,
            "moments": [0.0] * self.workers,
        }
        #: full value-matrix copies performed by adopt/grow hand-offs —
        #: the churn-growth regression test pins this to exactly one
        #: copy per growth
        self.adopt_copies = 0
        # fork only where it is actually safe: macOS has fork available
        # but CPython switched its default to spawn for a reason (forked
        # children inherit Objective-C/Accelerate state and can abort in
        # the first BLAS call). The worker entry point is module-level
        # and all state travels over the pipes, so spawn works anywhere.
        start_method = (
            "fork"
            if sys.platform.startswith("linux")
            and "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self._ctx = multiprocessing.get_context(start_method)
        self._procs: List = []
        self._pipes: List = []
        self._barrier = None
        # current segment (held in a one-element list so the finalizer
        # can see replacements) + parked segments: the most recent
        # superseded segment (and any failure-orphaned one) whose
        # parent-side mapping is kept open because a stale numpy view
        # (an old engine matrix mid-remap, a matrix read after a pool
        # failure) would otherwise dangle — numpy's ``buffer=`` holds
        # no export, so closing unmaps unconditionally. Names are
        # unlinked eagerly; each remap releases the generation before
        # last (no older view can be live once the engine re-adopted),
        # so at most previous + current stay mapped (≈ 2x the live
        # segment), freed entirely at close()/GC.
        self._shm_holder: List[shared_memory.SharedMemory] = []
        self._parked: List[shared_memory.SharedMemory] = []
        self._view: Optional[np.ndarray] = None
        self._banks: Tuple = ()
        self._steps_cap = 0
        # the pool planner's window, set with every mapping (_map)
        self._window = 0
        self._inline = False
        self._vector: Optional[VectorizedBackend] = None
        self._sent_functions: Optional[Tuple] = None
        # pipeline state: which bank the next schedule plans into,
        # and what the workers still owe a reply for, in publish order
        # (at most one schedule per bank, plus the readings queued
        # behind them) — every worker replies in that order, so the
        # head of the queue is always the next message on every pipe
        self._next_bank = 0
        self._inflight: Deque[_InFlight] = deque()
        self._readings_taken = 0
        # planner scratch (parent-side greedy segmentation)
        self._scratch = GreedyScratch()
        self._finalizer = weakref.finalize(
            self, _shutdown,
            self._procs, self._pipes, self._shm_holder, self._parked,
        )

    # -- lifecycle --------------------------------------------------------

    @property
    def active_workers(self) -> int:
        """Live worker processes (0 before first use / after close,
        and always 0 in the ``auto`` inline fallback)."""
        return sum(1 for proc in self._procs if proc.is_alive())

    @property
    def inline(self) -> bool:
        """Whether the ``auto`` small-matrix fallback is active (the
        adopted matrix stayed in-process; no pool, no segment)."""
        return self._inline

    @property
    def on_failure(self) -> str:
        """The pool failure policy (see :data:`POOL_FAILURE_MODES`)."""
        return self._on_failure

    @property
    def degraded(self) -> bool:
        """Whether the pool was lost and execution fell back to the
        in-process vectorized path (sticky for the backend's life)."""
        return self._degraded

    def inject_faults(self, specs: Sequence[FaultSpec]) -> None:
        """Arm the backend with fault injections (the test harness).

        Each spec fires once, right before the apply call its
        ``at_call`` names publishes its schedule; see
        :class:`~repro.kernel.faults.FaultSpec`. Only backend-side
        kinds are accepted (``parent_kill`` is orchestrated by
        :func:`~repro.kernel.faults.spawn_and_kill`)."""
        armed = []
        for spec in specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(
                    f"inject_faults takes FaultSpec instances, got "
                    f"{type(spec).__name__}"
                )
            if spec.kind not in BACKEND_FAULT_KINDS:
                raise ConfigurationError(
                    f"fault kind {spec.kind!r} cannot be injected into "
                    f"a backend; use the external harness "
                    f"(spawn_and_kill) instead"
                )
            if spec.kind in ("kill_worker", "delay_ack") and (
                spec.worker >= self.workers
            ):
                raise ConfigurationError(
                    f"fault targets worker {spec.worker} but the pool "
                    f"has {self.workers} workers"
                )
            armed.append(spec)
        self._faults.extend(armed)

    def health_report(self) -> PoolHealthReport:
        """The pool's failure/recovery history (empty events for an
        undisturbed run). Survives :meth:`close`, so it can be read
        after the engine released the backend."""
        return PoolHealthReport(
            on_failure=self._on_failure,
            workers=self.workers,
            respawns=self._respawns_used,
            degraded=self._degraded,
            events=tuple(dict(event) for event in self._events),
        )

    def release_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """A heap copy of the shared view, safe to read after
        :meth:`close` (see the base-class contract). Drains any
        in-flight schedules first so the copy is the final state."""
        if matrix is self._view:
            self.sync()
            return matrix.copy()
        return matrix

    def close(self) -> None:
        """Shut the worker pool down and release the shared segments.

        Callers reading the matrix afterwards must hold the detached
        copy from :meth:`release_matrix` (engines do this in
        ``GossipEngine.close``), not a view into the segment.
        """
        try:
            self.sync()
        except ShardPoolError:
            # the pool died with work in flight; _recover already
            # parked the segments — proceed with the teardown below
            pass
        self._forget_pool()
        self._view = None
        self._banks = ()
        self._steps_cap = 0
        self._inline = False
        # the healing journal dies with the run; where a lost pool
        # went and the event log survive close() so health_report()
        # still tells the story after the engine released the backend
        self._snapshot = None
        self._journal = None
        self._faults = []
        if self._finalizer.alive:
            self._finalizer()
        self._finalizer = weakref.finalize(
            self, _shutdown,
            self._procs, self._pipes, self._shm_holder, self._parked,
        )

    def _forget_pool(self) -> None:
        """What goes with a pool, however it went: its barrier, the
        functions it was sent, what it still owed and the journal."""
        self._barrier = None
        self._sent_functions = None
        self._inflight.clear()
        self._next_bank = 0
        self._journal_pending = False

    def _first_dead_worker(self) -> Optional[int]:
        for index, proc in enumerate(self._procs):
            if not proc.is_alive():
                return index
        return None

    def _inline_eligible(self, rows: int) -> bool:
        """Whether ``auto`` should apply in-process for a matrix of
        ``rows``: below the inline threshold the pool cannot amortize
        its IPC, and with a single schedulable core (``auto`` resolved
        to one worker) it cannot win at *any* size — there is no
        second core to overlap with, so the pool would only add IPC
        and scheduling overhead on top of the same serial work."""
        return self._auto and (rows < SHARD_INLINE or self.workers == 1)

    def _ensure_pool(self) -> None:
        """*No pool* → *live*: fork the workers, at first use or at
        the first schedule after a pool was lost. They have no segment
        yet (:meth:`_attach`)."""
        if self._procs:
            return
        # make sure the resource-tracker process exists *before* the
        # workers fork, so they inherit its pipe and share it: a worker
        # that forks tracker-less would lazily spawn a private tracker
        # on its first segment attach and warn about "leaked" segments
        # it does not own at exit
        try:  # pragma: no cover - interpreter plumbing
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass
        # the workers order segments among themselves; the parent
        # stays out of the execution path entirely
        self._barrier = self._ctx.Barrier(self.workers)
        for index in range(self.workers):
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self._barrier, index, self.workers,
                      self._timeout),
                daemon=True,
                name=f"repro-shard-{index}",
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._pipes.append(parent_conn)

    def _attach(self) -> None:
        """Switch every worker to the current segment, and wait until
        each confirms it attached: unlinking the previous name before
        a slow worker processed an *earlier* remap command would make
        that attach fail."""
        rows, k = self._view.shape
        name = self._shm_holder[0].name
        self._broadcast(("remap", name, rows, k, self._steps_cap))
        self._await_acks("remapped", "remap", payload=name)

    def _broadcast(self, message) -> None:
        try:
            for index, pipe in enumerate(self._pipes):
                pipe.send(message)
        except OSError as error:
            # a dead worker (OOM kill, crash) broke its pipe — its
            # own, nobody else holds the far end; is_alive() may not
            # know yet (a killed process's descriptors are closed
            # before it can be waited for)
            raise _PoolFailure("command", index,
                               f"pipe broke ({error})") from None
        except (pickle.PicklingError, AttributeError, TypeError,
                ValueError) as error:
            raise SimulationError(
                f"sharded backend could not serialize a command "
                f"({error}); unpicklable aggregate functions are the "
                f"usual cause — use module-level AggregateFunction "
                f"classes with the sharded backend"
            ) from error

    def _pool_error(self) -> str:
        reports = []
        for index, pipe in enumerate(self._pipes):
            try:
                while pipe.poll():
                    message = pipe.recv()
                    if message and message[0] == "error":
                        reports.append(
                            f"worker {index}:\n{message[1]}"
                        )
            except (EOFError, OSError):
                reports.append(f"worker {index}: exited")
        return "\n".join(reports) or "no worker diagnostics available"

    def _poll_with_liveness(self, index: int, pipe) -> bool:
        """Poll worker ``index``'s pipe in growing slices, checking
        the liveness of the *whole pool* between slices: a SIGKILLed
        worker is detected in tens of milliseconds instead of blocking
        the full pool timeout (recovery latency is a benchmarked
        metric, and the fail-fast ``raise`` mode reports just as
        quickly). Every worker matters, not just the polled one — a
        survivor of a dead peer never replies either, it sits in the
        segment barrier waiting for the peer."""
        deadline = time.perf_counter() + self._timeout
        slice_seconds = 0.01
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return pipe.poll(0)
            if pipe.poll(min(slice_seconds, remaining)):
                return True
            dead = self._first_dead_worker()
            if dead is not None:
                # one grace poll when the polled worker itself died:
                # it may have sent its reply (or an error report) in
                # its dying moments
                return pipe.poll(0.25 if dead == index else 0)
            slice_seconds = min(slice_seconds * 2, 0.5)

    def _await_acks(self, expected: str, phase: str,
                    payload=None) -> List[Tuple]:
        """One confirmation message from every worker, in pool order;
        returns them."""
        replies = []
        for index, pipe in enumerate(self._pipes):
            failure = None
            try:
                if self._poll_with_liveness(index, pipe):
                    message = pipe.recv()
                    if (
                        message
                        and message[0] == expected
                        and (payload is None or message[1] == payload)
                    ):
                        replies.append(message)
                        continue
                    failure = (
                        message[1] if message and message[0] == "error"
                        else f"unexpected reply {message!r}"
                    )
                else:
                    dead = self._first_dead_worker()
                    if dead is None:
                        failure = f"no {expected!r} reply within timeout"
                    else:
                        # blame the worker that died, not the survivor
                        # whose pipe happened to be polled first
                        index = dead
                        failure = f"died before its {expected!r} reply"
            except (EOFError, OSError):
                failure = "exited"
            raise _PoolFailure(phase, index, failure)
        return replies

    def _drain_oldest(self) -> None:
        """Receive every worker's reply to the oldest in-flight
        operation: the ``applied`` acknowledgements of a schedule, or
        the per-worker parts of a reading, which are put together in
        the :class:`_Reading` its ticket holds."""
        expected, key, reading = self._inflight[0]
        phase = "apply" if reading is None else "moments"
        replies = self._await_acks(expected, phase, payload=key)
        self._inflight.popleft()
        seconds = self.worker_seconds[phase]
        for index, reply in enumerate(replies):
            seconds[index] += reply[-1]
        if reading is not None:
            moments: List = [None] * len(reading.columns)
            for index, reply in enumerate(replies):
                moments[index::self.workers] = reply[2]
            reading.moments = moments
        elif not any(entry[2] is None for entry in self._inflight):
            # everything published is applied: the healing journal has
            # nothing left to replay (healing mode keeps at most one
            # schedule in flight, so this fires after every drain)
            self._journal_pending = False

    def _drain_while(self, waiting: Callable[[], bool]) -> None:
        """Collect replies, oldest first, while ``waiting()`` — timed
        as ``sync``. A pool death detected here goes to
        :meth:`_recover`, which leaves nothing in flight (or raises)."""
        started = time.perf_counter()
        try:
            while self._inflight and waiting():
                try:
                    self._drain_oldest()
                except _PoolFailure as failure:
                    self._recover(failure)
        finally:
            self.phase_seconds["sync"] += time.perf_counter() - started

    def sync(self) -> None:
        """Block until every published schedule has been applied and
        every deferred reading taken — the pool is idle and the matrix
        is the caller's (the engine calls this before matrix reads and
        engine-side writes; a no-op for inline mode and idle pools).
        Under the ``respawn`` policy a pool death detected here is
        recovered in place: the journaled schedule is replayed
        inline, so the matrix the caller is about to read is exactly
        the state the dead pool was asked to produce."""
        if self._inflight:
            self._drain_while(lambda: True)

    def defer_moments(
        self, matrix: np.ndarray, columns: Sequence[int]
    ) -> Optional[Callable[[], List[Moments]]]:
        """Queue a ``moments`` command behind the published schedules:
        worker ``w`` reduces ``columns[w::workers]`` of the shared
        matrix once the last schedule's closing barrier has passed,
        the workers meet at the barrier again so that none starts the
        next schedule while a peer still reads, and each replies on its
        pipe. Offered only for the engine's adopted matrix on a live
        pool; inline, or with the pool lost (for good or until the
        next schedule), nothing is in flight to read behind."""
        if matrix is not self._view:
            return None
        self._drain_while(lambda: len(self._inflight) > _MAX_UNCOLLECTED)
        if not self._procs:
            return None
        reading = _Reading(tuple(columns))
        serial = self._readings_taken
        try:
            self._broadcast(("moments", serial, reading.columns))
        except _PoolFailure as failure:
            # recovery leaves the matrix as the lost pool was asked to
            # leave it and nothing in flight: the caller reads it
            self._recover(failure)
            return None
        self._readings_taken = serial + 1
        self._inflight.append(("moments", serial, reading))
        return lambda: self._collect(reading)

    def _collect(self, reading: _Reading) -> List[Moments]:
        """Resolve a ticket: block until the reading is in."""
        self._drain_while(lambda: reading.moments is None)
        if reading.moments is None:
            # lost with a pool that failed for good: healing takes
            # every reading its pool still owed (_recover)
            raise self._failed
        return reading.moments

    # -- self-healing -----------------------------------------------------

    def _journal_schedule(self, bank: int, segments: List[Segment],
                          functions: Tuple) -> None:
        """Snapshot the value matrix and copy the scheduled steps to
        the heap before the schedule is published: if the pool dies
        mid-apply, restore + inline replay reproduces the post-apply
        state bit for bit. The copies are taken *before* any fault can
        corrupt the shared bank, so replay is always from clean state.
        """
        rows, k = self._view.shape
        if self._snapshot is None or self._snapshot.shape != (rows, k):
            self._snapshot = np.empty((rows, k), dtype=np.float64)
        np.copyto(self._snapshot, self._view)
        step_i, step_j = self._banks[bank]
        cursor = segments[-1][1] if segments else 0
        self._journal = (
            functions,
            step_i[:cursor].copy(),
            step_j[:cursor].copy(),
            list(segments),
        )
        self._journal_pending = True

    def _replay_journal(self) -> None:
        """Restore the pre-publish snapshot and apply the journaled
        schedule inline, in schedule order — the exact work the dead
        pool owed, with the same segmentation, so the result is
        bitwise what the workers would have produced."""
        np.copyto(self._view, self._snapshot)
        _apply_schedule(self._view, *self._journal)

    def _recover(self, failure: _PoolFailure) -> bool:
        """*Live* → *lost*, the one way through a pool failure and
        the only teardown of a failed pool: kill and join the workers
        (:func:`_stop_pool` says why not ``quit`` or an abort), forget
        what was in flight, then do what the policy says — fail for
        good, or heal (the module docstring's *Failure* has both).
        Returns whether a journaled schedule was replayed — ``True``
        means the failed apply call's work is already complete."""
        started = time.perf_counter()
        detail = self._pool_error()
        _stop_pool(self._procs, self._pipes, kill=True)
        lost = [entry[2] for entry in self._inflight if entry[2] is not None]
        replayed = self._journal_pending
        self._forget_pool()
        if self._on_failure == "raise":
            # the caller's engine may still read its matrix view
            # before (or instead of) an orderly close, so every
            # mapping stays open, parked — but no name may survive: a
            # failure during a remap round-trip parks the previous
            # generation *before* its name is unlinked, and close()/GC
            # only unlink what is still in the holder (_unlink is
            # idempotent: re-sweeping unlinked parks is free)
            self._parked.extend(self._shm_holder)
            self._shm_holder.clear()
            for shm in self._parked:
                _unlink(shm)
            self._failed = ShardPoolError(
                failure.phase, worker=failure.worker,
                detail=f"worker {failure.worker}: {failure.failure}\n{detail}",
            )
            raise self._failed from None
        if replayed:
            self._replay_journal()
        for reading in lost:
            # a healing pool publishes no schedule past an unresolved
            # reading (_apply syncs first) and the engine writes nothing
            # before a sync, so after the replay the matrix is the
            # state every lost reading was asked of
            reading.moments = column_moments(self._view, reading.columns)
        if self._respawns_used < self._max_respawns:
            self._respawns_used += 1
            action = "respawn"
        else:
            # budget spent: the rest of the run executes in-process on
            # the same memory — slower, never wrong, always finishes
            self._degraded = True
            action = "inline"
        self._events.append({
            "phase": failure.phase,
            "worker": failure.worker,
            "failure": failure.failure,
            "detail": detail[:2000],
            "replayed": replayed,
            "action": action,
            "seconds": time.perf_counter() - started,
        })
        return replayed

    def _fire_faults(self, bank: int, call: int) -> None:
        """Fire armed fault injections keyed to this apply call.

        Runs after the schedule is journaled and before it is
        published, so every fault hits a pool with a clean replay
        journal — exactly the window a real mid-apply crash lands in.
        """
        if not self._faults:
            return
        remaining = []
        for spec in self._faults:
            if spec.at_call != call:
                remaining.append(spec)
                continue
            if spec.kind == "kill_worker":
                proc = self._procs[spec.worker]
                if proc.pid is not None and proc.is_alive():
                    os.kill(proc.pid, signal.SIGKILL)
            elif spec.kind == "delay_ack":
                try:
                    self._pipes[spec.worker].send(("sleep", spec.delay))
                except OSError:  # pragma: no cover - already dead
                    pass
            elif spec.kind == "corrupt_bank":
                # out-of-range rows: the first worker to touch the
                # segment IndexErrors, reports, and aborts the pool
                step_i, _ = self._banks[bank]
                rows = self._view.shape[0]
                step_i[:max(1, min(8, self._steps_cap))] = rows * 7 + 3
        self._faults = remaining

    # -- shared-memory mapping --------------------------------------------

    def _map(self, rows: int, k: int) -> None:
        """(Re)create the shared segment and switch the pool over.

        In a degraded (pool-lost) backend the segment is still mapped
        — it is plain memory to the inline path — but no pool is
        spawned and no remap round-trip happens."""
        self.sync()
        if self._failed is not None:
            raise self._failed
        if not self._degraded:
            # fork before the segment is mapped: the children then
            # carry no mapping of it but the one they attach
            self._ensure_pool()
        # one step per row: no engine path emits more per call
        steps_cap = max(rows, 1)
        nbytes = rows * k * 8 + steps_cap * 16
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        view, banks = _carve(shm, rows, k, steps_cap)
        previous = list(self._shm_holder)
        self._shm_holder.clear()
        self._shm_holder.append(shm)
        self._view, self._banks = view, banks
        self._steps_cap = steps_cap
        # the planner's window follows the rows (SHARD_CHUNK says why)
        self._window = min(SHARD_CHUNK, max(PAIR_CHUNK, rows // 8))
        # park the previous generation *before* the remap round-trip so
        # a failure mid-remap leaves it reachable for close()/_shutdown
        # (its name is still linked at this point; _unlink is tolerant)
        older = list(self._parked)
        self._parked.extend(previous)
        try:
            if not self._degraded:
                try:
                    self._attach()
                except _PoolFailure as failure:
                    # healed, the switch-over is complete either way:
                    # the next schedule's pool attaches the current
                    # segment itself, and to in-process execution the
                    # fresh mapping is plain memory
                    self._recover(failure)
        finally:
            # previous-generation *names* must never outlive the
            # switch-over, success or failure: their parent mappings
            # stay parked for stale views, but a leaked name would
            # pin the segment in /dev/shm forever (_unlink tolerates
            # a failed pool's sweep having been there already)
            for old in previous:
                _unlink(old)
        # grandparent generations can go: the engine re-adopted the
        # *previous* segment's replacement synchronously, so no live
        # view of anything older can remain (keeping them all would
        # grow linearly with epoch instance-count rebuilds, which remap
        # on nearly every epoch of the Figure 4 workload). The previous
        # segment keeps its parent-side mapping — an engine matrix may
        # still view it until re-adoption lands — but loses its name
        # (workers closed their mappings on remap).
        for stale in older:
            stale.close()
        self._parked[:] = previous

    def adopt_matrix(self, matrix: np.ndarray) -> np.ndarray:
        source = np.ascontiguousarray(matrix, dtype=np.float64)
        rows, k = source.shape
        if self._inline_eligible(rows) and not self._procs:
            # degenerate case: stay in-process (no segment, no pool);
            # a later growth past the threshold promotes to the pool
            self._inline = True
            return source
        self._inline = False
        self._map(rows, k)
        self._view[:] = source
        self.adopt_copies += 1
        return self._view

    def grow_matrix(self, matrix: np.ndarray, rows: int) -> np.ndarray:
        """Single-copy capacity growth: map the larger segment, copy
        the old (shared or inline) matrix straight into it. The old
        segment is parked by :meth:`_map`, so its view stays readable
        for the copy; the grown tail is the fresh segment's zero
        pages — no zero-fill pass, no intermediate heap array."""
        k = matrix.shape[1]
        if self._inline and self._inline_eligible(rows):
            # still degenerate: grow on the heap (one copy)
            self.adopt_copies += 1
            return super().grow_matrix(matrix, rows)
        old_rows = min(matrix.shape[0], rows)
        self._map(rows, k)
        self._view[:old_rows] = matrix[:old_rows]
        self.adopt_copies += 1
        self._inline = False
        return self._view

    def allocate_matrix(self, rows: int, k: int) -> np.ndarray:
        """Zero-copy epoch rebuild: a fresh segment's pages are
        zero-filled by the OS, so the rebuilt matrix costs no copy and
        no zero-fill pass at all."""
        if self._inline and self._inline_eligible(rows):
            return super().allocate_matrix(rows, k)
        self._map(rows, k)
        self._inline = False
        return self._view

    def _ensure_functions(
        self, functions: Sequence[AggregateFunction]
    ) -> None:
        if functions is self._sent_functions:
            return
        payload = tuple(functions)
        self._broadcast(("functions", payload))
        self._sent_functions = functions

    def _ensure_vector(self) -> VectorizedBackend:
        """The in-process backend behind ``auto`` below
        :data:`SHARD_INLINE`, a degraded pool and every view merge."""
        if self._vector is None:
            self._vector = VectorizedBackend()
        return self._vector

    def apply_view_exchanges(
        self,
        views: np.ndarray,
        exch_i: np.ndarray,
        exch_j: np.ndarray,
    ) -> None:
        """Newscast view merges, applied parent-side.

        The view matrix is engine-hosted state like the alive mask —
        workers never draw randomness and never see the overlay, and
        that does not change when the overlay is gossip-maintained.
        Merging in the parent shares no storage with the shared value
        segment, so it is ``sync()``-safe and overlaps a pipelined
        value cycle still in flight on the workers for free. The
        greedy-segmented vectorized path keeps the matrix
        bitwise-identical across backends and worker counts; it plans
        with the vectorized backend's window and
        :data:`~.base.VIEW_TAIL`, never the pool's."""
        self._ensure_vector().apply_view_exchanges(views, exch_i, exch_j)

    # -- the backend contract ---------------------------------------------

    def apply_exchanges(
        self,
        matrix: np.ndarray,
        functions: Sequence[AggregateFunction],
        exch_i: np.ndarray,
        exch_j: np.ndarray,
    ) -> None:
        self._apply(matrix, functions, exch_i, exch_j, None)

    def apply_pairs(
        self,
        matrix: np.ndarray,
        functions: Sequence[AggregateFunction],
        pairs_i: np.ndarray,
        pairs_j: np.ndarray,
        *,
        plan: Optional[Tuple[Tuple[int, int, bool], ...]] = None,
    ) -> None:
        self._apply(matrix, functions, pairs_i, pairs_j, plan)

    def _apply(self, matrix, functions, raw_i, raw_j, plan) -> None:
        """The one entry both step kinds share: an exchange sequence
        is a pair sequence with no plan. Three routes: in-process
        (``auto`` below its threshold, or a pool lost for good), or
        the pool, over the segment ``matrix`` was adopted into."""

        def fallback() -> None:
            started = time.perf_counter()
            self._ensure_vector().apply_pairs(
                matrix, functions, raw_i, raw_j, plan=plan
            )
            self.phase_seconds["apply"] += time.perf_counter() - started

        if self._failed is not None:
            raise self._failed
        if self._inline or self._degraded:
            fallback()
            return
        if matrix is not self._view:
            # the workers apply to the shared segment and nothing else:
            # any other array would be left untouched, silently
            raise SimulationError(
                "the sharded backend applies to the matrix it adopted "
                "(adopt_matrix / grow_matrix / allocate_matrix return "
                "it); hand the matrix over first"
            )
        pending_i = np.ascontiguousarray(raw_i, dtype=np.int32)
        pending_j = np.ascontiguousarray(raw_j, dtype=np.int32)
        m = len(pending_i)
        if m == 0:
            return
        if m > self._steps_cap:  # pragma: no cover - engine sizes it
            # remapping here would desync the engine (its matrix still
            # views the old segment and only the engine can re-adopt);
            # every engine path emits <= rows steps per call, so this
            # is a contract bug
            raise SimulationError(
                f"sharded backend got {m} steps for a step buffer of "
                f"{self._steps_cap}: one call applies at most one "
                f"step per row of the adopted matrix"
            )
        healing = self._on_failure != "raise"
        bank = self._next_bank
        # two-phase bank handoff, phase one: this bank's previous
        # schedule must be acknowledged before its buffers are reused
        # (phase two is the publish below). The *other* bank may still
        # be in flight — that is the overlap — except under a healing
        # policy, which keeps at most one schedule in flight: the
        # journal then describes exactly the work a dead pool owes
        self._drain_while(
            lambda: healing or ("applied", bank, None) in self._inflight
        )
        call_index = self._apply_calls
        self._apply_calls += 1
        # a pool lost here (or in the drain above) is recovered in
        # place: with a credit left the loop comes round again and
        # forks its successor, without one it ends in-process
        while not self._degraded:
            planned = time.perf_counter()
            try:
                if not self._procs:
                    self._ensure_pool()
                    self._attach()
                self._ensure_functions(functions)
                segments = self._schedule(pending_i, pending_j, plan, bank)
                if healing:
                    self._journal_schedule(bank, segments, tuple(functions))
                self._fire_faults(bank, call_index)
                self._broadcast(("apply", bank, segments))
            except _PoolFailure as failure:
                if self._recover(failure):
                    # the journaled schedule was replayed inline:
                    # this call's work is complete
                    return
                continue  # lost before this schedule was journaled
            self._inflight.append(("applied", bank, None))
            self._next_bank = bank ^ 1
            self.phase_seconds["plan"] += time.perf_counter() - planned
            return
        fallback()

    # -- the planner ------------------------------------------------------

    def _schedule(
        self,
        pending_i: np.ndarray,
        pending_j: np.ndarray,
        plan: Optional[Tuple[Tuple[int, int, bool], ...]],
        bank: int,
    ) -> List[Segment]:
        """Rewrite the step sequence into execution order in ``bank``'s
        shared step buffers and describe it as ``(start, end, kind)``
        segments.

        The order is exactly the one the in-process greedy execution
        applies (:func:`~.base.iter_greedy_segments`), so the result is
        bitwise-equal to the sequential oracle; only *who* applies each
        stretch, and *when*, differs.
        """
        out_i, out_j = self._banks[bank]
        segments: List[Segment] = []
        cursor = 0
        if plan is None:
            plan = ((0, len(pending_i), False),)
        for start, end, conflict_free in plan:
            if end <= start:
                continue
            if conflict_free:
                size = end - start
                out_i[cursor:cursor + size] = pending_i[start:end]
                out_j[cursor:cursor + size] = pending_j[start:end]
                segments.append((cursor, cursor + size, _BATCH))
                cursor += size
                continue
            for kind, chunk_i, chunk_j in iter_greedy_segments(
                pending_i[start:end], pending_j[start:end],
                self._scratch, self._view.shape[0], self._window,
                SHARD_TAIL,
            ):
                size = len(chunk_i)
                out_i[cursor:cursor + size] = chunk_i
                out_j[cursor:cursor + size] = chunk_j
                segments.append((cursor, cursor + size, kind))
                cursor += size
        return segments

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardedBackend(workers={self.workers})"
