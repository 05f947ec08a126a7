"""Declarative node-lifecycle layer: churn and epoch restarts.

The paper's robustness story (§4, Figure 4) rests on two mechanisms
that change *who* participates over time:

* **churn** — nodes join and crash while the protocol runs; departing
  nodes take their mass with them, joiners "behave as if they had 0
  as initial value" (§4);
* **epochs** — the protocol restarts at every epoch boundary, which
  makes aggregation adaptive: each epoch converges to the network
  state at its own start, and mid-epoch joiners wait for the next.

Both are *declared* here as specs on a
:class:`~repro.kernel.scenario.Scenario` and *executed* here by the
:class:`NodeLifecycle` bound to its engine, as alive-mask growth/shrink
plus value-matrix row recycling — no node objects are ever rebuilt,
which is why Figure 4 runs at N = 100 000 in seconds. Capacity grows
through the backend's ``grow_matrix`` (an epoch instance-count change
rebuilds through ``allocate_matrix``), one copy per geometric growth,
and every draw comes from the engine RNG, so all backends stay
bitwise-equivalent under any failure model declared here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from ..core.aggregates import MeanAggregate
from ..errors import CheckpointError, ConfigurationError, SimulationError
from ..fields import check_count, check_real, declare, validate_fields
from ..rng import SeedLike, make_rng
from .checkpoint import unpickle_payload
from .messages import fresh_slots

@dataclass(frozen=True)
class ChurnStep:
    """The churn applied before one cycle: ``joins`` new nodes enter,
    ``leaves`` random existing nodes depart."""

    joins: int
    leaves: int


def _counts(values, name: str) -> np.ndarray:
    """``values`` as 1-D non-negative int64 per-cycle counts."""
    counts = np.asarray(values)
    if counts.ndim != 1:
        raise ConfigurationError(
            f"ChurnTrace {name} must be 1-D per-cycle counts"
        )
    whole = counts.dtype.kind in "iub" or (
        counts.dtype.kind == "f"
        and bool(np.all(np.isfinite(counts) & (np.floor(counts) == counts)))
    )
    if not whole:
        raise ConfigurationError(
            f"ChurnTrace {name} must be whole numbers of nodes"
        )
    if len(counts) and counts.min() < 0:
        raise ConfigurationError("ChurnTrace counts must be non-negative")
    return counts.astype(np.int64)


class ChurnTrace:
    """Churn as data: one join count and one leave count per cycle.

    Figure 4 describes its churn exactly this way (the size swings
    between 90 000 and 110 000 day/night while 100 nodes leave and 100
    join every cycle), and so does any session log. Pass it to
    ``Scenario(churn=...)``: the lifecycle layer asks :meth:`step` once
    per cycle, draws the departures uniformly among alive nodes and
    admits joiners with zeros in every instance (§4). Past the end of
    the trace the network is quiescent, and a step never removes the
    last node.

    Generators: :meth:`constant` (steady-state turnover),
    :meth:`diurnal` (Figure 4's day/night size wave),
    :meth:`from_events` (event timestamps), :meth:`from_sessions`
    (arrival cycle + session length per node), :meth:`sessions`
    (Poisson arrivals with geometric session lengths) and
    :meth:`flash_crowd` (a mass join burst whose members leave as
    their sessions expire).
    """

    def __init__(self, joins, leaves):
        joins = _counts(joins, "joins")
        leaves = _counts(leaves, "leaves")
        if len(joins) != len(leaves):
            raise ConfigurationError(
                f"ChurnTrace joins ({len(joins)}) and leaves "
                f"({len(leaves)}) must cover the same cycles"
            )
        self._joins = joins
        self._leaves = leaves

    @property
    def cycles(self) -> int:
        """Cycles covered by the trace (quiescent afterwards)."""
        return len(self._joins)

    @property
    def joins(self) -> np.ndarray:
        return self._joins.copy()

    @property
    def leaves(self) -> np.ndarray:
        return self._leaves.copy()

    def step(self, cycle: int, current_size: int) -> ChurnStep:
        """Churn to apply before ``cycle`` when the network currently
        has ``current_size`` nodes."""
        if cycle < 0 or cycle >= len(self._joins):
            return ChurnStep(0, 0)
        leaves = min(int(self._leaves[cycle]), max(current_size - 1, 0))
        return ChurnStep(int(self._joins[cycle]), leaves)

    # -- generators -------------------------------------------------------

    @classmethod
    def constant(cls, cycles: int, joins: int, leaves: int) -> "ChurnTrace":
        """Steady-state turnover: ``joins`` nodes enter and ``leaves``
        depart in each of the first ``cycles`` cycles."""
        check_count(cycles, "cycles", low=0)
        return cls([joins] * cycles, [leaves] * cycles)

    @classmethod
    def from_events(cls, join_cycles, leave_cycles, *,
                    cycles: Optional[int] = None) -> "ChurnTrace":
        """From raw event timestamps: one entry per join/leave event,
        in cycles (fractions are floored). Events at or past ``cycles``
        (default: just past the last event) are dropped — a session
        that outlives the trace simply never leaves."""
        if cycles is not None:
            check_count(cycles, "cycles", low=0)
        join_cycles = np.floor(np.asarray(join_cycles, dtype=np.float64))
        leave_cycles = np.floor(np.asarray(leave_cycles, dtype=np.float64))
        if cycles is None:
            last = np.concatenate([[-1.0], join_cycles, leave_cycles]).max()
            cycles = int(last) + 1 if last >= 0 else 0
        joins = np.zeros(cycles, dtype=np.int64)
        leaves = np.zeros(cycles, dtype=np.int64)
        for events, counts in ((join_cycles, joins), (leave_cycles, leaves)):
            kept = events[(events >= 0) & (events < cycles)].astype(np.int64)
            if len(kept):
                counts += np.bincount(kept, minlength=cycles)
        return cls(joins, leaves)

    @classmethod
    def from_sessions(cls, arrivals, durations, *,
                      cycles: Optional[int] = None) -> "ChurnTrace":
        """From per-node sessions: node ``i`` joins at ``arrivals[i]``
        and leaves ``durations[i]`` cycles later."""
        arrivals = np.asarray(arrivals, dtype=np.float64)
        durations = np.asarray(durations, dtype=np.float64)
        if arrivals.shape != durations.shape:
            raise ConfigurationError(
                "from_sessions needs one duration per arrival"
            )
        if len(durations) and durations.min() < 0:
            raise ConfigurationError("session durations must be >= 0")
        return cls.from_events(
            arrivals, arrivals + durations, cycles=cycles
        )

    @classmethod
    def sessions(cls, cycles: int, *, arrivals_per_cycle: float,
                 mean_session: float,
                 seed: SeedLike = None) -> "ChurnTrace":
        """A sampled session workload: Poisson(``arrivals_per_cycle``)
        joins per cycle, each session's length geometric with mean
        ``mean_session`` — the classic heavy-turnover P2P model. The
        sampling happens *here*, once; the resulting trace replays
        deterministically regardless of scenario seed or backend."""
        check_count(cycles, "cycles", low=1)
        check_real(arrivals_per_cycle, "arrivals_per_cycle", low=0)
        check_real(mean_session, "mean_session", above=0)
        rng = make_rng(seed)
        counts = rng.poisson(arrivals_per_cycle, size=cycles)
        arrivals = np.repeat(np.arange(cycles, dtype=np.float64), counts)
        durations = rng.geometric(
            min(1.0 / mean_session, 1.0), size=len(arrivals)
        ).astype(np.float64)
        return cls.from_sessions(arrivals, durations, cycles=cycles)

    @classmethod
    def flash_crowd(cls, cycles: int, *, at: int, size: int,
                    mean_stay: float,
                    seed: SeedLike = None) -> "ChurnTrace":
        """A flash crowd: ``size`` nodes join together at cycle ``at``
        and each stays a geometric number of cycles with mean
        ``mean_stay``, so the crowd decays exponentially after the
        burst. Stack with a base trace via :meth:`overlay`."""
        if not 0 <= at < cycles:
            raise ConfigurationError(
                f"flash-crowd cycle {at} outside trace of {cycles} cycles"
            )
        check_count(size, "size", low=0)
        check_real(mean_stay, "mean_stay", above=0)
        rng = make_rng(seed)
        arrivals = np.full(size, float(at))
        durations = rng.geometric(
            min(1.0 / mean_stay, 1.0), size=size
        ).astype(np.float64)
        return cls.from_sessions(arrivals, durations, cycles=cycles)

    @classmethod
    def diurnal(cls, n: int, cycles: int, *, period: int,
                amplitude: int, fluctuation: int = 0,
                seed: SeedLike = None) -> "ChurnTrace":
        """A day/night wave as data: the network size follows
        ``n + amplitude * sin(2π cycle / period)`` with ``fluctuation``
        extra paired join/leave events per cycle (background turnover
        that keeps membership churning even at constant size) — Figure
        4's scenario. ``seed`` is accepted for signature parity with the
        sampled generators; the wave draws nothing.
        """
        check_count(cycles, "cycles", low=1)
        check_count(period, "period", low=1)
        check_count(amplitude, "amplitude", low=0)
        check_count(fluctuation, "fluctuation", low=0)
        if amplitude >= n:
            raise ConfigurationError(
                f"amplitude {amplitude} would drive the size below zero"
            )
        targets = n + amplitude * np.sin(
            2.0 * np.pi * np.arange(1, cycles + 1) / period
        )
        delta = np.diff(np.rint(targets).astype(np.int64), prepend=n)
        return cls(fluctuation + np.maximum(delta, 0),
                   fluctuation + np.maximum(-delta, 0))

    def overlay(self, other: "ChurnTrace") -> "ChurnTrace":
        """Superimpose another trace (e.g. a flash crowd on a diurnal
        base); the result covers the longer of the two."""
        cycles = max(self.cycles, other.cycles)
        joins = np.zeros(cycles, dtype=np.int64)
        leaves = np.zeros(cycles, dtype=np.int64)
        joins[: self.cycles] += self._joins
        leaves[: self.cycles] += self._leaves
        joins[: other.cycles] += other._joins
        leaves[: other.cycles] += other._leaves
        return ChurnTrace(joins, leaves)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChurnTrace(cycles={self.cycles}, "
            f"joins={int(self._joins.sum())}, "
            f"leaves={int(self._leaves.sum())})"
        )


@dataclass(frozen=True)
class EpochRestart:
    """Context handed to :attr:`EpochSpec.reseed` at each epoch start.

    ``participants`` are the slot ids of every alive node entering the
    epoch, in increasing order (the row order the reseed returns);
    ``previous`` is the finalize outputs of earlier epochs (what the
    network knows, for adaptive policies such as §4's leader
    probability); ``rng`` is the engine's generator, so restarts stay
    reproducible and backend-independent.
    """

    epoch: int
    cycle: int
    participants: np.ndarray
    rng: np.random.Generator
    previous: Tuple[Any, ...] = ()


@dataclass(frozen=True)
class EpochView:
    """Converged end-of-epoch state handed to :attr:`EpochSpec.finalize`:
    the ``(m, k)`` matrix of the ``m`` nodes that survived the epoch (a
    copy) and their slot ids; ``size_at_start`` is what the estimates
    describe (Figure 4's one-epoch lag), ``size_at_end`` the alive count
    now, mid-epoch joiners included."""

    epoch: int
    start_cycle: int
    end_cycle: int
    size_at_start: int
    size_at_end: int
    participants: np.ndarray
    matrix: np.ndarray


@dataclass(frozen=True)
class EpochSpec:
    """Declarative epoch/restart machinery (§4).

    Parameters
    ----------
    cycles_per_epoch:
        Epoch length k, chosen from the §3 convergence rates so the
        protocol converges within an epoch (``rate**k`` below the
        target accuracy; see ``repro.avg.theory.cycles_to_reduce``).
    reseed:
        Called at every epoch start with an :class:`EpochRestart`;
        returns the participants' restarted values as ``(m,)`` or
        ``(m, k_new)``. ``k_new`` may differ from the current instance
        count (Figure 4 elects a fresh leader set per epoch); every new
        column then runs AGGREGATE_AVG. ``None`` restarts each
        participant from its base attribute value (§4's plain protocol).
    finalize:
        Called with an :class:`EpochView` when an epoch completes (never
        mid-epoch); a non-``None`` return value is appended to
        ``KernelRunResult.epoch_results``.
    """

    cycles_per_epoch: int = declare("count", low=1)
    reseed: Optional[Callable[[EpochRestart], np.ndarray]] = declare(
        "callable", None
    )
    finalize: Optional[Callable[[EpochView], Any]] = declare(
        "callable", None
    )

    __post_init__ = validate_fields


class NodeLifecycle:
    """The node-lifecycle layer of one engine: churn (departures, joins
    into recycled or fresh slots, capacity growth) and epochs (restart,
    finalize), with the free list, ``top`` (the next never-used slot),
    the epoch counters and results and, under the default reseed, the
    ``_attributes`` slot row. Every engine binds one, like
    :class:`~repro.kernel.messages.ExchangeChannel`: a static
    scenario's keeps the free list empty, ``top`` at n and the counters
    at their start, which is what its checkpoint records."""

    def __init__(self, churn: Optional[ChurnTrace],
                 epochs: Optional[EpochSpec]):
        self._churn = churn
        self._epochs = epochs
        #: whether membership changes over the run (churn or epochs)
        self.dynamic = churn is not None or epochs is not None
        if epochs is not None and epochs.reseed is None:
            # the base values the default reseed restarts from (a
            # custom one may change the instance count); bootstrap()
            # copies them, or a restore loads them
            self._attributes: Optional[np.ndarray] = None

    def bind(self, engine) -> None:
        self._engine = engine

    def unbind(self) -> None:
        self._engine = None

    def _on_boundary(self, cycle: int) -> bool:
        """Whether an epoch restarts at the start of ``cycle`` (§4)."""
        return (self._epochs is not None
                and cycle % self._epochs.cycles_per_epoch == 0)

    def _rebuild_instances(self, k: int) -> None:
        """Positional instance ids, every column running AGGREGATE_AVG:
        what a restart that changed the instance count leaves."""
        self._engine._functions = (MeanAggregate(),) * k
        self._engine._names = tuple(range(k))

    def bootstrap(self, matrix: np.ndarray) -> None:
        """A new run: no slot freed, every initial slot used, no epoch
        output (the engine's counter loop set the counters)."""
        # slots of departed nodes, recycled LIFO for joiners
        self.free_slots: List[int] = []
        self.epoch_results: List[Any] = []
        self.top = len(matrix)
        if hasattr(self, "_attributes"):
            self._attributes = matrix.copy()

    def load(self, manifest, arrays) -> None:
        """A checkpoint's instance layout, free list and epoch results,
        the counters already loaded; counters the epoch rule cannot
        reach from ``cycle`` are a :class:`CheckpointError`."""
        engine = self._engine
        if manifest.get("instances_rebuilt"):
            self._rebuild_instances(engine._matrix.shape[1])
        free = arrays["free_slots"]
        if free.ndim != 1 or free.dtype != np.int64:
            raise CheckpointError(f"checkpoint 'free_slots' is {free.dtype} "
                                  f"{free.shape}, not a list of slot ids")
        self.free_slots = free.tolist()
        self.epoch_results = list(unpickle_payload(arrays["epoch_results"]))
        # a restart opens every multiple of cycles_per_epoch, so the
        # cycle fixes the epoch, its start and what is finalized (the
        # epoch itself too once a run() ended on its boundary)
        cycle = engine.cycle
        length = 0 if self._epochs is None else self._epochs.cycles_per_epoch
        epoch = (cycle - 1) // length if length else -1
        finalized = (max(epoch - 1, -1),)
        for key, allowed in {
            "epoch": (epoch,),
            "epoch_start_cycle": (max(epoch, 0) * length,),
            "last_finalized_epoch": finalized + (
                (epoch,) if self._on_boundary(cycle) else ()),
            "size_at_epoch_start": range(self.top + 1),
        }.items():
            if getattr(self, key) not in allowed:
                raise CheckpointError(
                    f"checkpoint counter {key!r} is {getattr(self, key)}; "
                    f"at cycle {cycle} the epoch rule allows {allowed}"
                )

    # -- the cycle's hooks -------------------------------------------------

    def before_cycle(self) -> None:
        """The epoch boundary (finalize the ending epoch, restart the
        protocol), then the cycle's churn."""
        cycle = self._engine.cycle
        if self._on_boundary(cycle):
            if cycle > 0:
                self._finalize(cycle - 1)
            self._start_epoch(cycle)
        if self._churn is not None:
            self._apply_churn()

    def finish_run(self) -> None:
        """A run ending exactly on an epoch boundary publishes that
        epoch's converged estimates."""
        cycle = self._engine.cycle
        if cycle > 0 and self._on_boundary(cycle):
            self._finalize(cycle - 1)

    def _apply_churn(self) -> None:
        """One cycle's declarative churn: departures leave (taking their
        approximation mass), joiners are admitted into recycled or
        fresh slots."""
        engine = self._engine
        # a step never removes the last node (ChurnTrace.step)
        step = self._churn.step(engine.cycle, engine.alive_count)
        if step.leaves > 0:
            alive_ids = np.flatnonzero(engine._alive)
            picks = engine._rng.choice(len(alive_ids), size=step.leaves,
                                       replace=False)
            leavers = alive_ids.take(picks)
            if engine._monitor_entries:
                departing = leavers.compress(engine._participant.take(leavers))
                if len(departing):
                    engine._backend.sync()
                    engine._ledger_add(
                        "leave", -engine._matrix[departing].sum(axis=0)
                    )
            if engine._channel is not None:
                engine._channel.forget(leavers)
            engine._alive[leavers] = False
            engine._participant[leavers] = False
            engine._mask_version += 1
            self.free_slots.extend(leavers.tolist())
        if step.joins > 0:
            self.admit(int(step.joins))

    def ensure_capacity(self, needed: int) -> None:
        """Grow the matrix and every live slot-table row to ``needed``
        slots, if they hold fewer."""
        engine = self._engine
        capacity = engine.capacity
        if needed <= capacity:
            return
        # geometric growth: O(1) amortized per joiner, O(log n) remaps,
        # each one matrix copy (the backend owns it: the sharded one
        # maps a larger segment and copies the old rows straight in)
        new_capacity = max(needed, capacity + (capacity >> 1))
        grow = new_capacity - capacity
        engine._matrix = engine._backend.grow_matrix(engine._matrix,
                                                     new_capacity)
        for holder, (attr, _, dtype, fill, *_), shape in engine._slot_rows():
            held = getattr(holder, attr)
            tail = fresh_slots((grow,) + shape[1:], dtype, fill)
            setattr(holder, attr, np.concatenate([held, tail]))

    def admit(self, count: int) -> np.ndarray:
        """Admit ``count`` joiners: recycle departed slots (LIFO), then
        extend the matrix. Returns the assigned slot ids."""
        engine = self._engine
        # joiner rows are written below — the pipelined sharded backend
        # must finish any in-flight cycle before the matrix mutates
        engine._backend.sync()
        # the newest free slots, newest first (LIFO)
        keep = max(len(self.free_slots) - count, 0)
        recycled = self.free_slots[keep:][::-1]
        del self.free_slots[keep:]
        fresh = count - len(recycled)
        if fresh > 0:
            self.ensure_capacity(self.top + fresh)
            fresh_ids = np.arange(self.top, self.top + fresh, dtype=np.int64)
            self.top += fresh
        else:
            fresh_ids = np.empty(0, dtype=np.int64)
        slots = np.concatenate(
            [np.asarray(recycled, dtype=np.int64), fresh_ids]
        )
        engine._alive[slots] = True
        # under epochs a joiner waits for the next restart (§4); under
        # plain churn it participates immediately
        engine._participant[slots] = self._epochs is None
        engine._mask_version += 1
        # §4: a joiner behaves as if it had 0 as initial value, in a
        # recycled slot as in a fresh one
        engine._matrix[slots] = 0.0
        if hasattr(self, "_attributes"):
            self._attributes[slots] = 0.0
        if engine._monitor_entries and self._epochs is None and len(slots):
            # under plain churn joiners participate immediately: their
            # zero rows enter the participant mass
            engine._ledger_add("join", engine._matrix[slots].sum(axis=0))
        # the membership hook last, after the joiners' values landed: it
        # may draw (newscast contact lists) — a fixed point either way
        engine._provider.on_join(slots, engine._rng)
        return slots

    def _start_epoch(self, cycle: int) -> None:
        """Restart the protocol (§4): every alive node becomes a
        participant and its row is re-seeded in place."""
        engine = self._engine
        # rows are re-seeded in place — drain in-flight cycles first
        engine._backend.sync()
        if engine._monitor_entries:
            # the mass monitor re-anchors on the replaced participant mass
            engine._ledger_rebase = True
        if engine._channel is not None:
            # a full protocol restart: outstanding exchanges and
            # push-only fallbacks are forgotten
            engine._channel.reset(engine.capacity, engine._matrix.shape[1])
        self.epoch += 1
        np.copyto(engine._participant, engine._alive)
        engine._mask_version += 1
        participants = np.nonzero(engine._participant)[0]
        self.epoch_start_cycle = cycle
        self.size_at_epoch_start = len(participants)
        spec = self._epochs
        if spec.reseed is None:
            engine._matrix[participants] = self._attributes[participants]
            return
        context = EpochRestart(
            epoch=self.epoch,
            cycle=cycle,
            participants=participants.copy(),
            rng=engine._rng,
            previous=tuple(self.epoch_results),
        )
        rows = np.asarray(spec.reseed(context), dtype=np.float64)
        if rows.ndim == 1:
            rows = rows[:, np.newaxis]
        if rows.ndim != 2 or rows.shape[0] != len(participants):
            raise SimulationError(
                f"reseed returned shape {rows.shape} for "
                f"{len(participants)} participants"
            )
        k_new = rows.shape[1]
        if k_new != engine._matrix.shape[1]:
            if k_new < 1:
                raise SimulationError("reseed must return at least one column")
            # the instance count changed (e.g. a fresh leader set): a
            # fresh zero matrix straight from the backend (the sharded
            # one maps a zero-filled segment: no byte written twice)
            self._rebuild_instances(k_new)
            engine._matrix = engine._backend.allocate_matrix(
                engine.capacity, k_new
            )
            if engine._channel is not None:
                # cached combined rows are per-column; track the new k
                engine._channel.reset(engine.capacity, k_new)
        engine._matrix[participants] = rows

    def _finalize(self, end_cycle: int) -> None:
        if self.epoch < 0 or self.epoch <= self.last_finalized_epoch:
            return
        self.last_finalized_epoch = self.epoch
        finalize = self._epochs.finalize
        if finalize is None:
            return
        engine = self._engine
        engine._backend.sync()
        participants = np.nonzero(engine._participant)[0]
        output = finalize(EpochView(
            epoch=self.epoch,
            start_cycle=self.epoch_start_cycle,
            end_cycle=end_cycle,
            size_at_start=self.size_at_epoch_start,
            size_at_end=engine.alive_count,
            participants=participants,
            matrix=engine._matrix[participants].copy(),
        ))
        if output is not None:
            self.epoch_results.append(output)
