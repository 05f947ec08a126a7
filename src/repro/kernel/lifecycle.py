"""Declarative node-lifecycle layer: churn and epoch restarts.

The paper's robustness story (§4, Figure 4) rests on two mechanisms
that change *who* participates over time:

* **churn** — nodes join and crash while the protocol runs; departing
  nodes take their approximation mass with them, joiners enter with a
  fresh value (0 for the counting instance, per §4's rule that nodes
  reached by a new instance "behave as if they had 0 as initial
  value");
* **epochs** — execution is divided into fixed-length epochs and the
  protocol restarts at every epoch boundary, which is what makes
  aggregation adaptive: each epoch converges to the network state at
  its own start, and nodes that joined mid-epoch wait for the next one.

Both are *declared* here and *executed* by the kernel:
a :class:`ChurnTrace` and an :class:`EpochSpec` attach to a
:class:`~repro.kernel.scenario.Scenario`, and
:class:`~repro.kernel.engine.GossipEngine` applies them as alive-mask
growth/shrink plus value-matrix row recycling — no per-epoch node
objects are ever rebuilt, which is why Figure 4 runs at N = 100 000 in
seconds on the vectorized backend. When sustained joins outgrow the
matrix, the engine grows capacity through the backend's
``grow_matrix`` hook (and rebuilds through ``allocate_matrix`` on
epoch instance-count changes), so storage-owning backends like
``sharded`` pay exactly one copy per geometric growth — there is no
intermediate heap matrix. All churn/epoch randomness is drawn by the
engine, never by an execution backend, so the reference and
vectorized backends stay bitwise-equivalent under any failure model
declared here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..fields import check_count, check_real, declare, validate_fields
from ..rng import SeedLike, make_rng

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

    Figure 4 describes its churn exactly this way — the size swings
    between 90 000 and 110 000 on a day/night basis while 100 nodes
    leave and 100 join every cycle — and so does any session log. The
    engine asks :meth:`step` once per cycle and applies the answer as
    alive-mask growth/shrink with value-matrix row recycling
    (departures are drawn uniformly among alive nodes by the engine).
    Past the end of the trace the network is quiescent, and a step
    never removes the last node. Pass it to ``Scenario(churn=...)``;
    joiners enter with zeros in every instance (§4's rule for nodes
    that meet a running instance for the first time), recycled slots
    included.

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
            last = -1.0
            if len(join_cycles):
                last = max(last, join_cycles.max())
            if len(leave_cycles):
                last = max(last, leave_cycles.max())
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

    ``participants`` holds the slot ids of every alive node entering
    the epoch (in increasing slot order — the row order of the matrix
    the reseed function must return). ``previous`` is the tuple of
    finalize outputs from earlier epochs, which is how adaptive
    policies (e.g. §4's estimate-driven leader probability) see what
    the network actually knows rather than ground truth. ``rng`` is the
    engine's generator: all restart randomness comes from the same
    stream as the protocol's, keeping runs reproducible and
    backend-independent.
    """

    epoch: int
    cycle: int
    participants: np.ndarray
    rng: np.random.Generator
    previous: Tuple[Any, ...] = ()


@dataclass(frozen=True)
class EpochView:
    """Converged end-of-epoch state handed to :attr:`EpochSpec.finalize`.

    ``matrix`` is the ``(m, k)`` value matrix restricted to the ``m``
    nodes that survived the epoch (a copy — safe to keep);
    ``participants`` are their slot ids. ``size_at_start`` is what the
    epoch's estimates describe (Figure 4's one-epoch lag);
    ``size_at_end`` is the alive count now, including mid-epoch joiners
    waiting for the next restart.
    """

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
        count (Figure 4 elects a fresh leader set per epoch); when it
        does, every new column runs AGGREGATE_AVG. ``None`` restarts
        each participant from its base attribute value — the plain §4
        "restart from the current local values" protocol.
    finalize:
        Called with an :class:`EpochView` when an epoch completes; a
        non-``None`` return value is appended to
        ``KernelRunResult.epoch_results``. Only *completed* epochs
        finalize — the paper publishes converged estimates at epoch
        ends, never mid-epoch state.
    """

    cycles_per_epoch: int = declare("count", low=1)
    reseed: Optional[Callable[[EpochRestart], np.ndarray]] = declare(
        "callable", None
    )
    finalize: Optional[Callable[[EpochView], Any]] = declare(
        "callable", None
    )

    __post_init__ = validate_fields
