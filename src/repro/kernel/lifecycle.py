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
:class:`ChurnSpec` and :class:`EpochSpec` attach to a
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

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

import numpy as np

from ..core.aggregates import AggregateFunction, MeanAggregate
from ..errors import ConfigurationError
from ..failures.churn import ChurnModel, ChurnStep
from ..rng import SeedLike, make_rng

#: accepted :attr:`ChurnSpec.rejoin` policies
REJOIN_POLICIES = ("reset", "keep")


class ChurnTrace(ChurnModel):
    """Data-driven churn: per-cycle join/leave counts from a trace.

    Where ``ConstantRateChurn``/``OscillatingChurn`` *sample* lifecycle
    events from rates each cycle, a trace *replays* them: the model
    holds one join count and one leave count per cycle, precomputed
    from session data (per-node join/leave timestamps, session-length
    distributions) or from the scripted generators below. Past the end
    of the trace the network is quiescent. Plugs into the existing
    machinery unchanged — ``ChurnSpec(model=ChurnTrace(...))`` — so
    the engine's alive-mask growth/shrink, slot recycling and joiner
    seeding all run from data instead of Bernoulli draws.

    Generators: :meth:`from_events` (event timestamps),
    :meth:`from_sessions` (arrival cycle + session length per node),
    :meth:`sessions` (Poisson arrivals with geometric session
    lengths), :meth:`flash_crowd` (a mass join burst whose members
    leave as their sessions expire) and :meth:`diurnal` (a day/night
    size wave as data — the trace-driven counterpart of
    ``OscillatingChurn``).
    """

    def __init__(self, joins, leaves):
        joins = np.asarray(joins, dtype=np.int64)
        leaves = np.asarray(leaves, dtype=np.int64)
        if joins.ndim != 1 or leaves.ndim != 1:
            raise ConfigurationError(
                "ChurnTrace joins/leaves must be 1-D per-cycle counts"
            )
        if len(joins) != len(leaves):
            raise ConfigurationError(
                f"ChurnTrace joins ({len(joins)}) and leaves "
                f"({len(leaves)}) must cover the same cycles"
            )
        if len(joins) and (joins.min() < 0 or leaves.min() < 0):
            raise ConfigurationError(
                "ChurnTrace counts must be non-negative"
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
        if cycle < 0 or cycle >= len(self._joins):
            return ChurnStep(0, 0)
        leaves = min(int(self._leaves[cycle]), max(current_size - 1, 0))
        return ChurnStep(int(self._joins[cycle]), leaves)

    # -- generators -------------------------------------------------------

    @classmethod
    def from_events(cls, join_cycles, leave_cycles, *,
                    cycles: Optional[int] = None) -> "ChurnTrace":
        """From raw event timestamps: one entry per join/leave event,
        in cycles (fractions are floored). Events at or past ``cycles``
        (default: just past the last event) are dropped — a session
        that outlives the trace simply never leaves."""
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
        if cycles < 1:
            raise ConfigurationError(f"cycles must be >= 1, got {cycles}")
        if arrivals_per_cycle < 0 or mean_session <= 0:
            raise ConfigurationError(
                "arrivals_per_cycle must be >= 0 and mean_session > 0"
            )
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
        if size < 0 or mean_stay <= 0:
            raise ConfigurationError(
                "flash-crowd size must be >= 0 and mean_stay > 0"
            )
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
        that keeps membership churning even at constant size). The
        trace-driven counterpart of
        :class:`~repro.failures.churn.OscillatingChurn`.
        """
        if cycles < 1 or period < 1:
            raise ConfigurationError("cycles and period must be >= 1")
        if amplitude < 0 or fluctuation < 0:
            raise ConfigurationError(
                "amplitude and fluctuation must be >= 0"
            )
        if amplitude >= n:
            raise ConfigurationError(
                f"amplitude {amplitude} would drive the size below zero"
            )
        targets = n + amplitude * np.sin(
            2.0 * np.pi * np.arange(1, cycles + 1) / period
        )
        targets = np.rint(targets).astype(np.int64)
        joins = np.zeros(cycles, dtype=np.int64)
        leaves = np.zeros(cycles, dtype=np.int64)
        size = n
        for cycle in range(cycles):
            delta = int(targets[cycle]) - size
            joins[cycle] = fluctuation + max(delta, 0)
            leaves[cycle] = fluctuation + max(-delta, 0)
            size = targets[cycle]
        return cls(joins, leaves)

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
class ChurnSpec:
    """How the kernel applies a :class:`~repro.failures.churn.ChurnModel`.

    Parameters
    ----------
    model:
        The declarative join/leave rates (``NoChurn``,
        ``ConstantRateChurn``, ``OscillatingChurn``, …). Queried once
        per cycle; departures are drawn uniformly among alive nodes by
        the engine.
    rejoin:
        Row-recycling policy when a joiner is assigned the slot of a
        departed node. ``"reset"`` (default) seeds the slot from
        ``join_values`` like any fresh slot; ``"keep"`` lets the joiner
        adopt the state the departed node left behind — the "rejoining
        node resumes where it left off" model.
    join_values:
        ``(count, rng) -> array`` producing initial values for joiners;
        a 1-D ``(count,)`` result is broadcast across all aggregation
        instances, a 2-D ``(count, k)`` result seeds each column.
        Defaults to zeros — the §4 rule for nodes that meet a running
        instance for the first time.
    """

    model: ChurnModel
    rejoin: str = "reset"
    join_values: Optional[
        Callable[[int, np.random.Generator], np.ndarray]
    ] = None

    def __post_init__(self) -> None:
        if not isinstance(self.model, ChurnModel):
            raise ConfigurationError(
                f"ChurnSpec.model must be a ChurnModel, got "
                f"{type(self.model).__name__}"
            )
        if self.rejoin not in REJOIN_POLICIES:
            raise ConfigurationError(
                f"unknown rejoin policy {self.rejoin!r}; expected one of "
                f"{REJOIN_POLICIES}"
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
        does, every new column runs ``function``. ``None`` restarts
        each participant from its base attribute value — the plain §4
        "restart from the current local values" protocol.
    finalize:
        Called with an :class:`EpochView` when an epoch completes; a
        non-``None`` return value is appended to
        ``KernelRunResult.epoch_results``. Only *completed* epochs
        finalize — the paper publishes converged estimates at epoch
        ends, never mid-epoch state.
    function:
        The AGGREGATE applied to every column after a reseed that
        changes the instance count. Defaults to AGGREGATE_AVG.
    """

    cycles_per_epoch: int
    reseed: Optional[Callable[[EpochRestart], np.ndarray]] = None
    finalize: Optional[Callable[[EpochView], Any]] = None
    function: AggregateFunction = field(default_factory=MeanAggregate)

    def __post_init__(self) -> None:
        if self.cycles_per_epoch < 1:
            raise ConfigurationError(
                f"cycles_per_epoch must be >= 1, got {self.cycles_per_epoch}"
            )
        if not isinstance(self.function, AggregateFunction):
            raise ConfigurationError(
                f"EpochSpec.function must be an AggregateFunction, got "
                f"{type(self.function).__name__}"
            )
