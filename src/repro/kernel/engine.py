"""The unified gossip engine.

:class:`GossipEngine` executes a :class:`~repro.kernel.scenario.Scenario`
under the synchronous cycle model of §3: every participating node, in
slot order, contacts a random partner and both endpoints adopt
``AGGREGATE(x_i, x_j)`` for *every* aggregation instance at once
(GETPAIR_SEQ with §4 piggybacking). The engine keeps the ``(capacity,
k)`` value matrix (a column per instance, a row per node slot), the
*alive* and *participant* masks, the RNG every draw comes from in a
fixed order, the cycle plan, the backend, the invariant monitors and
their mass ledger, checkpoint / restore and the cycle loop. Every
other per-slot array is a row of :data:`_SLOT_STATE`, the one home of
per-slot state: growth, checkpoint, restore and the structure audit
are loops over it.

Partner draws go to a pluggable
:class:`~repro.kernel.membership.PartnerProvider` (the oracle's
topology/uniform draws, or Newscast's gossip-maintained partial
views). Three more layers are bound to the engine the same way, keep
their own rows of the slot table, and are called by the cycle body at
named hooks:

* the **channel** (:class:`~repro.kernel.messages.ExchangeChannel`,
  when the scenario declares message faults): fault coins, partial
  exchanges and the retry protocol,
* the **adversary** (:class:`~repro.kernel.adversary.Adversary`, when
  it declares an :class:`~repro.kernel.adversary.AdversarySpec`): the
  bootstrap draw, ``inject`` before the exchanges, the eclipse
  redirect, the partition filter and the lying report
  (:meth:`GossipEngine.reported_column`),
* the **lifecycle** (:class:`~repro.kernel.lifecycle.NodeLifecycle`, on
  every engine): churn with slot recycling (joiners start from zero),
  capacity growth, the free list and §4's epoch restarts.

Applying the cycle's exchanges to the matrix is left to a pluggable
:class:`~repro.kernel.backends.ExecutionBackend`. Backends see
identical inputs and the vectorized one preserves per-node exchange
order, so a scenario's trajectory is the same on every backend.

A :class:`~repro.kernel.pairs.PairProtocolSpec` switches to *pair
mode*: ``N`` midpoint steps per cycle from a pre-materialized GETPAIR
sequence (algorithm AVG of Figure 2), φ counts in
:attr:`KernelRunResult.phi_counts`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..errors import (
    CheckpointError,
    ConfigurationError,
    InvariantViolation,
    SimulationError,
)
from ..fields import check_count, check_node_id
from ..rng import make_rng
from .backends import (
    ExecutionBackend,
    Moments,
    MomentScratch,
    column_moments,
    make_backend,
)
from .checkpoint import (
    CheckpointSpec,
    check_restorable,
    pickle_payload,
    prune_checkpoints,
    read_checkpoint,
    unpickle_payload,
    write_checkpoint,
)
from .adversary import Adversary
from .invariants import (
    InvariantFinding,
    InvariantMonitor,
    InvariantReport,
    audit_structure,
)
from .lifecycle import NodeLifecycle
from .membership import PartnerProvider, build_provider
from .messages import CHANNEL_SLOTS, MESSAGE_COUNTERS, ExchangeChannel
from .pairs import PairDraw, conflict_free_plan
from .scenario import Scenario


#: one record point of :meth:`GossipEngine.run`: every instance's
#: ``(variance, mean)`` in column order, or the backend's ticket for
#: them (:meth:`ExecutionBackend.defer_moments`)
RecordPoint = Union[List[Moments], Callable[[], List[Moments]]]

#: What a node slot holds beside its row of the value matrix, said
#: once: a new per-slot array is one more row here plus the place that
#: clears it when a slot changes hands (``tests/faults/test_checkpoint.py``
#: fails on a per-slot array with no row). Columns: attribute;
#: checkpoint key (on-disk: never renamed); dtype; what fresh capacity
#: holds (-1: a row of slot ids); a column per instance, or not (a
#: vector, or the views' width); the holder, as an attribute path from
#: the engine (``None``: the engine). A row is live when its holder is
#: bound and keeps it — a layer sets the attributes of the rows it
#: keeps, and no others, when it is built.
_SLOT_STATE = (
    ("_alive", "alive", bool, False, False, None),
    # the nodes gossiping in the current epoch: diverges from alive
    # only under epochs, where joiners wait for the next restart (§4)
    ("_participant", "participant", bool, False, False, None),
    # the default epoch reseed's base attribute values
    ("_attributes", "attributes", np.float64, 0.0, True, "_lifecycle"),
    # fresh capacity is honest, a recycled slot keeps its flag
    ("_adv_mask", "adv_mask", bool, False, False, "_adversary"),
    # the eclipse captors: the adversarial slot each honest victim's
    # draws land on (-1: not captured); static-only, so never grown
    ("_eclipse", "eclipse", np.int32, -1, False, "_adversary"),
) + CHANNEL_SLOTS + (
    # the Newscast partial views: view_size slot ids per slot; a fresh
    # row is seeded (on_join) before its slot can initiate
    ("views", "views", np.int32, -1, False, "_provider.views"),
)

#: the scalar counters of a run, as (attribute path from the engine,
#: manifest field, the value a new run starts from and the least a
#: checkpoint may hold)
_COUNTERS = (
    ("cycle", "cycle", 0),
    ("_lifecycle.epoch", "epoch", -1),
    ("_lifecycle.epoch_start_cycle", "epoch_start_cycle", 0),
    ("_lifecycle.size_at_epoch_start", "size_at_epoch_start", 0),
    ("_lifecycle.last_finalized_epoch", "last_finalized_epoch", -1),
    # next never-used slot: n in a new run, capacity until it grows
    ("_lifecycle.top", "top", 0),
    ("_mask_version", "mask_version", 0),
)


@dataclass
class KernelRunResult:
    """Per-cycle trajectories of one engine run, per instance.
    Epoch-restarted runs record no per-instance trajectories (the
    instance count may change every epoch): their outputs are
    ``epoch_results`` and ``alive_counts``."""

    instance_names: Tuple[Hashable, ...]
    variances: Dict[Hashable, List[float]] = field(default_factory=dict)
    means: Dict[Hashable, List[float]] = field(default_factory=dict)
    exchange_counts: List[int] = field(default_factory=list)
    alive_counts: List[int] = field(default_factory=list)
    epoch_results: List[Any] = field(default_factory=list)
    #: pair-mode only (with ``track_phi``): one per-node φ count array
    #: per executed cycle — Theorem 1's communication counts
    phi_counts: List[np.ndarray] = field(default_factory=list)

    @property
    def primary(self) -> Hashable:
        """The first (usually only) instance id."""
        return self.instance_names[0]

    def variance_array(self, name: Optional[Hashable] = None) -> np.ndarray:
        """σ²₀ … σ²_T of one instance (default: the primary one)."""
        return np.asarray(self.variances[self.primary if name is None else name])

    def mean_array(self, name: Optional[Hashable] = None) -> np.ndarray:
        """Per-cycle means of one instance (default: the primary one)."""
        return np.asarray(self.means[self.primary if name is None else name])


class CyclePlan:
    """Reusable per-cycle scratch for :meth:`GossipEngine.run_cycle`:
    int32 buffers (half of ``intp``'s bytes; the planner casts a window
    at a time) for the partners, the survival mask and the compacted
    exchanges, reallocated only when capacity grows, plus the compacted
    initiator set cached under a mask *version stamp* that every
    alive/participant mutation bumps."""

    __slots__ = (
        "capacity", "partners", "ok", "out_i", "out_j",
        "_initiators", "_version",
    )

    def __init__(self):
        self.capacity = -1
        self.partners: Optional[np.ndarray] = None
        self.ok: Optional[np.ndarray] = None
        self.out_i: Optional[np.ndarray] = None
        self.out_j: Optional[np.ndarray] = None
        self._initiators: Optional[np.ndarray] = None
        self._version = -1

    def ensure(self, capacity: int) -> None:
        """Size the buffers for ``capacity`` node slots."""
        if capacity <= self.capacity:
            return
        self.capacity = capacity
        self.partners = np.empty(capacity, dtype=np.int32)
        self.ok = np.empty(capacity, dtype=bool)
        self.out_i = np.empty(capacity, dtype=np.int32)
        self.out_j = np.empty(capacity, dtype=np.int32)
        self._initiators = None

    def initiators(
        self,
        mask: np.ndarray,
        version: int,
        exclude: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The compacted indices of ``mask``, cached until ``version``
        changes (static runs pay the O(capacity) scan once, not per
        cycle). ``exclude`` drops slots that must not initiate — nodes
        isolated by a zero-degree overlay row stay alive (their value
        still counts) but have nobody to draw."""
        if self._initiators is None or self._version != version:
            if exclude is not None:
                mask = mask & ~exclude
            self._initiators = np.flatnonzero(mask).astype(np.int32)
            self._version = version
        return self._initiators

    def compact(
        self, initiators: np.ndarray, partners: np.ndarray, ok: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The exchanges ``ok`` keeps. When it keeps every one — a
        loss-free cycle — that is ``initiators, partners`` themselves,
        returned as they are (the initiators may be the cached set:
        callers only read them); otherwise one compaction into the
        reusable output buffers."""
        if np.count_nonzero(ok) == len(ok):
            return initiators, partners
        selected = np.flatnonzero(ok)
        m = len(selected)
        exch_i = self.out_i[:m]
        exch_j = self.out_j[:m]
        np.take(initiators, selected, out=exch_i)
        np.take(partners, selected, out=exch_j)
        return exch_i, exch_j


class GossipEngine:
    """Cycle-driven execution of a :class:`Scenario`.

    The engine is incremental: :meth:`run` may be called repeatedly and
    :meth:`crash` may be invoked between runs, which is how the
    robustness ablations inject mid-run failures.
    """

    def __init__(self, scenario: Scenario):
        self._allocate(scenario, scenario.initial_matrix())
        self._bootstrap()

    def _allocate(self, scenario: Scenario, matrix: np.ndarray) -> None:
        """Everything of a run that no checkpoint holds, around
        ``matrix`` (the scenario's initial one, or a checkpoint's): the
        scenario's fields, the backend, the monitors and the bound
        layers. The state — slot rows, free list, counters, RNG — is
        left to :meth:`_bootstrap` or :meth:`_load_state`."""
        self.scenario = scenario
        self._names: Tuple[Hashable, ...] = scenario.instance_names
        self._functions: Tuple = scenario.functions
        self._rng = make_rng(scenario.seed)
        # reusable per-cycle scratch; bump _mask_version on every
        # alive/participant mutation so its initiator cache invalidates
        self._plan = CyclePlan()
        # -- pair mode (algorithm AVG, Figure 2) ------------------------
        self._pair = pair = scenario.pair_protocol
        self._pair_draw: Optional[PairDraw] = (
            None if pair is None else pair.bind(scenario.topology)
        )
        self._pair_plan = (
            None if pair is None
            else conflict_free_plan(pair.selector, scenario.n)
        )
        # nodes with a zero-degree overlay row (possible in hand-built
        # or very sparse random adjacency overlays) stay alive — their
        # value still counts toward the true aggregate — but are
        # excluded from initiating: they have no neighbor to draw
        self._isolated: Optional[np.ndarray] = None
        if not scenario.is_dynamic:
            isolated = scenario.topology.isolated_mask()
            if isolated is not None and isolated.any():
                self._isolated = isolated
        # -- the bound layers: none reaches a backend (draws from the
        # engine RNG, engine-side writes), so bitwise equivalence holds
        self._lifecycle = NodeLifecycle(scenario.churn, scenario.epochs)
        adversary, faults = scenario.adversary, scenario.message_faults
        self._adversary = None if adversary is None else Adversary(adversary)
        self._channel = (None if faults is None
                         else ExchangeChannel(faults, scenario.retry))
        self._provider: PartnerProvider = build_provider(scenario.membership)
        for layer in self._layers():
            layer.bind(self)
        # the engine's own slot rows: _bootstrap or a restore fills them
        self._alive = self._participant = None
        self._closed = False
        self._backend: ExecutionBackend = make_backend(
            scenario.resolve_backend()
        )
        # hand the matrix to the backend: in-process backends return it
        # unchanged, the sharded backend moves it into shared memory so
        # all later in-place engine mutations are visible to its workers
        self._matrix = self._backend.adopt_matrix(matrix)
        # -- invariant monitors, observed at the end of every cycle; the
        # mass ledger records every deliberate mass-moving event's exact
        # per-column delta. REPRO_STRICT_INVARIANTS=1 arms the standard
        # set strictly on every engine (the CI certification hook).
        self._monitor_entries: List[Tuple[InvariantMonitor, bool]] = []
        self._ledger: Dict[str, np.ndarray] = {}
        self._ledger_rebase = False
        self._invariant_findings: List[InvariantFinding] = []
        if os.environ.get("REPRO_STRICT_INVARIANTS") == "1":
            self.arm_standard_monitors(strict=True)
        # every column's (variance, mean) over the participants at the
        # current state, or None: filled by one column_moments call,
        # dropped by the only two things that write the matrix or the
        # participant mask — run_cycle() and crash()
        self._moments: Optional[List[Moments]] = None
        self._moment_scratch = MomentScratch()

    def _layers(self) -> list:
        """The bound layers: lifecycle, adversary, channel, provider."""
        layers = (self._lifecycle, self._adversary, self._channel,
                  self._provider)
        return [layer for layer in layers if layer is not None]

    def _set_counter(self, attr: str, value: int) -> None:
        """Set the :data:`_COUNTERS` attribute path ``attr``."""
        owner, _, name = attr.rpartition(".")
        setattr(attrgetter(owner)(self) if owner else self, name, value)

    def _bootstrap(self) -> None:
        """A new run's state: every node alive and participating, the
        counters at their start, every layer's rows seeded. Its RNG
        draws come before any cycle's, in a fixed order: the adversary
        set, the eclipse captors, the views."""
        n, k = self._matrix.shape
        self._alive = np.ones(n, dtype=bool)
        self._participant = self._alive.copy()
        self._phi_log: List[np.ndarray] = []
        for attr, _, start in _COUNTERS:
            self._set_counter(attr, start)
        self._lifecycle.bootstrap(self._matrix)
        if self._adversary is not None:
            self._adversary.bootstrap(n, self._rng)
        if self._channel is not None:
            self._channel.reset(n, k)
        if self._provider.views is not None:
            self._provider.views.bootstrap(self._rng)

    def _slot_rows(self):
        """``(holder, row, shape)`` per live row of :data:`_SLOT_STATE`:
        a slot per matrix row, by k, by the views' width, or alone."""
        rows, k = self._matrix.shape
        for row in _SLOT_STATE:
            holder = attrgetter(row[-1])(self) if row[-1] else self
            if hasattr(holder, row[0]):
                width = (k,) if row[4] else (
                    (holder.view_size,) if row[1] == "views" else ()
                )
                yield holder, row, (rows,) + width

    # -- teardown --------------------------------------------------------

    def close(self) -> None:
        """Release backend-owned resources (the sharded backend's worker
        pool and shared segment; a no-op for in-process backends).
        Idempotent; the engine must not be *run* afterwards (enforced),
        but every observer (``matrix``, ``variance``, ``alive_column``,
        …) stays valid — the matrix is detached from backend-owned
        storage before that storage is unmapped."""
        self._closed = True
        self._matrix = self._backend.release_matrix(self._matrix)
        self._backend.close()
        for layer in self._layers():
            layer.unbind()

    def __enter__(self) -> "GossipEngine":
        return self

    def __exit__(self, exc_type, exc_value, exc_tb) -> None:
        self.close()

    # -- observation -----------------------------------------------------

    @property
    def backend_name(self) -> str:
        """The concrete backend executing this engine."""
        return self._backend.name

    @property
    def instance_names(self) -> Tuple[Hashable, ...]:
        """Instance ids in column order (positional ids after an epoch
        restart changed the instance count)."""
        return self._names

    @property
    def partner_provider(self) -> PartnerProvider:
        """The bound partner-draw layer (oracle or newscast)."""
        return self._provider

    @property
    def membership_name(self) -> str:
        """Name of the active partner provider."""
        return self._provider.name

    @property
    def membership_views(self) -> Optional[np.ndarray]:
        """The provider's partial-view matrix (copy), or ``None`` for
        the oracle. Safe to read mid-run: view state never aliases
        backend-owned storage, so no sync is needed."""
        holder = self._provider.views
        return None if holder is None else holder.views.copy()

    @property
    def matrix(self) -> np.ndarray:
        """The ``(capacity, k)`` value matrix (copy; includes dead and
        not-yet-participating slots)."""
        self._backend.sync()
        return self._matrix.copy()

    @property
    def alive_mask(self) -> np.ndarray:
        """Boolean alive mask over all slots (copy)."""
        return self._alive.copy()

    @property
    def alive_count(self) -> int:
        """Number of alive nodes (the current network size)."""
        return int(np.count_nonzero(self._alive))

    @property
    def participant_count(self) -> int:
        """Number of nodes gossiping in the current epoch (equals
        :attr:`alive_count` except for joiners awaiting a restart)."""
        return int(np.count_nonzero(self._participant))

    @property
    def capacity(self) -> int:
        """Number of allocated node slots (≥ alive count)."""
        return len(self._alive)

    def _column_index(self, name: Optional[Hashable]) -> int:
        if name is None:
            return 0
        try:
            return self._names.index(name)
        except ValueError:
            raise ConfigurationError(
                f"no aggregation instance {name!r}; have {self._names}"
            ) from None

    def column(self, name: Optional[Hashable] = None) -> np.ndarray:
        """One instance's approximations over *all* slots (copy)."""
        self._backend.sync()
        return self._matrix[:, self._column_index(name)].copy()

    def alive_column(self, name: Optional[Hashable] = None) -> np.ndarray:
        """One instance's approximations over participating nodes."""
        self._backend.sync()
        column = self._matrix[:, self._column_index(name)]
        if self._participant.all():
            # everyone participates (the common static case): a plain
            # column copy beats the boolean-mask gather
            return column.copy()
        return column[self._participant]

    @property
    def adversary_mask(self) -> np.ndarray:
        """Boolean adversary mask over all slots (copy; all-``False``
        when the scenario declares no adversary)."""
        if self._adversary is None:
            return np.zeros(self.capacity, dtype=bool)
        return self._adversary.mask.copy()

    @property
    def honest_mask(self) -> np.ndarray:
        """Participants that are not adversarial (copy)."""
        if self._adversary is None:
            return self._participant.copy()
        return self._participant & ~self._adversary.mask

    def reported_column(self, name: Optional[Hashable] = None) -> np.ndarray:
        """What the network *reports*: one instance's approximations
        over participating nodes, with byzantine responders' lies
        applied by the adversary layer at read time (the gossip state
        itself is untouched); without lies this equals
        :meth:`alive_column`. Robust reductions
        (:func:`~repro.kernel.robust.robust_reduce`) consume this view.
        """
        reports = self.alive_column(name)
        if self._adversary is not None:
            self._adversary.report(reports, self._participant, self.cycle)
        return reports

    def honest_column(self, name: Optional[Hashable] = None) -> np.ndarray:
        """One instance's approximations over *honest* participants —
        the view the §3 restricted invariants quantify over."""
        self._backend.sync()
        column = self._matrix[:, self._column_index(name)]
        return column[self.honest_mask]

    def _column_moments(self, name: Optional[Hashable]) -> Moments:
        """One instance's ``(variance, mean)`` over the participants.
        The first read of a state reduces every column in one kernel
        call; the others, until the state changes, are lookups."""
        index = self._column_index(name)
        if self._moments is None:
            self._backend.sync()
            everyone = self._participant.all()
            self._moments = column_moments(
                self._matrix,
                range(self._matrix.shape[1]),
                None if everyone else self._participant,
                self._moment_scratch,
            )
        return self._moments[index]

    def variance(self, name: Optional[Hashable] = None) -> float:
        """Unbiased variance of participants' approximations (eq. 3);
        0.0 with fewer than two participants."""
        return self._column_moments(name)[0]

    def mean(self, name: Optional[Hashable] = None) -> float:
        """Mean of participants' approximations; ``nan`` with none."""
        return self._column_moments(name)[1]

    @property
    def aggregate_functions(self) -> Tuple:
        """AGGREGATE functions in column order (tracks epoch rebuilds)."""
        return self._functions

    def participant_sums(self) -> np.ndarray:
        """Per-instance sums over participating nodes — the total
        system mass the §3 conservation invariant quantifies over."""
        self._backend.sync()
        if self._participant.all():
            return self._matrix.sum(axis=0)
        return self._matrix[self._participant].sum(axis=0)

    def structure_snapshot(self) -> Dict[str, Any]:
        """The lifecycle bookkeeping the structure monitor audits;
        ``slot_lengths`` is how many slots the matrix and every live
        row of :data:`_SLOT_STATE` hold, by checkpoint key."""
        lengths = {"matrix": len(self._matrix)}
        for holder, (attr, key, *_), _ in self._slot_rows():
            lengths[key] = len(getattr(holder, attr))
        lifecycle = self._lifecycle
        return {
            "alive": self._alive,
            "participant": self._participant,
            "free_slots": tuple(lifecycle.free_slots),
            "top": lifecycle.top,
            "capacity": self.capacity,
            "dynamic": lifecycle.dynamic,
            "slot_lengths": lengths,
        }

    @property
    def message_fault_stats(self) -> Dict[str, int]:
        """Cumulative message-fault event counts: partial exchanges
        executed, duplicate deliveries, exact retransmission repairs,
        retry attempts, and budget-exhausted give-ups (copy)."""
        if self._channel is None:
            return dict.fromkeys(MESSAGE_COUNTERS, 0)
        return dict(self._channel.stats)

    @property
    def pending_retry_count(self) -> int:
        """Nodes currently blocked on an outstanding exchange."""
        if self._channel is None:
            return 0
        return self._channel.pending_count

    # -- invariant monitors ----------------------------------------------

    def register_monitor(
        self, monitor: InvariantMonitor, *, strict: bool = False
    ) -> InvariantMonitor:
        """Register an invariant monitor, observed at the end of every
        cycle. With ``strict=True`` any *violation* finding raises
        :class:`~repro.errors.InvariantViolation` at the offending
        cycle. Returns the monitor for chained inspection."""
        self._monitor_entries.append((monitor, bool(strict)))
        return monitor

    def arm_standard_monitors(self, *, strict: bool = False) -> None:
        """Register fresh instances of the standard monitor set (mass
        conservation, variance monotonicity, structure consistency)."""
        from .invariants import standard_monitors

        for monitor in standard_monitors():
            self.register_monitor(monitor, strict=strict)

    def invariant_report(self) -> InvariantReport:
        """Every finding so far plus per-monitor summaries."""
        return InvariantReport(
            findings=tuple(self._invariant_findings),
            summaries={
                monitor.name: monitor.summary()
                for monitor, _ in self._monitor_entries
            },
        )

    def _ledger_add(self, key: str, delta: np.ndarray) -> None:
        """Attribute one mass-moving event: ``delta`` is the exact
        per-column change of participant mass it caused."""
        delta = np.asarray(delta, dtype=np.float64)
        if key in self._ledger:
            self._ledger[key] = self._ledger[key] + delta
        else:
            self._ledger[key] = delta.copy()

    def _observe_invariants(self, executed_cycle: int) -> None:
        self._backend.sync()
        ledger = self._ledger
        rebase = self._ledger_rebase
        self._ledger = {}
        self._ledger_rebase = False
        strict_violations: List[InvariantFinding] = []
        for monitor, strict in self._monitor_entries:
            for finding in monitor.observe(
                self, executed_cycle, ledger, rebase
            ):
                self._invariant_findings.append(finding)
                if strict and finding.is_violation:
                    strict_violations.append(finding)
        if strict_violations:
            first = strict_violations[0]
            raise InvariantViolation(
                f"invariant {first.monitor!r} violated at cycle "
                f"{first.cycle}: {first.message}",
                findings=strict_violations,
            )

    # -- failure injection -----------------------------------------------

    def crash(self, node_ids: Sequence[int]) -> None:
        """Crash-stop nodes; their approximations leave the system and
        (under churn) their slots become recyclable. Every id is checked
        before any state changes: a bad id crashes nobody. Pair-mode
        engines run Figure 2's failure-free AVG and refuse crashes."""
        if self._pair is not None:
            raise ConfigurationError(
                "pair-mode engines model the failure-free AVG of Figure 2; "
                "crash() is not supported with pair_protocol"
            )
        capacity = self.capacity
        node_ids = [check_node_id(node_id, capacity) for node_id in node_ids]
        self._moments = None
        for node_id in node_ids:
            if self._alive[node_id]:
                if self._monitor_entries and self._participant[node_id]:
                    self._backend.sync()
                    self._ledger_add("crash", -self._matrix[node_id])
                self._alive[node_id] = False
                self._participant[node_id] = False
                self._mask_version += 1
                if self._lifecycle.dynamic:
                    self._lifecycle.free_slots.append(int(node_id))
        if self._channel is not None:
            self._channel.forget(node_ids)

    # -- epochs ----------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The current epoch (-1: none started, or no epochs)."""
        return self._lifecycle.epoch

    @property
    def epoch_results(self) -> List[Any]:
        """Finalize outputs of every completed epoch so far (copy)."""
        return list(self._lifecycle.epoch_results)

    # -- checkpoint / resume ---------------------------------------------

    def checkpoint(self, directory: Union[str, Path]) -> Path:
        """Serialize the full run state to ``directory`` and return the
        new checkpoint's manifest path: everything the next cycle reads
        (matrix, every live row of :data:`_SLOT_STATE`, RNG state, the
        :data:`_COUNTERS`, free list, epoch results, pair-φ log,
        message-fault counts), so :meth:`restore` resumes
        bitwise-identically on any backend. It draws nothing and
        mutates nothing; files land atomically (payload, then the
        manifest; see :mod:`repro.kernel.checkpoint`)."""
        if self._closed:
            raise SimulationError(
                "this engine is closed; nothing left to checkpoint"
            )
        self._backend.sync()
        lifecycle = self._lifecycle
        arrays: Dict[str, np.ndarray] = {
            "matrix": self._matrix,
            "free_slots": np.asarray(lifecycle.free_slots, dtype=np.int64),
            "rng_state": pickle_payload(self._rng.bit_generator.state),
            "epoch_results": pickle_payload(lifecycle.epoch_results),
        }
        for holder, (attr, key, *_), _ in self._slot_rows():
            arrays[key] = getattr(holder, attr)
        if self._phi_log:
            arrays["phi_log"] = np.stack(self._phi_log)
        if self._channel is not None:
            # the counts are state as soon as faults are declared,
            # whether or not a retry policy rides along
            arrays["mf_stats"] = pickle_payload(self._channel.stats)
        manifest = {
            "n": int(self.scenario.n),
            "capacity": int(self.capacity),
            "k": int(self._matrix.shape[1]),
            "instances": [str(name) for name in self._names],
            # an epoch restart replaced the instance layout with
            # positional ids (the Figure 4 leader-count case)
            "instances_rebuilt": self._names != self.scenario.instance_names,
            "membership": self._provider.name,
            "bit_generator": type(self._rng.bit_generator).__name__,
            "pair_mode": self._pair is not None,
            "dynamic": lifecycle.dynamic,
            "backend": self.backend_name,
        }
        for attr, key, _ in _COUNTERS:
            manifest[key] = int(attrgetter(attr)(self))
        return write_checkpoint(directory, arrays, manifest)

    def _load_state(self, manifest: Dict[str, Any],
                    arrays: Dict[str, np.ndarray]) -> None:
        """Give an engine :meth:`_allocate` made around a checkpoint's
        matrix the rest of the checkpoint's state — every live row of
        :data:`_SLOT_STATE`, the counters, the RNG state, the
        lifecycle's share — and audit it: anything this engine could not
        run is a :class:`CheckpointError` here, not a failure cycles
        later."""
        rows = len(self._matrix)
        for holder, (attr, key, dtype, fill, *_), shape in self._slot_rows():
            loaded = arrays.get(key)
            found = None if loaded is None else (loaded.shape, loaded.dtype)
            if found != (shape, dtype):
                raise CheckpointError(
                    f"checkpoint {key!r} array has (shape, dtype) {found}, "
                    f"this scenario's engine keeps {shape, np.dtype(dtype)}"
                )
            # integer rows hold slot ids that index the matrix (fill -1:
            # none; the view merge packs them into sort keys) or counts
            if loaded.dtype.kind == "i" and loaded.size and not (
                loaded.min() >= fill and (fill != -1 or loaded.max() < rows)
            ):
                raise CheckpointError(
                    f"checkpoint {key!r} array holds entries outside "
                    f"[{fill}, {rows if fill == -1 else 'inf'})"
                )
            setattr(holder, attr, np.ascontiguousarray(loaded))
        # the view merge reads an alive slot's row: it must be seeded
        views = self._provider.views
        if views is not None and (views.views[self._alive] == -1).any():
            raise CheckpointError("checkpoint 'views' leaves an alive "
                                  "slot's view unseeded (-1)")
        if self._channel is not None and "mf_stats" in arrays:
            # a checkpoint an older build wrote without a retry policy
            # has none: the counts then restart from zero
            self._channel.stats = dict(unpickle_payload(arrays["mf_stats"]))
        self._phi_log = [row.copy() for row in arrays.get("phi_log", ())]
        self._rng.bit_generator.state = unpickle_payload(arrays["rng_state"])
        for attr, key, start in _COUNTERS:
            value = manifest.get(key)
            if type(value) is not int or value < start:
                raise CheckpointError(
                    f"checkpoint counter {key!r} is {value!r}, not an "
                    f"int >= {start}"
                )
            self._set_counter(attr, value)
        self._lifecycle.load(manifest, arrays)
        used = slice(self._lifecycle.top)
        if self._mask_version == 0 and not (
            self._alive[used].all() and self._participant[used].all()
        ):
            raise CheckpointError(
                "checkpoint counter 'mask_version' is 0, which says every "
                "used slot is alive and participating (the loss-free fast "
                "path's premise); some slot is not"
            )
        findings = audit_structure(self.structure_snapshot())
        if findings:
            raise CheckpointError(
                f"checkpoint slot structure is broken: {findings[0][0]}"
            )

    @classmethod
    def restore(
        cls,
        scenario: Scenario,
        path: Union[str, Path],
    ) -> "GossipEngine":
        """An engine resumed from a checkpoint, bitwise-identical to
        the engine that wrote it.

        ``scenario`` must be the checkpointed run's (it holds the
        callables a checkpoint does not serialize); its ``backend`` may
        differ, so a pool run resumes in-process and vice versa.
        ``path`` is a manifest, a payload, or a directory (the newest
        valid checkpoint wins). The checkpoint is validated before
        anything is built; the engine is then allocated around its
        matrix and loaded with the rest — no initial state is built and
        nothing is drawn.
        """
        manifest, arrays = read_checkpoint(path)
        check_restorable(scenario, manifest, arrays)
        engine = cls.__new__(cls)
        engine._allocate(scenario, np.ascontiguousarray(arrays["matrix"]))
        try:
            engine._load_state(manifest, arrays)
        except BaseException:
            engine.close()
            raise
        return engine

    # -- execution -------------------------------------------------------

    def _run_pair_cycle(self) -> int:
        """One cycle of algorithm AVG (Figure 2): ``N`` elementary
        midpoint steps from the selector's pre-materialized pair
        sequence. The pair draw is the cycle's only RNG consumption, so
        both backends replay identical sequences; the vectorized
        backend segments the sequence into conflict-free batches that
        preserve each node's step order (PM halves are conflict-free by
        construction and need exactly two batches)."""
        pairs = self._pair_draw(self._rng)
        if self._pair.track_phi:
            self._phi_log.append(
                np.bincount(pairs.ravel(), minlength=self.capacity)
            )
        self._backend.apply_pairs(
            self._matrix, self._functions, pairs[:, 0], pairs[:, 1],
            plan=self._pair_plan,
        )
        self.cycle += 1
        return int(pairs.shape[0])

    def run_cycle(self) -> int:
        """One synchronous cycle (every participant initiates once, in
        slot order). Returns the number of successful exchanges —
        partial exchanges (a lost reply after the partner applied the
        request) count, silently cancelled ones (a lost request) do
        not. Registered invariant monitors observe the post-cycle
        state; a strict monitor's violation raises
        :class:`~repro.errors.InvariantViolation`."""
        executed = self.cycle
        self._moments = None
        count = self._run_cycle_inner()
        if self._monitor_entries:
            self._observe_invariants(executed)
        return count

    def _run_cycle_inner(self) -> int:
        """The cycle body (see :meth:`run_cycle`)."""
        if self._closed:
            # a closed engine's matrix is detached from its backend; a
            # sharded backend would silently respawn a pool and run on
            # a stale copy — fail loudly instead
            raise SimulationError("this engine is closed; build a new "
                                  "GossipEngine to run again")
        if self._pair is not None:
            return self._run_pair_cycle()
        self._lifecycle.before_cycle()
        # after the restart (Scenario refuses a crash plan under churn)
        crash_plan = self.scenario.crash_plan
        if crash_plan is not None:
            victims = crash_plan.crashing_at(self.cycle)
            if victims:
                self.crash(victims)
        adversary = self._adversary
        if adversary is not None:
            adversary.inject()
        rng, plan, provider = self._rng, self._plan, self._provider
        plan.ensure(self.capacity)
        # one body for static and dynamic overlays: on a static one the
        # participant mask *is* the alive mask, and isolated rows and
        # eclipse capture are static-only (Scenario validation)
        initiators = plan.initiators(
            self._participant, self._mask_version, exclude=self._isolated
        )
        if self._channel is not None:
            # due retries fire, and who waits on an outstanding
            # exchange sits the cycle out
            initiators = self._channel.begin_cycle(initiators)
        count = len(initiators)
        if self._lifecycle.dynamic and count < 2:
            # dynamic overlays draw among the current participants:
            # one alone has nobody to draw
            self.cycle += 1
            return 0
        provider.begin_cycle(initiators, self._alive, rng)
        partners = provider.draw(initiators, rng, plan.partners[:count])
        if adversary is not None:
            adversary.redirect(initiators, partners)
        if (self._mask_version == 0 and self._channel is None
                and (adversary is None or not adversary.partitions)):
            # fast path: every node alive and participating (nothing
            # has ever bumped the mask version) and nothing can fail
            # an exchange, so the survivors ARE (initiators, partners)
            # — skip the mask pass and the compaction entirely. No RNG
            # is consumed either way, so trajectories stay
            # bitwise-identical to the filtered path.
            self._backend.apply_exchanges(
                self._matrix, self._functions, initiators, partners
            )
            self.cycle += 1
            return count
        # one fused mask pass: a partner that is not participating,
        # then the adversary's partition filter
        ok = plan.ok[:count]
        if provider.draws_valid_participants:
            ok[:] = True
        else:
            # topology and view draws can land on crashed, departed or
            # not-yet-restarted nodes — contacting one fails the
            # exchange
            np.take(self._participant, partners, out=ok)
        if adversary is not None:
            adversary.filter(initiators, partners, ok)
        if self._channel is not None:
            count = self._channel.finish(initiators, partners, ok)
        else:
            exch_i, exch_j = plan.compact(initiators, partners, ok)
            self._backend.apply_exchanges(
                self._matrix, self._functions, exch_i, exch_j
            )
            count = len(exch_i)
        self.cycle += 1
        return count

    def _record_point(self) -> RecordPoint:
        """Every instance's ``(variance, mean)`` at the current state,
        in column order — or, when every slot participates and the
        backend can take the reading behind the cycle it is still
        applying, its ticket for them. Anything else reads now, through
        :meth:`variance` and :meth:`mean`."""
        if self._moments is None and self._participant.all():
            ticket = self._backend.defer_moments(
                self._matrix, range(self._matrix.shape[1])
            )
            if ticket is not None:
                return ticket
        return [(self.variance(name), self.mean(name)) for name in self._names]

    def run(
        self,
        cycles: Optional[int] = None,
        *,
        record: str = "cycle",
        checkpoint: Optional[CheckpointSpec] = None,
    ) -> KernelRunResult:
        """Run ``cycles`` cycles (default: the scenario's budget).

        ``record="cycle"`` captures per-instance variance and mean after
        every cycle (the figures' trajectories), ``record="end"`` only
        the initial and final snapshot. Where the backend can take a
        reading behind the cycle it is still applying
        (:meth:`~repro.kernel.backends.ExecutionBackend.defer_moments`)
        the records are collected once, before returning. Epoch runs
        record no per-instance trajectories (the instance count may
        change every epoch) but the ``alive_counts`` size trace and
        ``epoch_results``; an epoch ending exactly at the budget is
        finalized before returning.

        ``checkpoint`` writes a checkpoint to ``spec.directory`` after
        every ``spec.every_cycles`` cycles (atomically) and prunes to
        the ``spec.keep`` newest; it draws nothing, so the trajectory is
        identical with or without it.
        """
        if cycles is None:
            cycles = self.scenario.cycles
        check_count(cycles, "run.cycles", low=0)
        if record not in ("cycle", "end"):
            raise ConfigurationError(
                f"record must be 'cycle' or 'end', got {record!r}"
            )
        if checkpoint is not None and not isinstance(
            checkpoint, CheckpointSpec
        ):
            raise ConfigurationError(
                f"checkpoint must be a CheckpointSpec, got "
                f"{type(checkpoint).__name__}"
            )
        epoch_mode = self.scenario.epochs is not None
        lifecycle = self._lifecycle
        # like exchange_counts/alive_counts, epoch_results are per-run:
        # only epochs completed during *this* call are reported (the
        # engine-level epoch_results property stays cumulative)
        epochs_already_reported = len(lifecycle.epoch_results)
        phi_already_reported = len(self._phi_log)
        result = KernelRunResult(instance_names=self._names)
        # one entry per record point: the moments, or the backend's
        # ticket for them — collected only once the run is over, so
        # the pipeline is not drained at every point
        points: List[RecordPoint] = []

        def record_point() -> None:
            if not epoch_mode:
                points.append(self._record_point())
            result.alive_counts.append(self.alive_count)

        record_point()
        per_cycle = record == "cycle"
        for _ in range(cycles):
            exchanges = self.run_cycle()
            if per_cycle:
                record_point()
            result.exchange_counts.append(exchanges)
            if (
                checkpoint is not None
                and self.cycle % checkpoint.every_cycles == 0
            ):
                self.checkpoint(checkpoint.directory)
                if checkpoint.keep is not None:
                    prune_checkpoints(checkpoint.directory, checkpoint.keep)
        if not per_cycle and cycles > 0:
            record_point()
        lifecycle.finish_run()
        if not epoch_mode:
            for name in self._names:
                result.variances[name] = []
                result.means[name] = []
            for point in points:
                moments = point() if callable(point) else point
                for name, (variance, mean) in zip(self._names, moments):
                    result.variances[name].append(variance)
                    result.means[name].append(mean)
        result.epoch_results = lifecycle.epoch_results[epochs_already_reported:]
        result.phi_counts = self._phi_log[phi_already_reported:]
        return result


def run_scenario(
    scenario: Scenario, *, cycles: Optional[int] = None
) -> KernelRunResult:
    """Build an engine for ``scenario``, run it to completion, and
    release its backend (sharded scenarios spawn a worker pool)."""
    engine = GossipEngine(scenario)
    try:
        return engine.run(cycles)
    finally:
        engine.close()
