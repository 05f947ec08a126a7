"""The unified gossip engine.

:class:`GossipEngine` executes a :class:`~repro.kernel.scenario.Scenario`
under the synchronous cycle model of §3: every participating node, in
slot order, contacts a random partner and both endpoints adopt
``AGGREGATE(x_i, x_j)`` for *every* aggregation instance at once
(GETPAIR_SEQ with §4 piggybacking). The engine owns everything
stochastic and everything stateful:

* node state as a ``(capacity, k)`` structure-of-arrays value matrix
  — one column per aggregation instance, one row per node slot — plus
  whatever else a slot holds (*alive* and *participant* masks, epoch
  attributes, the adversary mask, the message channel's retry rows,
  the Newscast views), listed once in :data:`_SLOT_STATE`, the one
  home of per-slot state: capacity growth, checkpoint, restore and
  the structure audit are loops over that table,
* node lifecycle: a :class:`~repro.kernel.lifecycle.ChurnTrace` is
  applied as alive-mask growth/shrink with value-matrix row recycling
  (departed slots are reused by joiners, which start from zero; the
  matrix grows geometrically when the network outgrows its capacity —
  no node objects are ever rebuilt),
* the §4 epoch/restart machinery: an
  :class:`~repro.kernel.lifecycle.EpochSpec` restarts the protocol at
  every epoch boundary by re-seeding the participants' rows in place
  (mid-epoch joiners stay alive but wait for the next restart before
  they participate),
* the cycle's randomness as batched draws (partner picks, fault coins,
  churn departures, restart re-seeding), identical no matter which
  backend executes,
* the partner draws themselves, delegated to a pluggable
  :class:`~repro.kernel.membership.PartnerProvider`: the default
  :class:`~repro.kernel.membership.OracleProvider` reproduces the
  historical topology/uniform draws bit for bit, while
  :class:`~repro.kernel.membership.NewscastProvider` draws from
  gossip-maintained partial views refreshed through the backend's
  node-disjoint batch primitives — no global membership oracle, and
* the crash plan, and message faults with their retry protocol
  (through one :class:`~repro.kernel.messages.ExchangeChannel`), and
* the declarative adversary
  (:class:`~repro.kernel.adversary.AdversarySpec`): the adversary set
  is drawn once at construction, ``inject`` corruption is written into
  the matrix before each cycle's exchanges, ``partition`` joins the
  fused ok-mask pass, ``eclipse`` overrides partner draws, and
  ``lying`` rewrites reports at observation time
  (:meth:`GossipEngine.reported_column`) without touching state.

What remains — applying the cycle's successful exchanges to the matrix
— is delegated to a pluggable
:class:`~repro.kernel.backends.ExecutionBackend`. Because backends see
identical inputs and the vectorized backend preserves per-node exchange
order, a scenario produces the same trajectory on every backend, churn
and epoch restarts included. Static and dynamic overlays run the same
cycle body (:meth:`GossipEngine.run_cycle`): what tells them apart is
the provider's draw and which of the filters are armed.

A scenario may instead declare a
:class:`~repro.kernel.pairs.PairProtocolSpec`, switching the engine to
*pair mode*: each cycle becomes ``N`` elementary midpoint steps from a
pre-materialized GETPAIR sequence (PM / RAND / SEQ / PMRAND — algorithm
AVG of Figure 2) rather than the push-pull exchange batches. The pair
draw is engine-owned like every other piece of randomness, so the
backend equivalence contract carries over unchanged; per-cycle φ counts
land in :attr:`KernelRunResult.phi_counts`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
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

from ..core.aggregates import MeanAggregate
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
from .invariants import (
    InvariantFinding,
    InvariantMonitor,
    InvariantReport,
    audit_structure,
)
from .lifecycle import EpochRestart, EpochView
from .membership import PartnerProvider, build_provider
from .messages import (
    CHANNEL_SLOTS,
    MESSAGE_COUNTERS,
    ExchangeChannel,
    fresh_slots,
)
from .pairs import PairDraw, conflict_free_plan
from .scenario import Scenario


#: one record point of :meth:`GossipEngine.run`: every instance's
#: ``(variance, mean)`` in column order, or the backend's ticket for
#: them (:meth:`ExecutionBackend.defer_moments`)
RecordPoint = Union[List[Moments], Callable[[], List[Moments]]]

#: What a node slot holds beside its row of the value matrix, said
#: once. Capacity growth, checkpoint and restore are loops over these
#: rows and the structure monitor audits their lengths, so a new
#: per-slot array is one more row here plus the place that clears it
#: when a slot changes hands — and ``tests/faults/test_checkpoint.py``
#: fails on an array that has a slot per node and no row. Columns:
#: attribute; checkpoint key (the on-disk name: never renamed); dtype;
#: what fresh capacity holds (-1: a row of slot ids); one column per
#: aggregation instance, or not (a vector, or the views' width); the
#: scenario field that brings the array into being (``None``: always
#: there; ``eclipse``: an adversary of that kind), which
#: :meth:`GossipEngine._slot_rows` maps to the row's holder: the message
#: channel for ``retry`` (:data:`~repro.kernel.messages.CHANNEL_SLOTS`;
#: it allocates and clears them), the provider's views for
#: ``membership``, else the engine.
_SLOT_STATE = (
    ("_alive", "alive", bool, False, False, None),
    # the nodes gossiping in the current epoch: diverges from alive
    # only under epochs, where joiners wait for the next restart (§4)
    ("_participant", "participant", bool, False, False, None),
    # base attribute values, the reseed source of the default "restart
    # from current local values" epoch protocol (a custom reseed may
    # change the instance count, so only the default keeps them)
    ("_attributes", "attributes", np.float64, 0.0, True, "epochs"),
    # fresh capacity is always honest; a recycled slot keeps the
    # departed node's flag (the attacker holds the position)
    ("_adv_mask", "adv_mask", bool, False, False, "adversary"),
    # the eclipse captors: the adversarial slot each honest victim's
    # draws land on (-1: not captured); static-only, so never grown
    ("_eclipse", "eclipse", np.int32, -1, False, "eclipse"),
) + CHANNEL_SLOTS + (
    # the Newscast partial views: view_size slot ids per slot; a fresh
    # row is seeded (on_join) before its slot can initiate
    ("views", "views", np.int32, -1, False, "membership"),
)

#: the scalar counters of a run, as (attribute, manifest field, the
#: value a new run starts from and the least a checkpoint may hold)
_COUNTERS = (
    ("cycle", "cycle", 0),
    ("epoch", "epoch", -1),
    ("_epoch_start_cycle", "epoch_start_cycle", 0),
    ("_size_at_epoch_start", "size_at_epoch_start", 0),
    ("_last_finalized_epoch", "last_finalized_epoch", -1),
    # next never-used slot: n in a new run, capacity until it grows
    ("_top", "top", 0),
    ("_mask_version", "mask_version", 0),
)


@dataclass
class KernelRunResult:
    """Per-cycle trajectories of one engine run, per instance.

    Epoch-restarted runs whose instance count varies between epochs
    (Figure 4's per-epoch leader election) do not record per-instance
    variance/mean trajectories — their observable outputs are
    ``epoch_results`` (one finalize value per completed epoch) and
    ``alive_counts`` (the network-size trace).
    """

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
    """Reusable per-cycle scratch for :meth:`GossipEngine.run_cycle`.

    A ``CyclePlan`` owns int32 buffers (half the bytes of numpy's
    native ``intp``; the backends' planner casts one window at a time
    at the point of fancy indexing) for the partners, the survival mask
    and the compacted exchanges, reallocated only when engine capacity
    grows, plus a cached compacted initiator set keyed on a mask
    *version stamp* — any alive/participant mutation (crash, churn,
    epoch restart) bumps the stamp and invalidates it.
    """

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
        scenario's fields, the backend, the monitors, the provider and
        channel objects. The state — slot rows, free list, counters,
        RNG — is left to :meth:`_bootstrap` or :meth:`_load_state`."""
        self.scenario = scenario
        self._names: Tuple[Hashable, ...] = scenario.instance_names
        self._functions: Tuple = scenario.functions
        self._rng = make_rng(scenario.seed)
        # reusable per-cycle scratch; bump _mask_version on every
        # alive/participant mutation so its initiator cache invalidates
        self._plan = CyclePlan()
        # -- lifecycle state --------------------------------------------
        self._churn = scenario.churn
        self._epochs = scenario.epochs
        self._dynamic = scenario.is_dynamic
        # -- pair mode (algorithm AVG, Figure 2) ------------------------
        self._pair = pair = scenario.pair_protocol
        self._pair_draw: Optional[PairDraw] = (
            None if pair is None else pair.bind(scenario.topology)
        )
        self._pair_plan = (
            None if pair is None
            else conflict_free_plan(pair.selector, scenario.n)
        )
        # -- adversary state (AdversarySpec) ----------------------------
        # corruption is applied as engine-side matrix writes and
        # exchange filtering — backends never see the spec, so bitwise
        # equivalence is preserved
        adversary = scenario.adversary
        self._adversary = adversary
        self._adversary_partition = (
            adversary is not None and adversary.kind == "partition"
        )
        # nodes with a zero-degree overlay row (possible in hand-built
        # or very sparse random adjacency overlays) stay alive — their
        # value still counts toward the true aggregate — but are
        # excluded from initiating: they have no neighbor to draw
        self._isolated: Optional[np.ndarray] = None
        if not self._dynamic:
            isolated = scenario.topology.isolated_mask()
            if isolated is not None and isolated.any():
                self._isolated = isolated
        # -- the message layer (MessageFaultSpec / RetrySpec) ----------
        # like the adversary, message faults never reach the backends:
        # the channel draws their coins from the engine RNG and writes
        # their effects engine-side, so bitwise equivalence holds
        self._channel: Optional[ExchangeChannel] = None
        if scenario.message_faults is not None:
            self._channel = ExchangeChannel(
                scenario.message_faults, scenario.retry
            )
            self._channel.bind(self)
        self._provider: PartnerProvider = build_provider(scenario.membership)
        self._provider.bind(self)
        # whether this scenario has the rows of _SLOT_STATE, by what
        # brings them into being: the one place that decides which rows
        # are live (bootstrap, restore and every loop over the table
        # read it)
        epochs = self._epochs
        self._live = {
            None: True,
            "epochs": epochs is not None and epochs.reseed is None,
            "adversary": adversary is not None,
            "eclipse": adversary is not None and adversary.kind == "eclipse",
            "retry": scenario.retry is not None,
            "membership": self._provider.views is not None,
        }
        for attr, *_, needs in _SLOT_STATE:
            if needs not in ("retry", "membership"):
                setattr(self, attr, None)
        self._closed = False
        self._backend: ExecutionBackend = make_backend(
            scenario.resolve_backend()
        )
        # hand the matrix to the backend: in-process backends return it
        # unchanged, the sharded backend moves it into shared memory so
        # all later in-place engine mutations are visible to its workers
        self._matrix = self._backend.adopt_matrix(matrix)
        # -- invariant monitors -----------------------------------------
        # observed at the end of every cycle; the per-cycle mass ledger
        # records every deliberate mass-moving engine event with its
        # exact per-column delta so the mass monitor can attribute
        # drift. REPRO_STRICT_INVARIANTS=1 arms the standard set in
        # strict mode on every engine (the CI certification hook).
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

    def _bootstrap(self) -> None:
        """A new run's state: every node alive and participating, the
        counters at their start, the live rows of :data:`_SLOT_STATE`
        seeded. Its RNG draws come before any cycle's, in a fixed
        order: the adversary set, the eclipse captors, the views."""
        n, k = self._matrix.shape
        rng, live = self._rng, self._live
        self._alive = np.ones(n, dtype=bool)
        self._participant = self._alive.copy()
        # slots of departed nodes, recycled LIFO for joiners
        self._free_slots: List[int] = []
        self._phi_log: List[np.ndarray] = []
        self._epoch_results: List[Any] = []
        for attr, _, start in _COUNTERS:
            setattr(self, attr, start)
        self._top = n
        adversary = self._adversary
        if live["adversary"]:
            self._adv_mask = np.zeros(n, dtype=bool)
            self._adv_mask[adversary.resolve_nodes(n, rng)] = True
        if live["eclipse"]:
            self._eclipse = adversary.eclipse_redirects(
                self.scenario.topology, self._adv_mask, rng
            )
        if live["retry"]:
            self._channel.reset(n, k)
        if live["membership"]:
            self._provider.views.bootstrap(rng)
        if live["epochs"]:
            self._attributes = self._matrix.copy()

    def _slot_rows(self):
        """``(holder, row, shape)`` for every live row of
        :data:`_SLOT_STATE`: the channel holds the ``retry`` rows, the
        provider's views the ``membership`` row, the engine the others;
        a row has a slot per matrix row, by a column per instance, the
        views' width, or nothing."""
        rows, k = self._matrix.shape
        held = {"retry": self._channel, "membership": self._provider.views}
        for row in _SLOT_STATE:
            if self._live[row[-1]]:
                holder = held.get(row[-1], self)
                width = (k,) if row[4] else (
                    (holder.view_size,) if row[-1] == "membership" else ()
                )
                yield holder, row, (rows,) + width

    # -- lifecycle -------------------------------------------------------

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
        self._provider.unbind()
        if self._channel is not None:
            self._channel.unbind()

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
        if self._adv_mask is None:
            return np.zeros(self.capacity, dtype=bool)
        return self._adv_mask.copy()

    @property
    def honest_mask(self) -> np.ndarray:
        """Participants that are not adversarial (copy)."""
        if self._adv_mask is None:
            return self._participant.copy()
        return self._participant & ~self._adv_mask

    def reported_column(self, name: Optional[Hashable] = None) -> np.ndarray:
        """What the network *reports*: one instance's approximations
        over participating nodes, with byzantine responders' lies
        applied. Under an active ``kind="lying"`` adversary each
        adversarial node's report is replaced by the spec value at read
        time — the gossip state itself is untouched. For every other
        kind this equals :meth:`alive_column`. Robust reductions
        (:func:`~repro.kernel.robust.robust_reduce`) consume this view.
        """
        reports = self.alive_column(name)
        spec = self._adversary
        if (
            spec is not None
            and spec.kind == "lying"
            and spec.active_at(self.cycle)
        ):
            if self._participant.all():
                adversarial = self._adv_mask
            else:
                adversarial = self._adv_mask[self._participant]
            reports[adversarial] = spec.value
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
        return {
            "alive": self._alive,
            "participant": self._participant,
            "free_slots": tuple(self._free_slots),
            "top": self._top,
            "capacity": self.capacity,
            "dynamic": bool(self._dynamic),
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
                if self._dynamic:
                    self._free_slots.append(int(node_id))
        if self._channel is not None:
            self._channel.forget(node_ids)

    # -- adversary -------------------------------------------------------

    def _apply_adversary_state(self) -> None:
        """The pre-exchange adversary hook: under an active
        ``kind="inject"`` spec every adversarial participant resets its
        whole row to the injected value before this cycle's exchanges
        (the stubborn-node attack — the corruption then spreads through
        ordinary gossip). The other kinds touch no state here: lying is
        applied at observation time, partition/eclipse act on the
        exchange plan."""
        spec = self._adversary
        if spec.kind != "inject" or not spec.active_at(self.cycle):
            return
        rows = np.flatnonzero(self._adv_mask & self._participant)
        if len(rows) == 0:
            return
        # in-place matrix write — the pipelined sharded backend must
        # drain any in-flight cycle first
        self._backend.sync()
        if self._monitor_entries:
            k = self._matrix.shape[1]
            injected = np.full(k, spec.value * len(rows))
            self._ledger_add("inject", injected - self._matrix[rows].sum(axis=0))
        self._matrix[rows] = spec.value

    # -- churn -----------------------------------------------------------

    def _apply_churn(self) -> None:
        """One cycle's declarative churn: departures leave (taking their
        approximation mass), joiners are admitted into recycled or
        fresh slots."""
        alive_count = self.alive_count
        step = self._churn.step(self.cycle, alive_count)
        leaves = min(int(step.leaves), max(alive_count - 1, 0))
        if leaves > 0:
            alive_ids = np.flatnonzero(self._alive)
            picks = self._rng.choice(len(alive_ids), size=leaves, replace=False)
            leavers = alive_ids.take(picks)
            if self._monitor_entries:
                departing = leavers.compress(self._participant.take(leavers))
                if len(departing):
                    self._backend.sync()
                    self._ledger_add(
                        "leave", -self._matrix[departing].sum(axis=0)
                    )
            if self._channel is not None:
                self._channel.forget(leavers)
            self._alive[leavers] = False
            self._participant[leavers] = False
            self._mask_version += 1
            self._free_slots.extend(leavers.tolist())
        if step.joins > 0:
            self._admit(int(step.joins))

    def _ensure_capacity(self, needed: int) -> None:
        capacity = self.capacity
        if needed <= capacity:
            return
        # geometric growth amortizes repeated joins to O(1) per node
        new_capacity = max(needed, capacity + (capacity >> 1))
        grow = new_capacity - capacity
        # the backend owns the growth so it costs exactly one matrix
        # copy: the sharded backend maps a larger shared segment and
        # copies the old rows straight into it; geometric growth keeps
        # remaps O(log n)
        self._matrix = self._backend.grow_matrix(self._matrix, new_capacity)
        for holder, (attr, _, dtype, fill, *_), shape in self._slot_rows():
            held = getattr(holder, attr)
            tail = fresh_slots((grow,) + shape[1:], dtype, fill)
            setattr(holder, attr, np.concatenate([held, tail]))

    def _admit(self, count: int) -> np.ndarray:
        """Admit ``count`` joiners: recycle departed slots (LIFO), then
        extend the matrix. Returns the assigned slot ids."""
        # joiner rows are written below — the pipelined sharded backend
        # must finish any in-flight cycle before the matrix mutates
        self._backend.sync()
        # the newest free slots, newest first (LIFO)
        keep = max(len(self._free_slots) - count, 0)
        recycled = self._free_slots[keep:][::-1]
        del self._free_slots[keep:]
        fresh = count - len(recycled)
        if fresh > 0:
            self._ensure_capacity(self._top + fresh)
            fresh_slots = np.arange(self._top, self._top + fresh, dtype=np.int64)
            self._top += fresh
        else:
            fresh_slots = np.empty(0, dtype=np.int64)
        slots = np.concatenate(
            [np.asarray(recycled, dtype=np.int64), fresh_slots]
        )
        self._alive[slots] = True
        # under epochs a joiner waits for the next restart (§4); under
        # plain churn it participates immediately
        self._participant[slots] = self._epochs is None
        self._mask_version += 1
        # §4: a joiner behaves as if it had 0 as initial value, in a
        # recycled slot as in a fresh one
        self._matrix[slots] = 0.0
        if self._attributes is not None:
            self._attributes[slots] = 0.0
        if self._monitor_entries and self._epochs is None and len(slots):
            # under plain churn joiners participate immediately: their
            # zero rows enter the participant mass
            self._ledger_add("join", self._matrix[slots].sum(axis=0))
        # the membership hook last, after the joiners' values landed:
        # the provider may draw bootstrap randomness (newscast contact
        # lists) — a fixed point in the stream either way, and a no-op
        # for the oracle
        self._provider.on_join(slots, self._rng)
        return slots

    # -- epochs ----------------------------------------------------------

    def _start_epoch(self, cycle: int) -> None:
        """Restart the protocol (§4): every alive node becomes a
        participant and its row is re-seeded in place."""
        # rows are re-seeded in place — drain in-flight cycles first
        self._backend.sync()
        if self._monitor_entries:
            # a restart deliberately replaces the participant mass; the
            # mass monitor re-anchors instead of attributing deltas
            self._ledger_rebase = True
        if self._channel is not None:
            # a restart is a full protocol restart: outstanding
            # exchanges and push-only fallbacks are forgotten
            self._channel.reset(self.capacity, self._matrix.shape[1])
        self.epoch += 1
        np.copyto(self._participant, self._alive)
        self._mask_version += 1
        participants = np.nonzero(self._participant)[0]
        self._epoch_start_cycle = cycle
        self._size_at_epoch_start = len(participants)
        spec = self._epochs
        if spec.reseed is None:
            self._matrix[participants] = self._attributes[participants]
            return
        context = EpochRestart(
            epoch=self.epoch,
            cycle=cycle,
            participants=participants.copy(),
            rng=self._rng,
            previous=tuple(self._epoch_results),
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
        if k_new != self._matrix.shape[1]:
            if k_new < 1:
                raise SimulationError("reseed must return at least one column")
            # the instance count changed (e.g. a fresh leader set):
            # rebuild the matrix with positional instance ids, every
            # column running AGGREGATE_AVG
            self._functions = (MeanAggregate(),) * k_new
            self._names = tuple(range(k_new))
            # a fresh zero matrix straight from the backend: the
            # sharded backend maps a new zero-filled segment, so no
            # byte is written twice
            self._matrix = self._backend.allocate_matrix(
                self.capacity, k_new
            )
            if self._channel is not None:
                # cached combined rows are per-column; track the new k
                self._channel.reset(self.capacity, k_new)
        self._matrix[participants] = rows

    def _finalize_epoch(self, end_cycle: int) -> None:
        if self.epoch < 0 or self.epoch <= self._last_finalized_epoch:
            return
        self._last_finalized_epoch = self.epoch
        spec = self._epochs
        if spec.finalize is None:
            return
        self._backend.sync()
        participants = np.nonzero(self._participant)[0]
        view = EpochView(
            epoch=self.epoch,
            start_cycle=self._epoch_start_cycle,
            end_cycle=end_cycle,
            size_at_start=self._size_at_epoch_start,
            size_at_end=self.alive_count,
            participants=participants,
            matrix=self._matrix[participants].copy(),
        )
        output = spec.finalize(view)
        if output is not None:
            self._epoch_results.append(output)

    @property
    def epoch_results(self) -> List[Any]:
        """Finalize outputs of every completed epoch so far (copy)."""
        return list(self._epoch_results)

    # -- checkpoint / resume ---------------------------------------------

    @property
    def _instances_rebuilt(self) -> bool:
        """Whether an epoch restart replaced the scenario's instance
        layout with positional ids (the Figure 4 leader-count case)."""
        return self._names != self.scenario.instance_names

    def checkpoint(self, directory: Union[str, Path]) -> Path:
        """Serialize the full run state to ``directory`` and return the
        new checkpoint's manifest path.

        The snapshot captures everything the next cycle reads — value
        matrix, every live row of :data:`_SLOT_STATE`, RNG state, the
        :data:`_COUNTERS`, slot-recycling bookkeeping, pair-φ log,
        message-fault counts — so :meth:`restore`
        resumes bitwise-identically on any backend. The write is
        observation-grade: it drains in-flight work like any matrix
        read but consumes no randomness and mutates nothing, so a
        checkpointed run's trajectory equals an uncheckpointed one's.
        Files land atomically (payload, then the manifest as the commit
        record); see :mod:`repro.kernel.checkpoint` for the format.
        """
        if self._closed:
            raise SimulationError(
                "this engine is closed; nothing left to checkpoint"
            )
        self._backend.sync()
        arrays: Dict[str, np.ndarray] = {
            "matrix": self._matrix,
            "free_slots": np.asarray(self._free_slots, dtype=np.int64),
            "rng_state": pickle_payload(self._rng.bit_generator.state),
            "epoch_results": pickle_payload(self._epoch_results),
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
            "instances_rebuilt": self._instances_rebuilt,
            "membership": self._provider.name,
            "bit_generator": type(self._rng.bit_generator).__name__,
            "pair_mode": self._pair is not None,
            "dynamic": bool(self._dynamic),
            "backend": self.backend_name,
        }
        for attr, key, _ in _COUNTERS:
            manifest[key] = int(getattr(self, attr))
        return write_checkpoint(directory, arrays, manifest)

    def _load_state(self, manifest: Dict[str, Any],
                    arrays: Dict[str, np.ndarray]) -> None:
        """Give an engine :meth:`_allocate` made around a checkpoint's
        matrix the rest of the checkpoint's state — every live row of
        :data:`_SLOT_STATE`, the free list, the counters, the RNG state
        — and audit it: anything this engine could not run is a
        :class:`CheckpointError` here, not a failure cycles later."""
        rows, k = self._matrix.shape
        if manifest.get("instances_rebuilt"):
            # positional instance ids, every column running
            # AGGREGATE_AVG — exactly what _start_epoch rebuilds
            self._functions = (MeanAggregate(),) * k
            self._names = tuple(range(k))
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
        free = arrays["free_slots"]
        if free.ndim != 1 or free.dtype != np.int64:
            raise CheckpointError(f"checkpoint 'free_slots' is {free.dtype} "
                                  f"{free.shape}, not a list of slot ids")
        self._free_slots = free.tolist()
        if self._channel is not None and "mf_stats" in arrays:
            # a checkpoint an older build wrote without a retry policy
            # has none: the counts then restart from zero
            self._channel.stats = dict(unpickle_payload(arrays["mf_stats"]))
        self._phi_log = [row.copy() for row in arrays.get("phi_log", ())]
        self._epoch_results = list(unpickle_payload(arrays["epoch_results"]))
        self._rng.bit_generator.state = unpickle_payload(arrays["rng_state"])
        for attr, key, start in _COUNTERS:
            value = manifest.get(key)
            if type(value) is not int or value < start:
                raise CheckpointError(
                    f"checkpoint counter {key!r} is {value!r}, not an "
                    f"int >= {start}"
                )
            setattr(self, attr, value)
        if self._epoch_start_cycle > self.cycle:
            raise CheckpointError(
                f"checkpoint counter 'epoch_start_cycle' is "
                f"{self._epoch_start_cycle}, past 'cycle' {self.cycle}"
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

        ``scenario`` must be the checkpointed run's scenario (it holds
        the callables — aggregates, churn models, epoch hooks — that a
        checkpoint deliberately does not serialize); the ``backend``
        field may differ, which is how a run checkpointed under the
        sharded pool resumes in-process and vice versa. ``path`` may
        be a manifest, a payload file, or a checkpoint directory (the
        newest valid checkpoint wins).

        The checkpoint is validated before anything is built. The
        engine is then allocated around the checkpoint's matrix (the
        backend adopts it as it would an initial matrix) and loaded
        with the rest of its state: the scenario's initial state is
        never built and no randomness is drawn.
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
        scenario = self.scenario
        if (
            self._epochs is not None
            and self.cycle % self._epochs.cycles_per_epoch == 0
        ):
            if self.cycle > 0:
                self._finalize_epoch(self.cycle - 1)
            self._start_epoch(self.cycle)
        if scenario.crash_plan is not None:
            victims = scenario.crash_plan.crashing_at(self.cycle)
            if victims:
                self.crash(victims)
        if self._churn is not None:
            self._apply_churn()
        if self._adversary is not None:
            self._apply_adversary_state()
        rng = self._rng
        plan = self._plan
        plan.ensure(self.capacity)
        provider = self._provider
        # one body for static and dynamic overlays. On a static overlay
        # the participant mask *is* the alive mask (only crash() writes
        # either, and it writes both); isolated rows and eclipse
        # capture are static-only by Scenario validation, so under
        # churn / epochs those steps are inert.
        initiators = plan.initiators(
            self._participant, self._mask_version, exclude=self._isolated
        )
        if self._channel is not None:
            # due retries fire, and who waits on an outstanding
            # exchange sits the cycle out
            initiators = self._channel.begin_cycle(initiators)
        count = len(initiators)
        if self._dynamic and count < 2:
            # dynamic overlays draw among the current participants:
            # one alone has nobody to draw
            self.cycle += 1
            return 0
        provider.begin_cycle(initiators, self._alive, rng)
        partners = provider.draw(initiators, rng, plan.partners[:count])
        if self._eclipse is not None and self._adversary.active_at(
            self.cycle
        ):
            # eclipse capture: a victim's draw lands on its captor no
            # matter which neighbor it picked. The draw itself still
            # happens (same RNG consumption as without the adversary),
            # only the result is overridden.
            redirect = self._eclipse.take(initiators)
            captured = redirect >= 0
            if captured.any():
                partners[captured] = redirect[captured]
        if (self._mask_version == 0 and self._channel is None
                and not self._adversary_partition):
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
        if self._adversary_partition and self._adversary.active_at(
            self.cycle
        ):
            # targeted partition: exchanges crossing the
            # honest/adversarial boundary fail
            adv = self._adv_mask
            ok &= ~(adv.take(initiators) ^ adv.take(partners))
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
        every cycle (the figures' trajectories); ``record="end"``
        captures only the initial and final snapshot, keeping scale runs
        free of per-cycle reduction passes. Where the backend can take
        a reading behind the cycle it is still applying
        (:meth:`~repro.kernel.backends.ExecutionBackend.defer_moments`)
        the records are collected once, before returning, instead of
        draining the pipeline at every cycle. Epoch-restarted runs skip
        the per-instance records (the instance count may change every
        epoch) but always record the per-cycle ``alive_counts`` size
        trace and collect ``epoch_results``; an epoch that ends exactly
        at the cycle budget is finalized before returning.

        ``checkpoint`` enables periodic auto-checkpointing: after every
        ``spec.every_cycles`` completed cycles the engine writes a
        checkpoint to ``spec.directory`` (atomically — a crash mid-write
        never corrupts the last good one) and prunes to the ``spec.keep``
        newest. Checkpointing consumes no randomness, so the recorded
        trajectory is identical with or without it.
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
        epoch_mode = self._epochs is not None
        # like exchange_counts/alive_counts, epoch_results are per-run:
        # only epochs completed during *this* call are reported (the
        # engine-level epoch_results property stays cumulative)
        epochs_already_reported = len(self._epoch_results)
        phi_already_reported = len(self._phi_log)
        result = KernelRunResult(instance_names=self._names)
        # one entry per record point: the moments, or the backend's
        # ticket for them — collected only once the run is over, so
        # the pipeline is not drained at every point
        points: List[RecordPoint] = []
        if not epoch_mode:
            points.append(self._record_point())
        result.alive_counts.append(self.alive_count)
        per_cycle = record == "cycle"
        for _ in range(cycles):
            exchanges = self.run_cycle()
            if per_cycle:
                if not epoch_mode:
                    points.append(self._record_point())
                result.alive_counts.append(self.alive_count)
            result.exchange_counts.append(exchanges)
            if (
                checkpoint is not None
                and self.cycle % checkpoint.every_cycles == 0
            ):
                self.checkpoint(checkpoint.directory)
                if checkpoint.keep is not None:
                    prune_checkpoints(checkpoint.directory, checkpoint.keep)
        if not per_cycle and cycles > 0:
            if not epoch_mode:
                points.append(self._record_point())
            result.alive_counts.append(self.alive_count)
        if (
            epoch_mode
            and self.cycle > 0
            and self.cycle % self._epochs.cycles_per_epoch == 0
        ):
            # a run ending exactly on an epoch boundary publishes that
            # epoch's converged estimates
            self._finalize_epoch(self.cycle - 1)
        if not epoch_mode:
            for name in self._names:
                result.variances[name] = []
                result.means[name] = []
            for point in points:
                moments = point() if callable(point) else point
                for name, (variance, mean) in zip(self._names, moments):
                    result.variances[name].append(variance)
                    result.means[name].append(mean)
        result.epoch_results = self._epoch_results[epochs_already_reported:]
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
