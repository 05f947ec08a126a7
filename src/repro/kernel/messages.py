"""Message-level fault model for kernel scenarios.

The paper's practical-issues discussion is explicit that the clean §3
analysis assumes atomic push-pull: an exchange either happens at both
endpoints or at neither. Deployment breaks that in an *asymmetric* way
— the request and the reply travel on different link directions, and
losing them has very different consequences:

* a lost **request** silently cancels the exchange (neither endpoint
  changes; the initiator wasted a cycle),
* a lost **reply** executes the *partial* exchange the paper worries
  about: the partner already applied ``AGGREGATE(x_i, x_j)`` when it
  serviced the request, but the initiator never hears back and keeps
  its old value. For AGGREGATE_AVG this moves total system mass by
  ``(x_i - x_j) / 2`` per event — the mass-conservation invariant of
  §3 is violated and the converged estimate drifts off the true
  aggregate,
* a **duplicated** request re-applies a stale payload at the partner
  (the network delivered the datagram twice): one more one-sided
  combine, again moving mass.

:class:`MessageFaultSpec` declares these three fault processes with
independent probabilities — independent request/reply rates are what
makes the link *asymmetric* — plus optional per-cycle schedules
(``cycle -> probability`` callables; :func:`constant_loss` and
:func:`burst_loss` are the canonical factories). Like
:class:`~repro.kernel.adversary.AdversarySpec`, the spec never reaches
an execution backend: fault coins come from the engine RNG, partial
exchanges and duplicate deliveries are engine-side matrix writes — so
reference/vectorized/sharded stay bitwise-equal under any fault
configuration.

:class:`RetrySpec` adds the recovery protocol: timeout detection in
cycle units, retransmission (or a fresh partner draw through the
:class:`~repro.kernel.membership.PartnerProvider` layer), exponential
backoff under a retry budget, and a guarded push-only fallback that
trades convergence factor for mass safety. The retransmit mode repairs
mass *exactly*: the partner caches the combined value it computed when
it serviced the original request, a node with an outstanding exchange
neither initiates nor accepts new exchanges (its value is frozen), so
a successful retransmission delivers exactly the cached reply and the
pair ends the episode in the same state an atomic exchange would have
produced.

:class:`ExchangeChannel` is the whole layer in one object: both specs,
the event counts and the retry protocol's per-slot rows. The engine
builds one only when its scenario declares message faults and calls it
at four points: :meth:`~ExchangeChannel.begin_cycle` (the due retries,
and who sits the cycle out), :meth:`~ExchangeChannel.finish` (the
cycle's exchanges under the fault coins),
:meth:`~ExchangeChannel.forget` (nodes left) and
:meth:`~ExchangeChannel.reset` (an epoch restart).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..core.aggregates import MeanAggregate
from ..errors import ConfigurationError
from ..fields import check_real, declare, validate_fields
from .backends import GreedyScratch, apply_one_sided

#: a schedule maps a cycle number to that cycle's loss probability
LossSchedule = Callable[[int], float]

#: accepted :attr:`RetrySpec.mode` values
RETRY_MODES = ("retransmit", "redraw")

#: accepted :attr:`RetrySpec.fallback` values
RETRY_FALLBACKS = ("accept", "push_only")

#: longest backoff :meth:`RetrySpec.delay` reports: a retry this far
#: away never fires, and ``cycle + delay`` still fits the channel's
#: int64 timers
RETRY_NEVER = 2 ** 62

#: the event counts of :attr:`GossipEngine.message_fault_stats
#: <repro.kernel.engine.GossipEngine.message_fault_stats>`
MESSAGE_COUNTERS = ("partials", "duplicates", "repairs", "retries", "giveups")


def constant_loss(p: float) -> LossSchedule:
    """A schedule that always returns ``p``."""
    check_real(p, "loss probability", low=0, high=1)

    def schedule(cycle: int) -> float:
        return p

    return schedule


def burst_loss(p_background: float, p_burst: float, burst_start: int,
               burst_end: int) -> LossSchedule:
    """Background loss with a heavier burst during
    ``[burst_start, burst_end)``."""
    check_real(p_background, "p_background", low=0, high=1)
    check_real(p_burst, "p_burst", low=0, high=1)
    if burst_start > burst_end:
        raise ConfigurationError("burst_start must not exceed burst_end")

    def schedule(cycle: int) -> float:
        return p_burst if burst_start <= cycle < burst_end else p_background

    return schedule


def exchange_loss(p: float) -> Optional[MessageFaultSpec]:
    """The paper's failed exchange with probability ``p``, as message
    faults: a lost request cancels the exchange at both ends. ``None``
    at ``p == 0``, so a loss-free run keeps the engine's fast path.
    A recipe's scenario takes it through
    ``scenario.replace(message_faults=exchange_loss(p))``."""
    return MessageFaultSpec(request_loss=p) if p else None


def _schedule_value(name: str, schedule: LossSchedule, cycle: int) -> float:
    p = float(schedule(cycle))
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(
            f"{name} schedule returned {p} at cycle {cycle}"
        )
    return p


@dataclass(frozen=True)
class MessageFaultSpec:
    """One message-fault configuration, fully specified.

    Parameters
    ----------
    request_loss:
        Probability that an exchange's request datagram is lost. A lost
        request cancels the exchange silently; with a
        :class:`RetrySpec` the initiator times out and retries.
    reply_loss:
        Probability that the reply is lost *after* the partner applied
        the request — the partial exchange. The partner keeps the
        combined value, the initiator keeps its old one, and total mass
        drifts by the difference.
    duplication:
        Probability that a delivered request is delivered *twice*. The
        duplicate carries the same stale payload (the initiator's value
        when the request was sent, i.e. at the start of the cycle) and
        is serviced after the cycle's regular exchanges — one more
        one-sided combine at the partner.
    request_schedule, reply_schedule:
        Optional ``cycle -> probability`` overrides for the two loss
        rates (:func:`constant_loss` / :func:`burst_loss` are the
        factories); ``duplication`` is a constant rate.
    start, end:
        Half-open active cycle window ``[start, end)``; ``end=None``
        means the faults never stop. Outside the window no fault coin
        is drawn at all, so a spec with an empty effective window is
        bitwise-inert.

    A probability of exactly ``0.0`` (and no schedule) consumes no RNG
    for that fault process, so adding an all-zero spec leaves a run's
    trajectory bitwise-identical to the same scenario without one.
    """

    request_loss: float = declare("real", 0.0, low=0, high=1)
    reply_loss: float = declare("real", 0.0, low=0, high=1)
    duplication: float = declare("real", 0.0, low=0, high=1)
    request_schedule: Optional[LossSchedule] = declare("callable", None)
    reply_schedule: Optional[LossSchedule] = declare("callable", None)
    start: int = declare("count", 0, low=0)
    end: Optional[int] = declare("count", None, low=1)

    def __post_init__(self) -> None:
        validate_fields(self)
        if self.end is not None and self.end <= self.start:
            raise ConfigurationError(
                f"message-fault window [{self.start}, {self.end}) is empty"
            )

    def active_at(self, cycle: int) -> bool:
        """Whether any fault coin is drawn at ``cycle``."""
        if cycle < self.start:
            return False
        return self.end is None or cycle < self.end

    def rates_at(self, cycle: int) -> Tuple[float, float, float]:
        """Effective ``(request loss, reply loss, duplication)``
        probabilities at ``cycle``: the schedules where given, all zero
        outside the active window."""
        if not self.active_at(cycle):
            return 0.0, 0.0, 0.0
        request, reply = self.request_loss, self.reply_loss
        if self.request_schedule is not None:
            request = _schedule_value(
                "request_loss", self.request_schedule, cycle
            )
        if self.reply_schedule is not None:
            reply = _schedule_value("reply_loss", self.reply_schedule, cycle)
        return request, reply, self.duplication


@dataclass(frozen=True)
class RetrySpec:
    """The recovery protocol for timed-out exchanges.

    An initiator whose exchange produced no reply (request lost, reply
    lost, or the partner was busy with its own outstanding exchange)
    becomes *pending*: it stops initiating and refuses partnership —
    its value is frozen — until the episode resolves. After ``timeout``
    cycles it retries; each failed attempt multiplies the next delay by
    ``backoff``; after ``budget`` failed retries it gives up via
    ``fallback``.

    Parameters
    ----------
    timeout:
        Cycles the initiator waits before the first retry (>= 1 — the
        synchronous model cannot detect a loss faster than the next
        cycle).
    budget:
        Maximum number of retries before the fallback applies. A budget
        of 0 falls back immediately after the first timeout.
    backoff:
        Exponential backoff multiplier (>= 1): retry ``a`` fires
        ``ceil(timeout * backoff**a)`` cycles after attempt ``a`` failed.
    mode:
        ``"retransmit"`` (default) resends to the *same* partner. The
        partner deduplicates: if it already serviced the original
        request it resends the cached combined value, so a delivered
        retransmission repairs the partial exchange's mass drift
        exactly. ``"redraw"`` draws a *fresh* partner through the
        engine's :class:`~repro.kernel.membership.PartnerProvider` and
        starts a new exchange — this restores convergence speed but
        never repairs mass a lost reply already drifted.
    fallback:
        What a node does when the budget is exhausted: ``"accept"``
        (default) unblocks and rejoins the protocol, accepting the
        residual drift; ``"push_only"`` permanently stops *initiating*
        (it still responds to others) — the guarded mode that trades
        its own convergence contribution for never again risking a
        partial exchange it initiated.
    """

    timeout: int = declare("count", 1, low=1)
    budget: int = declare("count", 3, low=0)
    backoff: float = declare("real", 2.0, low=1)
    mode: str = declare("choice", "retransmit", choices=RETRY_MODES)
    fallback: str = declare("choice", "accept", choices=RETRY_FALLBACKS)

    __post_init__ = validate_fields

    def delay(self, attempt: int) -> int:
        """Cycles until the next retry after ``attempt`` failures
        (at most :data:`RETRY_NEVER`)."""
        try:
            cycles = math.ceil(self.timeout * self.backoff ** attempt)
        except OverflowError:
            return RETRY_NEVER
        return max(1, min(cycles, RETRY_NEVER))

    def delay_table(self) -> np.ndarray:
        """:meth:`delay` for ``attempt`` in ``0 .. budget + 1`` — every
        attempt number an episode can reach, so the channel's per-slot
        backoff is one array lookup."""
        return np.array(
            [self.delay(attempt) for attempt in range(self.budget + 2)],
            dtype=np.int64,
        )


#: the channel's rows of the engine's slot table
#: (``repro.kernel.engine._SLOT_STATE``, same columns), held by the
#: channel: the retry protocol's pending exchange, per initiator —
#: partner (-1: none outstanding), phase (1 = awaiting any contact, 2 =
#: the partner holds a cached combined value, 3 = the partner left: no
#: retransmission can reach it), attempts burned, cycle
#: of the next retry, the cached reply row and the request row it
#: answered (a delivered retransmission repairs mass from these two),
#: and the permanent push-only fallback flag
CHANNEL_SLOTS = (
    ("_mf_partner", "mf_partner", np.int64, -1, False, "_channel"),
    ("_mf_kind", "mf_kind", np.int8, 0, False, "_channel"),
    ("_mf_attempt", "mf_attempt", np.int64, 0, False, "_channel"),
    ("_mf_due", "mf_due", np.int64, 0, False, "_channel"),
    ("_mf_cache", "mf_cache", np.float64, 0.0, True, "_channel"),
    ("_mf_sent", "mf_sent", np.float64, 0.0, True, "_channel"),
    ("_mf_push_only", "mf_push_only", bool, False, False, "_channel"),
)


def fresh_slots(shape, dtype, fill) -> np.ndarray:
    """What fresh capacity holds for one row of the slot table (zeros
    stay ``np.zeros``: pages nobody wrote cost nothing)."""
    if fill:
        return np.full(shape, fill, dtype=dtype)
    return np.zeros(shape, dtype=dtype)


class ExchangeChannel:
    """The message layer of one engine (see the module docstring),
    with the retry rows :data:`CHANNEL_SLOTS`. Like a
    :class:`~repro.kernel.membership.PartnerProvider` it is bound to
    that engine, and it reads these engine attributes and no others:
    ``cycle``, ``_rng``, ``_matrix``, ``_functions``, ``_backend``,
    ``_plan``, ``_provider``, ``_participant``, ``_monitor_entries``
    and ``_ledger_add``.
    """

    def __init__(self, faults: MessageFaultSpec,
                 retry: Optional[RetrySpec]):
        self._faults = faults
        self._retry = retry
        # backoff delays by attempt number (attempts never pass budget)
        self._delays = None if retry is None else retry.delay_table()
        # segmentation scratch of the one-sided writes
        self._scratch = GreedyScratch()
        self.stats: Dict[str, int] = dict.fromkeys(MESSAGE_COUNTERS, 0)
        # the slot rows, kept with a retry policy only: reset()
        # allocates them, or a restore loads them
        if retry is not None:
            for attr, *_ in CHANNEL_SLOTS:
                setattr(self, attr, None)

    def bind(self, engine) -> None:
        self._engine = engine

    def unbind(self) -> None:
        self._engine = None

    @property
    def pending_count(self) -> int:
        """Nodes currently blocked on an outstanding exchange."""
        if self._retry is None:
            return 0
        return int(np.count_nonzero(self._mf_partner >= 0))

    def reset(self, capacity: int, k: int) -> None:
        """(Re-)allocate the slot rows for ``capacity`` slots and ``k``
        columns: nothing outstanding anywhere (a no-op without a retry
        policy, which keeps no rows)."""
        if self._retry is None:
            return
        for attr, _, dtype, fill, per_column, _ in CHANNEL_SLOTS:
            shape = (capacity, k) if per_column else (capacity,)
            setattr(self, attr, fresh_slots(shape, dtype, fill))

    def forget(self, slots) -> None:
        """``slots``' nodes left (crash or churn): their outstanding
        exchanges die with them, and so does push-only, so whoever
        recycles a slot starts with a clean protocol state. Episodes
        aimed *at* them become kind 3: a joiner recycling the slot is a
        new node and must not answer for the one that left, so those
        retries stay unanswered until the budget gives up."""
        if self._retry is not None:
            self._clear_pending(slots)
            self._mf_push_only[slots] = False
            self._mf_kind[np.isin(self._mf_partner, slots)] = 3

    def begin_cycle(self, initiators: np.ndarray) -> np.ndarray:
        """Fire every due retry and return ``initiators`` minus the
        slots that sit this cycle out: pending or push-only *before*
        the retries — a node whose exchange resolves this cycle (repair
        or give-up) sits it out, its retry already was its protocol
        action."""
        if self._retry is None:
            return initiators
        blocked = (self._mf_partner >= 0) | self._mf_push_only
        self._process_retries()
        if not blocked.any():
            return initiators
        return initiators.compress(~blocked.take(initiators))

    def _loss_coins(self, count: int, p: float) -> np.ndarray:
        """The one loss-coin idiom every stochastic drop shares: a
        boolean survival mask (``True`` = delivered) from one batched
        uniform draw. ``p == 0`` consumes no RNG and returns all-True,
        so inactive fault processes leave the stream untouched; every
        caller draws ``rng.random(count)`` against the same threshold
        rule, so coins can never diverge between the fault path and
        the retry path."""
        if p <= 0.0:
            return np.ones(count, dtype=bool)
        return self._engine._rng.random(count) >= p

    def finish(self, initiators: np.ndarray, partners: np.ndarray,
               ok: np.ndarray) -> int:
        """Apply this cycle's surviving exchanges under the fault coins
        (the module docstring says what each fault does) and return the
        full + partial exchange count: a partial did change system
        state, a silently cancelled exchange did not.

        ``ok`` is the survival mask (dead partner, partitions). The
        coins layer on top of it in fixed RNG order *request, reply,
        duplication*, so trajectories are reproducible across backends
        and retry configurations; a process at probability 0 draws no
        coins and skips its masks. The atomic exchanges go through the
        execution backend's batch like any other, the partial ones and
        the duplicates are one-sided writes after it. A *busy* partner
        (one with its own outstanding exchange: its value is frozen)
        refuses with a NACK on the reply coin, a clean failure unless
        the NACK is lost too. With a :class:`RetrySpec` every initiator
        that heard *nothing* becomes pending — a partial's initiator
        too, since a lost reply and a lost request look identical from
        its side.
        """
        engine = self._engine
        retry = self._retry
        count = len(initiators)
        p_request, p_reply, p_dup = self._faults.rates_at(engine.cycle)
        delivered = ok & self._loss_coins(count, p_request)
        rep_ok = self._loss_coins(count, p_reply) if p_reply > 0.0 else None
        dup = ~self._loss_coins(count, p_dup) if p_dup > 0.0 else None
        nacked = None
        if retry is not None:
            busy = (self._mf_partner >= 0).take(partners)
            refused = delivered & busy
            delivered &= ~busy
            # a surviving NACK tells the initiator the exchange did not
            # happen — a clean failure, not a timeout
            nacked = refused if rep_ok is None else refused & rep_ok
        # masks decide, index lists move: each exchange class becomes a
        # list of positions once, and every gather below is a take
        full = delivered
        partial_at = dup_at = np.empty(0, dtype=np.intp)
        if rep_ok is not None:
            full = delivered & rep_ok
            partial_at = np.flatnonzero(delivered & ~rep_ok)
        if dup is not None:
            dup_at = np.flatnonzero(dup & delivered)
        partial_count = len(partial_at)
        backend = engine._backend
        if len(dup_at) or partial_count:
            # engine-side matrix writes ahead: drain in-flight work so
            # reads see this cycle's true pre-state
            backend.sync()
        if len(dup_at):
            # the duplicate carries the payload the initiator *sent* —
            # its row before any of this cycle's exchanges applied
            dup_i = initiators.take(dup_at)
            payload = engine._matrix.take(dup_i, axis=0)
        exch_i, exch_j = engine._plan.compact(initiators, partners, full)
        backend.apply_exchanges(
            engine._matrix, engine._functions, exch_i, exch_j
        )
        if partial_count:
            backend.sync()
            partial_i = initiators.take(partial_at)
            partial_j = partners.take(partial_at)
            combined, sent = self._apply_one_sided(
                "partial", partial_i, partial_j
            )
        if len(dup_at):
            backend.sync()
            self._apply_one_sided(
                "duplicate", dup_i, partners.take(dup_at), payload=payload
            )
        if retry is not None:
            unanswered_at = np.flatnonzero(ok & ~full & ~nacked)
            if len(unanswered_at):
                slots = initiators.take(unanswered_at)
                self._mf_partner[slots] = partners.take(unanswered_at)
                self._mf_kind[slots] = 1
                self._mf_attempt[slots] = 0
                self._mf_due[slots] = engine.cycle + self._delays[0]
                if partial_count:
                    self._strand(partial_i, partial_j, combined, sent)
        return len(exch_i) + partial_count

    def _strand(self, slots: np.ndarray, partners: np.ndarray,
                combined: np.ndarray, sent: np.ndarray) -> None:
        """``partners`` serviced the requests of ``slots`` but the
        replies were lost: the episodes become cached partials (kind
        2), and a retransmission is answered from the cache."""
        self._mf_partner[slots] = partners
        self._mf_kind[slots] = 2
        self._mf_cache[slots] = combined
        self._mf_sent[slots] = sent

    def _apply_one_sided(
        self,
        kind: str,
        fi: np.ndarray,
        fj: np.ndarray,
        adopt_i: Optional[np.ndarray] = None,
        payload: Optional[np.ndarray] = None,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """The one-sided exchange kernel: the partner ``fj`` always
        adopts ``AGGREGATE(sent, x_j)`` (it serviced the request); the
        initiator adopts it only where the reply survived (``adopt_i``)
        — nowhere (``None``) for a cycle's reply-lost exchanges, on
        some rows for the fresh exchanges of retrying initiators.
        ``sent`` is the initiator's row, or the stale ``payload`` row a
        duplicated request carried (serviced after the cycle's regular
        exchanges: the network redelivered the datagram late). Applied
        in list order, an exchange seeing every earlier write, through
        the backends' own execution plan
        (:func:`~repro.kernel.backends.base.apply_one_sided`).

        ``kind`` (``"partial"`` or ``"duplicate"``) names the ledger
        entry that takes the mass the non-adopting steps moved — the
        atomic subset conserves it — and the counter that takes their
        number. Returns ``(combined, sent)``: the combined rows and the
        initiator rows they answered, which the retry protocol caches
        as the partner's pending reply (``None`` when nothing will)."""
        engine = self._engine
        delta, combined, sent = apply_one_sided(
            engine._matrix, engine._functions, fi, fj, self._scratch,
            adopt_i=adopt_i, payload=payload,
            collect=self._retry is not None and payload is None,
        )
        if engine._monitor_entries:
            engine._ledger_add(kind, delta)
        stranded = len(fi)
        if adopt_i is not None:
            stranded -= int(np.count_nonzero(adopt_i))
        self.stats[kind + "s"] += stranded
        return combined, sent

    def _apply_repairs(self, slots: np.ndarray) -> None:
        """Deliver a retransmitted cached reply to each initiator in
        ``slots``: the initiator finally completes the exchange it
        requested with value ``sent`` and got reply ``cache`` for.

        For mean columns it applies the exchange as the *increment*
        ``x += cache - sent`` — together with the partner's recorded
        partial this sums to exactly zero mass, even if the initiator's
        value moved in between (it can have served as a partner in the
        very cycle its own exchange went partial — concurrent messages
        were already in flight). When the initiator's value is still
        frozen at ``sent`` (the common case) this reduces to adopting
        ``cache`` outright. Non-mean columns merge the late reply
        through AGGREGATE, which is the protocol-natural move for the
        idempotent combiners (max/min)."""
        engine = self._engine
        matrix = engine._matrix
        cache = self._mf_cache[slots]
        sent = self._mf_sent[slots]
        old = matrix[slots]
        repaired = np.empty_like(cache)
        for column, function in enumerate(engine._functions):
            if isinstance(function, MeanAggregate):
                repaired[:, column] = old[:, column] + (
                    cache[:, column] - sent[:, column]
                )
            else:
                repaired[:, column] = function.combine_array(
                    cache[:, column], old[:, column]
                )
        matrix[slots] = repaired
        if engine._monitor_entries:
            engine._ledger_add("repair", (repaired - old).sum(axis=0))
        self.stats["repairs"] += len(slots)

    def _clear_pending(self, slots: np.ndarray) -> None:
        """Resolve the outstanding episodes of ``slots``. The cached
        rows need no clearing (``mf_kind`` gates every read of them);
        ``push_only`` is permanent for a node and goes only with it
        (:meth:`forget`)."""
        self._mf_partner[slots] = -1
        self._mf_kind[slots] = 0
        self._mf_attempt[slots] = 0
        self._mf_due[slots] = 0

    def _process_retries(self) -> None:
        """Fire every pending exchange whose backoff timer is due.

        Runs at the top of the cycle, before this cycle's partner
        draws. Per due initiator, in slot order:

        1. Budget check — an initiator that already burned its retry
           budget gives up *now* via the spec's fallback (``accept``:
           rejoin and keep the drift; ``push_only``: permanently stop
           initiating). No coins are drawn for it.
        2. Target — ``retransmit`` resends to the recorded partner,
           ``redraw`` draws a fresh one through the partner provider.
        3. Coins — request then reply, from the shared loss-coin
           helper; a dead target is unreachable, and a target that is
           itself pending refuses *fresh* exchanges (its value is
           frozen) but still answers retransmissions from its cache.
        4. Outcome — a contacted partner that already serviced the
           original request (kind 2, retransmit mode) answers from its
           cached combined value: the initiator adopting it repairs the
           partial's mass drift *exactly*. A kind-1 retransmission runs
           a fresh exchange (:meth:`_apply_one_sided`), as does every
           redraw; a kind-3 one (the partner left) reaches nobody.
           Unresolved episodes back off exponentially and burn one
           attempt.
        """
        retry = self._retry
        pending = self._mf_partner >= 0
        if not pending.any():
            return
        engine = self._engine
        cycle = engine.cycle
        due = np.flatnonzero(pending & (self._mf_due <= cycle))
        if len(due) == 0:
            return
        engine._backend.sync()
        exhausted = self._mf_attempt.take(due) >= retry.budget
        if exhausted.any():
            spent = due[exhausted]
            if retry.fallback == "push_only":
                self._mf_push_only[spent] = True
            self._clear_pending(spent)
            self.stats["giveups"] += len(spent)
            due = due[~exhausted]
        n = len(due)
        if n == 0:
            return
        self.stats["retries"] += n
        if retry.mode == "redraw":
            targets = engine._provider.redraw(
                due.astype(np.int32), engine._rng,
                np.empty(n, dtype=np.int32),
            ).astype(np.int64)
        else:
            targets = self._mf_partner.take(due)
        p_request, p_reply, _ = self._faults.rates_at(cycle)
        req_ok = self._loss_coins(n, p_request)
        rep_ok = self._loss_coins(n, p_reply)
        reachable = req_ok & engine._participant.take(targets)
        # a fresh exchange needs a partner that is free to combine; a
        # kind-2 retransmission only needs the partner's *cache*, which
        # it serves without touching its own (possibly frozen) state —
        # otherwise a saturated loss burst deadlocks the whole network
        # into mutually-refusing pending nodes
        available = reachable & ~pending.take(targets)
        resolved = np.zeros(n, dtype=bool)
        if retry.mode == "retransmit":
            cached = reachable & (self._mf_kind.take(due) == 2)
            repaired = cached & rep_ok
            if repaired.any():
                self._apply_repairs(due[repaired])
                resolved |= repaired
            fresh = available & (self._mf_kind.take(due) == 1)
        else:
            # a redraw abandons the old episode: any cached reply at
            # the original partner is stale and never collected
            fresh = available
        if fresh.any():
            adopt = rep_ok[fresh]
            combined, sent = self._apply_one_sided(
                "partial", due[fresh], targets[fresh], adopt
            )
            resolved |= fresh & rep_ok
            stranded = fresh & ~rep_ok
            if stranded.any():
                # the partner serviced this retry but the reply was
                # lost: the episode is now a cached partial against the
                # *new* target
                self._strand(due[stranded], targets[stranded],
                             combined[~adopt], sent[~adopt])
        if resolved.any():
            self._clear_pending(due[resolved])
        unresolved = ~resolved
        if unresolved.any():
            slots = due[unresolved]
            attempts = self._mf_attempt.take(slots) + 1
            self._mf_attempt[slots] = attempts
            self._mf_due[slots] = cycle + self._delays[attempts]
