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
:class:`~repro.kernel.adversary.AdversarySpec`, the spec is applied
entirely by :class:`~repro.kernel.engine.GossipEngine`:
fault coins come from the engine RNG, partial exchanges and duplicate
deliveries are engine-side matrix writes, and execution backends never
see the spec — so reference/vectorized/sharded stay bitwise-equal
under any fault configuration.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..fields import check_real, declare, validate_fields

#: a schedule maps a cycle number to that cycle's loss probability
LossSchedule = Callable[[int], float]

#: accepted :attr:`RetrySpec.mode` values
RETRY_MODES = ("retransmit", "redraw")

#: accepted :attr:`RetrySpec.fallback` values
RETRY_FALLBACKS = ("accept", "push_only")

#: longest backoff :meth:`RetrySpec.delay` reports: a retry this far
#: away never fires, and ``cycle + delay`` still fits the engine's
#: int64 timers
RETRY_NEVER = 2 ** 62


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
        attempt number an episode can reach, so the engine's per-slot
        backoff is one array lookup."""
        return np.array(
            [self.delay(attempt) for attempt in range(self.budget + 2)],
            dtype=np.int64,
        )
