"""Kernel-hosted membership: the pluggable partner-draw layer.

The paper's aggregation analysis assumes every node can sample a
uniformly random peer, and its practical-issues discussion (§1.2) is
explicit that real deployments get peers from a gossip membership
protocol such as Newscast — not from a global oracle. This module
hosts that layer on the kernel as a **PartnerProvider**: the single
object :class:`~repro.kernel.engine.GossipEngine` asks for partners
each cycle.

Two providers exist:

* :class:`OracleProvider` — the historical draw path, bit for bit:
  static scenarios draw through
  ``topology.random_neighbor_array(initiators, rng, out=...)`` and
  dynamic (churn/epoch) scenarios draw uniformly among current
  participants with the self-pick shift. The provider consumes the
  engine RNG in exactly the order the inlined code did, so every
  pre-existing trajectory is reproduced bitwise.
* :class:`NewscastProvider` — partial views. Each node holds a
  ``view_size`` row of an int32 ``(capacity, view_size)`` matrix,
  recency-ordered (youngest first). Once per cycle every participant
  initiates a view exchange with a random entry of its own view; the
  two merge by interleaving their recency-ordered views behind fresh
  entries of each other and keeping the first ``view_size`` distinct
  peers, so old entries drift off the tail without any per-entry age
  bookkeeping. Aggregation partners are then drawn from
  the views — no global oracle anywhere. The merge batches run through
  the backends' node-disjoint segmentation primitives
  (:meth:`~repro.kernel.backends.ExecutionBackend
  .apply_view_exchanges`), so reference, vectorized and sharded
  execution produce bitwise-identical view matrices.

Every piece of randomness — bootstrap views, per-cycle exchange picks,
joiner contact lists, partner draws — comes from the engine's RNG in a
fixed order, which is what keeps the cross-backend equivalence
contract intact: the view matrix is one row of the engine's slot table
(``_SLOT_STATE``, the one home of per-slot state) exactly like the
alive mask, and backends only ever execute deterministic plans over
it. The view matrix is also ``sync()``-safe by construction: it
shares no storage with the backend's value matrix, so view merges may
overlap a pipelined sharded cycle still in flight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import ConfigurationError
from ..fields import check_count, declare, validate_fields

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import GossipEngine

#: membership layers selectable by name (``Scenario.membership``,
#: ``--membership`` on the CLI)
MEMBERSHIP_NAMES = ("oracle", "newscast")

#: the paper's Newscast experiments keep 20 entries per view
DEFAULT_VIEW_SIZE = 20


@dataclass(frozen=True)
class NewscastSpec:
    """Declarative configuration of the Newscast partner provider.

    Parameters
    ----------
    view_size:
        Entries kept per node (the paper's experiments use 20). The
        effective size is capped at ``n - 1`` for tiny networks.

    Views refresh once every aggregation cycle, as in the paper.
    """

    view_size: int = declare("count", DEFAULT_VIEW_SIZE, low=1)

    __post_init__ = validate_fields


def resolve_membership(membership) -> Optional[NewscastSpec]:
    """Normalize ``Scenario.membership``: ``None``/``"oracle"`` mean
    the oracle draw path (returns ``None``), ``"newscast"`` the default
    Newscast spec, and a :class:`NewscastSpec` passes through."""
    if membership is None or membership == "oracle":
        return None
    if membership == "newscast":
        return NewscastSpec()
    if isinstance(membership, NewscastSpec):
        return membership
    raise ConfigurationError(
        f"membership must be one of {MEMBERSHIP_NAMES} or a "
        f"NewscastSpec, got {membership!r}"
    )


class NewscastViews:
    """The int32 ``(capacity, view_size)`` partial-view matrix and its
    batched maintenance, the state behind :class:`NewscastProvider`.

    Rows are recency-ordered: column 0 is the youngest entry. The merge
    rule for an exchange between ``a`` and ``b`` builds each side's new
    view from the candidate sequence ``[partner, own[0], partner's[0],
    own[1], partner's[1], …]`` with self-entries rewritten to the
    partner, keeping the first ``view_size`` *distinct* candidates.
    Since both inputs are recency-ordered the interleave is an
    approximate merge-by-age with no per-entry age storage; the dedup
    keeps views diverse (duplicates only pad a view when the two sides
    overlap almost completely), and self-loops never occur (the
    invariant holds inductively: bootstrap excludes self, merges
    rewrite self to the partner). All randomness is drawn from the RNG
    the caller passes in.

    The matrix is the ``views`` row of the engine's slot table
    (``repro.kernel.engine._SLOT_STATE``), held here the way the
    message channel holds its retry rows: the engine's table loops grow
    it (fresh rows hold -1, never read — a slot's row is seeded by
    :meth:`seed_rows` before the slot can initiate or be picked alive,
    which the merge kernel relies on), checkpoint it, restore it (entries
    outside ``[-1, capacity)`` are refused) and audit its length.
    """

    def __init__(self, n: int, view_size: int):
        check_count(n, "newscast views capacity", low=2)
        check_count(view_size, "view_size", low=1)
        # the row width, fixed by the initial network of n nodes
        self.view_size = min(int(view_size), n - 1)
        self._n = n
        # the views row: drawn by bootstrap(), or a checkpoint's
        self.views: Optional[np.ndarray] = None
        # per-cycle scratch (peer picks and their liveness), sized by
        # the largest exchange count so far: not a slot row
        self._peers = np.empty(0, dtype=np.int32)
        self._ok = np.empty(0, dtype=bool)

    def bootstrap(self, rng: np.random.Generator) -> "NewscastViews":
        """Each of the ``n`` initial nodes knows ``view_size`` random
        other nodes (self-collisions shift to the next slot, keeping
        the no-self invariant with a single vectorized draw; only the
        clashing entries are rewritten — two matrix-sized temporaries
        here were most of the page faults of a small run's set-up)."""
        n = self._n
        views = rng.integers(0, n, size=(n, self.view_size), dtype=np.int32)
        clash = views == np.arange(n, dtype=np.int32)[:, None]
        views[clash] = (views[clash] + 1) % n
        self.views = views
        return self

    @property
    def capacity(self) -> int:
        return self.views.shape[0]

    def seed_rows(
        self, slots: np.ndarray, alive: np.ndarray, rng: np.random.Generator
    ) -> None:
        """Bootstrap joiners' views with random alive contacts — the
        standard "a joiner knows at least one node already in the
        network" assumption. Self-collisions shift to the next alive
        node (degenerate single-node networks keep the self entry;
        no exchange can happen there anyway)."""
        m = len(slots)
        if m == 0:
            return
        alive_ids = np.flatnonzero(alive).astype(np.int32)
        count = len(alive_ids)
        positions = rng.integers(
            0, count, size=(m, self.view_size), dtype=np.int64
        )
        contacts = alive_ids[positions]
        if count >= 2:
            clash = contacts == np.asarray(slots, dtype=np.int32)[:, None]
            np.copyto(
                contacts, alive_ids[(positions + 1) % count], where=clash
            )
        self.views[slots] = contacts

    def draw_partners(
        self,
        initiators: np.ndarray,
        rng: np.random.Generator,
        out: np.ndarray,
    ) -> np.ndarray:
        """Each initiator's aggregation partner: a uniformly random
        entry of its own view, gathered in one flat ``take``."""
        count = len(initiators)
        picks = (rng.random(count) * self.view_size).astype(np.int64)
        np.minimum(picks, self.view_size - 1, out=picks)
        picks += initiators.astype(np.int64) * self.view_size
        np.take(self.views.ravel(), picks, out=out)
        return out

    def refresh(
        self,
        initiators: np.ndarray,
        alive: np.ndarray,
        rng: np.random.Generator,
        backend,
    ) -> int:
        """One view-exchange cycle: every initiator picks a random
        entry of its view; picks landing on dead nodes fail (stale
        entries age out passively), the rest merge through the
        backend's node-disjoint batch primitives. Returns the number
        of successful exchanges."""
        count = len(initiators)
        if count == 0:
            return 0
        if len(self._peers) < count:
            self._peers = np.empty(count, dtype=np.int32)
            self._ok = np.empty(count, dtype=bool)
        peers = self._peers[:count]
        self.draw_partners(initiators, rng, out=peers)
        ok = self._ok[:count]
        np.take(alive, peers, out=ok)
        if ok.all():
            exch_i, exch_j = initiators, peers
        else:
            exch_i = initiators[ok]
            exch_j = peers[ok]
        backend.apply_view_exchanges(self.views, exch_i, exch_j)
        return len(exch_i)

    def in_degree_distribution(self) -> np.ndarray:
        """How many view entries point at each node (duplicate entries
        counted) — flatness indicates the overlay is close to random."""
        return np.bincount(
            self.views.ravel()[self.views.ravel() >= 0],
            minlength=self.capacity,
        )


class PartnerProvider:
    """The kernel's partner-draw protocol.

    A provider is bound to one :class:`GossipEngine` and owns how each
    cycle's partners come to be: :meth:`begin_cycle` runs the
    membership protocol's own gossip (a no-op for the oracle),
    :meth:`draw` fills the engine's preallocated partner buffer, and
    :meth:`on_join` seeds the per-node state of churn's joiners. That
    state, if any, is :attr:`views`: rows of the engine's slot table,
    which the engine grows, checkpoints and restores like every other
    row, so a provider has no growth or restore hook of its own.

    All provider randomness must come from the RNG arguments (the
    engine's stream) so backend swaps never perturb trajectories;
    provider state must never alias backend-owned storage, which is
    what makes it safe to touch while a pipelined sharded cycle is
    still in flight (the ``sync()``-safe surface).
    """

    #: identifier used by Scenario.membership and reports
    name: str = "abstract"
    #: whether :meth:`draw` guarantees alive, participating partners
    #: (the oracle's dynamic draw does: it picks among the initiators;
    #: topology and view draws can land on crashed or departed nodes
    #: and need the engine's participant filter)
    draws_valid_participants: bool = False
    #: the holder of the provider's slot-table row (``views`` in
    #: ``repro.kernel.engine._SLOT_STATE``), or ``None`` for a provider
    #: that keeps no per-node state (the oracle)
    views: Optional[NewscastViews] = None

    def bind(self, engine: "GossipEngine") -> None:
        """Attach to ``engine`` (called once, at engine construction,
        before any slot state exists; draws nothing — the engine seeds
        :attr:`views` itself, or loads a checkpoint's)."""
        self._engine = engine

    def unbind(self) -> None:
        """Drop the back-reference (called by ``GossipEngine.close``):
        engine and provider refer to each other, and a closed engine's
        matrices should go with its last reference instead of waiting
        for the cyclic collector. Provider state stays readable."""
        self._engine = None

    def begin_cycle(
        self,
        initiators: np.ndarray,
        alive: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Run the membership layer's own per-cycle gossip."""

    def draw(
        self,
        initiators: np.ndarray,
        rng: np.random.Generator,
        out: np.ndarray,
    ) -> np.ndarray:
        """Draw one partner per initiator into ``out`` and return it."""
        raise NotImplementedError

    def redraw(
        self,
        requesters: np.ndarray,
        rng: np.random.Generator,
        out: np.ndarray,
    ) -> np.ndarray:
        """Draw a fresh partner for ``requesters`` outside the regular
        cycle draw — the retry protocol's ``redraw`` mode. Defaults to
        the ordinary draw; providers whose :meth:`draw` interprets its
        argument as the *candidate pool* rather than per-node state
        (the dynamic oracle) must override it."""
        return self.draw(requesters, rng, out)

    def on_join(self, slots: np.ndarray, rng: np.random.Generator) -> None:
        """Slots were (re)admitted by churn; seed any per-node state."""


class OracleProvider(PartnerProvider):
    """The historical draw path, preserved bit for bit.

    Static scenarios draw through the topology's vectorized CSR/complete
    draw; dynamic (churn/epoch) scenarios draw a uniformly random
    *other* participant with the self-pick shift. Both consume the
    engine RNG exactly as the previously inlined code did, so every
    existing trajectory — and every cross-backend equivalence — is
    unchanged.
    """

    name = "oracle"

    def bind(self, engine: "GossipEngine") -> None:
        super().bind(engine)
        self._topology = engine.scenario.topology
        self._dynamic = engine.scenario.is_dynamic
        self.draws_valid_participants = self._dynamic

    def draw(
        self,
        initiators: np.ndarray,
        rng: np.random.Generator,
        out: np.ndarray,
    ) -> np.ndarray:
        if not self._dynamic:
            return self._topology.random_neighbor_array(
                initiators, rng, out=out
            )
        # the paper's uniform overlay over current participants: each
        # initiator draws a uniformly random *other* participant
        # (self-picks shift to the next position)
        count = len(initiators)
        positions = rng.integers(0, count, size=count)
        clash = positions == np.arange(count)
        if clash.any():
            positions[clash] = (positions[clash] + 1) % count
        np.take(initiators, positions, out=out)
        return out

    def redraw(
        self,
        requesters: np.ndarray,
        rng: np.random.Generator,
        out: np.ndarray,
    ) -> np.ndarray:
        if not self._dynamic:
            return self._topology.random_neighbor_array(
                requesters, rng, out=out
            )
        # the dynamic draw above samples among the *passed* array (in
        # the regular cycle that array IS the participant set); a
        # retrying subset must still draw among all current
        # participants, with self-picks shifted the same way
        engine = self._engine
        pool = engine._plan.initiators(
            engine._participant, engine._mask_version
        )
        positions = rng.integers(0, len(pool), size=len(requesters))
        np.take(pool, positions, out=out)
        clash = out == requesters
        if clash.any():
            positions[clash] = (positions[clash] + 1) % len(pool)
            out[clash] = pool[positions[clash]]
        return out


class NewscastProvider(PartnerProvider):
    """Partner draws from gossip-maintained partial views.

    Holds a :class:`NewscastViews` matrix over engine slots (its
    :attr:`~PartnerProvider.views`). Each cycle
    the participants run one view-exchange round through the backend's
    node-disjoint batch primitives, then aggregation partners are drawn
    from the refreshed views. Draws can land on departed nodes — the
    engine's ok-mask filters them, exactly like contacting a crashed
    neighbor — so no global liveness oracle is consulted anywhere.
    """

    name = "newscast"

    def __init__(self, spec: NewscastSpec):
        self.spec = spec

    def bind(self, engine: "GossipEngine") -> None:
        super().bind(engine)
        self.views = NewscastViews(engine.scenario.n, self.spec.view_size)

    def begin_cycle(
        self,
        initiators: np.ndarray,
        alive: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        self.views.refresh(initiators, alive, rng, self._engine._backend)

    def draw(
        self,
        initiators: np.ndarray,
        rng: np.random.Generator,
        out: np.ndarray,
    ) -> np.ndarray:
        return self.views.draw_partners(initiators, rng, out)

    def on_join(self, slots: np.ndarray, rng: np.random.Generator) -> None:
        self.views.seed_rows(slots, self._engine._alive, rng)


def build_provider(spec: Optional[NewscastSpec]) -> PartnerProvider:
    """The provider for a scenario's normalized membership spec."""
    if spec is None:
        return OracleProvider()
    return NewscastProvider(spec)
