"""Declarative adversary models for kernel scenarios.

The paper's practical-issues discussion (and the fault-tolerance
related work: self-stabilization under malicious actions,
byzantine-tolerant consensus) asks what happens to epidemic aggregation
when some nodes are not merely *failing* but *hostile*. An
:class:`AdversarySpec` attaches to a
:class:`~repro.kernel.scenario.Scenario`, and the :class:`Adversary`
bound to its engine applies it: the adversary set is drawn from the
engine RNG, corruption is an engine-side matrix write, filtering joins
the fused ok-mask pass. Execution backends never see the spec, so
every backend stays bitwise-equal under any adversary.

Four adversary kinds:

``"inject"``
    Stubborn in-protocol value injection: every cycle, each adversarial
    node resets its whole row (all aggregation instances) to ``value``
    *before* gossiping, then follows the protocol. This is the attack
    that actually poisons honest state — injected mass spreads through
    ordinary exchanges, so even robust read-out reductions degrade as
    the fraction grows.

``"lying"``
    Byzantine *responders at observation time*: adversarial nodes run
    the protocol honestly but report ``value`` whenever estimates are
    read out (:meth:`GossipEngine.reported_column`). The gossip state is
    untouched, which is exactly the contamination model under which a
    median or trimmed mean over per-node reports stays accurate below
    its breakdown point while the plain mean diverges.

``"partition"``
    Partition: every exchange crossing the boundary between the target
    set and the rest of the overlay fails while the spec is active —
    the split-brain scenario with ``nodes`` as one side. Each side
    converges to its own average; after ``end`` the network re-converges
    to the global one.

``"eclipse"``
    Neighbor capture on a fixed overlay: every honest node adjacent to
    at least one adversarial node has *all* its partner draws redirected
    to an adversarial neighbor (the precomputed capture table; on CSR
    overlays the smallest-id adversarial neighbor, on the complete
    overlay a per-victim uniformly drawn captor). Static overlays only —
    churn/epoch scenarios draw partners uniformly among current
    participants, so there is no neighbor structure to capture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..fields import declare, validate_fields
from ..topology.base import AdjacencyTopology, Topology
from ..topology.complete import CompleteTopology

#: accepted :attr:`AdversarySpec.kind` values
ADVERSARY_KINDS = ("inject", "lying", "partition", "eclipse")


@dataclass(frozen=True)
class AdversarySpec:
    """One adversary configuration, fully specified.

    Parameters
    ----------
    kind:
        One of :data:`ADVERSARY_KINDS` (semantics in the module
        docstring).
    fraction:
        Fraction of the initial network drawn (uniformly, without
        replacement, from the engine RNG) as adversarial. The count is
        ``round(fraction * n)``; a fraction of ``0.0`` consumes no RNG
        at all, so the run's trajectory is bitwise-identical to the same
        scenario without an adversary.
    value:
        The injected / reported value (``inject`` and ``lying``;
        ignored by ``partition`` and ``eclipse``).
    nodes:
        Explicit adversarial node ids; overrides ``fraction`` and
        consumes no RNG. Useful for single-node edge cases and
        structure-aware placements.
    start, end:
        Half-open active cycle window ``[start, end)``; ``end=None``
        means the adversary never deactivates. Outside the window the
        spec is inert (``inject`` stops overwriting, ``lying`` reports
        honestly, ``partition``/``eclipse`` stop filtering/redirecting).

    Adversarial slots persist under churn: a joiner recycled into an
    adversarial slot inherits the flag (the attacker holds the
    *position* in the overlay), while slots from capacity growth are
    always honest.
    """

    kind: str = declare("choice", choices=ADVERSARY_KINDS)
    fraction: float = declare("real", 0.0, low=0, high=1)
    value: float = declare("real", 0.0)
    nodes: Optional[Tuple[int, ...]] = declare("node_ids", None)
    start: int = declare("count", 0, low=0)
    end: Optional[int] = declare("count", None, low=1)

    def __post_init__(self) -> None:
        validate_fields(self)
        if self.nodes is not None:
            ids = tuple(sorted(int(node) for node in self.nodes))
            if len(set(ids)) != len(ids):
                raise ConfigurationError(
                    f"adversary nodes contain duplicates: {self.nodes}"
                )
            object.__setattr__(self, "nodes", ids)
        if self.end is not None and self.end <= self.start:
            raise ConfigurationError(
                f"adversary window [{self.start}, {self.end}) is empty"
            )

    def active_at(self, cycle: int) -> bool:
        """Whether the adversary acts at ``cycle``."""
        if cycle < self.start:
            return False
        return self.end is None or cycle < self.end

    def resolve_nodes(
        self, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """The sorted adversarial slot ids for an initial network of
        ``n``: explicit ``nodes`` as they are, else ``round(fraction *
        n)`` ids drawn without replacement (the RNG is consumed only
        when a strict subset is drawn)."""
        if self.nodes is not None:
            return np.asarray(self.nodes, dtype=np.int64)
        count = int(round(self.fraction * n))
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        if count >= n:
            return np.arange(n, dtype=np.int64)
        return np.sort(rng.choice(n, size=count, replace=False))

    def eclipse_redirects(
        self,
        topology: Topology,
        adversary_mask: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """The eclipse capture table: ``redirect[i]`` is the adversarial
        neighbor that captures honest node ``i``'s partner draws, or
        ``-1`` (no adversarial neighbor, or ``i`` adversarial). On CSR
        overlays it is the smallest-id adversarial neighbor; on the
        complete overlay each victim's captor is drawn uniformly from
        the adversary set, in one batched draw at bootstrap."""
        n = topology.n
        redirect = np.full(n, -1, dtype=np.int32)
        adversaries = np.flatnonzero(adversary_mask)
        if len(adversaries) in (0, n):
            return redirect
        honest = np.flatnonzero(~adversary_mask)
        if isinstance(topology, CompleteTopology):
            picks = rng.integers(0, len(adversaries), size=len(honest))
            redirect[honest] = adversaries[picks].astype(np.int32)
            return redirect
        if isinstance(topology, AdjacencyTopology):
            # both directions of every undirected edge, filtered to
            # honest -> adversarial, then the smallest captor per victim
            edges = topology.edge_array()
            src = np.concatenate([edges[:, 0], edges[:, 1]])
            dst = np.concatenate([edges[:, 1], edges[:, 0]])
            captured = ~adversary_mask[src] & adversary_mask[dst]
            src, dst = src[captured], dst[captured]
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
            first = np.ones(len(src), dtype=bool)
            first[1:] = src[1:] != src[:-1]
            redirect[src[first]] = dst[first].astype(np.int32)
            return redirect
        # exotic topology: per-node fallback through the public API
        for node in honest:
            neighbors = np.asarray(topology.neighbors(int(node)))
            captors = neighbors[adversary_mask[neighbors]]
            if len(captors):
                redirect[node] = int(captors[0])
        return redirect


class Adversary:
    """The adversary layer of one engine: the spec, the adversarial
    slots (row ``_adv_mask``) and, for ``eclipse``, the capture table
    (the static-only row ``_eclipse``). The kinds are told apart here
    and nowhere else: the engine calls every hook, and a hook of
    another kind, or outside the spec's window, does nothing. Bound to
    its engine like :class:`~repro.kernel.messages.ExchangeChannel`."""

    def __init__(self, spec: AdversarySpec):
        self._spec = spec
        #: whether :meth:`filter` may fail an exchange (the engine's
        #: loss-free fast path asks)
        self.partitions = spec.kind == "partition"
        # the rows kept: bootstrap() draws them, or a restore loads them
        self._adv_mask: Optional[np.ndarray] = None
        if spec.kind == "eclipse":
            self._eclipse: Optional[np.ndarray] = None

    def bind(self, engine) -> None:
        self._engine = engine

    def unbind(self) -> None:
        self._engine = None

    def _acting(self, kind: str, cycle: int) -> bool:
        return self._spec.kind == kind and self._spec.active_at(cycle)

    @property
    def mask(self) -> np.ndarray:
        """The adversarial slots (the row itself)."""
        return self._adv_mask

    def bootstrap(self, n: int, rng: np.random.Generator) -> None:
        """A new run's first draws: the adversary set, then the eclipse
        captors."""
        self._adv_mask = np.zeros(n, dtype=bool)
        self._adv_mask[self._spec.resolve_nodes(n, rng)] = True
        if self._spec.kind == "eclipse":
            self._eclipse = self._spec.eclipse_redirects(
                self._engine.scenario.topology, self._adv_mask, rng
            )

    def inject(self) -> None:
        """``inject``, before the cycle's exchanges: every adversarial
        participant's row becomes the spec value."""
        engine = self._engine
        if not self._acting("inject", engine.cycle):
            return
        rows = np.flatnonzero(self._adv_mask & engine._participant)
        if len(rows) == 0:
            return
        # in-place matrix write — the pipelined sharded backend must
        # drain any in-flight cycle first
        engine._backend.sync()
        if engine._monitor_entries:
            injected = np.full(engine._matrix.shape[1],
                               self._spec.value * len(rows))
            engine._ledger_add(
                "inject", injected - engine._matrix[rows].sum(axis=0)
            )
        engine._matrix[rows] = self._spec.value

    def redirect(self, initiators: np.ndarray,
                 partners: np.ndarray) -> None:
        """``eclipse``, after the partner draw (its RNG use unchanged):
        a captured victim's partner becomes its captor, in place."""
        if self._acting("eclipse", self._engine.cycle):
            redirect = self._eclipse.take(initiators)
            captured = redirect >= 0
            if captured.any():
                partners[captured] = redirect[captured]

    def filter(self, initiators: np.ndarray, partners: np.ndarray,
               ok: np.ndarray) -> None:
        """``partition``: exchanges crossing the honest/adversarial
        boundary fail (``ok`` cleared in place)."""
        if self._acting("partition", self._engine.cycle):
            adv = self._adv_mask
            ok &= ~(adv.take(initiators) ^ adv.take(partners))

    def report(self, reports: np.ndarray, participant: np.ndarray,
               cycle: int) -> None:
        """``lying``, at read time (a closed engine's too): each
        adversarial participant's entry of ``reports`` (one per
        ``participant`` slot) becomes the spec value."""
        if self._acting("lying", cycle):
            adversarial = self._adv_mask
            if not participant.all():
                adversarial = adversarial[participant]
            reports[adversarial] = self._spec.value
