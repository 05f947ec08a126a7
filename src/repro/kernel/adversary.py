"""Declarative adversary models for kernel scenarios.

The paper's practical-issues discussion (and the fault-tolerance
related work: self-stabilization under malicious actions,
byzantine-tolerant consensus) asks what happens to epidemic aggregation
when some nodes are not merely *failing* but *hostile*. An
:class:`AdversarySpec` attaches to a
:class:`~repro.kernel.scenario.Scenario` and is applied entirely by
:class:`~repro.kernel.engine.GossipEngine` — the adversary set is drawn
from the engine RNG, state corruption happens as engine-side matrix
writes before the exchange batch, and exchange filtering joins the
fused ok-mask pass. Execution backends never see the spec, so the
bitwise backend-equivalence contract (reference == vectorized ==
sharded) holds under any adversary configuration.

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
    to the global one. The kernel's only partition model.

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
        """The adversarial slot ids for an initial network of ``n``.

        Explicit ``nodes`` (which :class:`~repro.kernel.scenario.Scenario`
        checks against its topology) are returned as-is; otherwise
        ``round(fraction * n)`` ids are drawn uniformly without
        replacement. Sorted either way, and the RNG is consumed only
        when a strict subset is actually drawn.
        """
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
        ``-1`` for uncaptured nodes (no adversarial neighbor, or ``i``
        itself adversarial).

        On CSR overlays capture is structural and deterministic (the
        smallest-id adversarial neighbor); on the complete overlay every
        honest node is adjacent to every adversary, so each victim's
        captor is drawn uniformly from the adversary set — one batched
        draw from the engine RNG at engine construction.
        """
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
