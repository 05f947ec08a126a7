"""Declarative experiment description consumed by the gossip kernel.

A :class:`Scenario` is the single configuration object every execution
layer understands: it names the overlay, the initial per-node values,
the set of concurrent aggregation instances piggybacked on each
exchange (§4's multi-instance rule), the failure model (message
faults, crash-stop plan, churn trace, adversaries and partitions), the §4
epoch/restart machinery, the cycle budget, the seed, and
which execution backend should run it. The recipes of
:mod:`repro.core`, the CLI and the benchmark drivers all build a
``Scenario`` and hand it to :class:`~repro.kernel.engine.GossipEngine`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Hashable, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.aggregates import AggregateFunction, MeanAggregate
from ..errors import ConfigurationError
from ..failures.crash import CrashPlan
from ..fields import check_count, check_node_id, declare, validate_fields
from ..rng import SeedLike
from ..topology.base import Topology
from ..topology.complete import CompleteTopology
from .backends import parse_backend_spec
from .adversary import AdversarySpec
from .messages import MessageFaultSpec, RetrySpec
from .lifecycle import ChurnTrace, EpochSpec
from .membership import NewscastSpec, resolve_membership
from .pairs import PairProtocolSpec, TheoremSAggregate

#: ``auto`` switches to the vectorized backend at and above this size.
#: Measured crossover band after the CSR/CyclePlan constant-shaving
#: (see ``benchmarks/bench_sparse.py --crossover``): the five-instance
#: service workload crosses near N ≈ 256, pair-mode PM near N ≈ 512,
#: and the single-instance AGGREGATE_AVG exchange workload — whose
#: reference path is a very tight list loop — near N ≈ 2048. 1024 is
#: the band's conservative midpoint: above it the vectorized backend
#: wins every benchmarked workload by N ≈ 2–3k and is ≥ 5× at paper
#: scale, below it both backends run a cycle in well under a
#: millisecond either way.
AUTO_VECTORIZE_THRESHOLD = 1024


def _default_aggregates() -> Mapping[Hashable, AggregateFunction]:
    return {"mean": MeanAggregate()}


def check_layout(
    owner: str, values, aggregates: Mapping[Hashable, AggregateFunction]
) -> np.ndarray:
    """``values`` as a 1-D float64 array, after checking that
    ``aggregates`` maps at least one instance id to an
    :class:`AggregateFunction` — the ``custom`` fields ``owner``
    (a spec name) shares with every multi-instance layout."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ConfigurationError(
            f"{owner}.values must be one-dimensional, got shape "
            f"{values.shape}"
        )
    if not aggregates:
        raise ConfigurationError(f"{owner} needs at least one aggregate")
    for instance_id, function in aggregates.items():
        if not isinstance(function, AggregateFunction):
            raise ConfigurationError(
                f"{owner}.aggregates {instance_id!r} is not an "
                f"AggregateFunction"
            )
    return values


@dataclass(frozen=True)
class Scenario:
    """One gossip experiment, fully specified.

    Parameters
    ----------
    topology:
        The overlay to gossip on.
    values:
        Per-node attribute values ``a_i`` (length ``topology.n``).
    aggregates:
        Ordered mapping of instance id → pairwise AGGREGATE function.
        Every instance rides the *same* push-pull exchange (§4), so one
        engine pass computes all of them. Defaults to a single
        AGGREGATE_AVG instance named ``"mean"``.
    initial:
        Optional per-instance initial vectors overriding ``values``
        (e.g. squared values for a second-moment instance, or the 0/1
        indicator of the §4 counting instance).
    crash_plan:
        Optional :class:`~repro.failures.crash.CrashPlan`; victims crash
        before their scheduled cycle executes. Every planned id must be
        a node of ``topology``; that is checked here, not at the cycle
        that names it.
    churn:
        Optional :class:`~repro.kernel.lifecycle.ChurnTrace`. The engine
        applies it as alive-mask growth/shrink plus value-matrix row
        recycling; joiners start from zero (§4). Churn scenarios model
        the paper's uniform overlay: partners are drawn uniformly
        among current participants, so the topology must be
        :class:`~repro.topology.complete.CompleteTopology` (it sets the
        initial size).
    epochs:
        Optional :class:`~repro.kernel.lifecycle.EpochSpec` — the §4
        epoch/restart machinery. Implies the same uniform-overlay rule
        as ``churn``; joiners wait for the next epoch start before they
        participate.
    pair_protocol:
        Optional :class:`~repro.kernel.pairs.PairProtocolSpec`. When
        set, the engine runs in *pair mode*: each cycle is ``N``
        elementary midpoint steps from a pre-materialized GETPAIR
        sequence (algorithm AVG, Figure 2) instead of the push-pull
        exchange batches. Pair mode owns the instance layout (an
        ``"avg"`` column, plus an ``"s"`` column when the spec tracks
        Theorem 1's parallel vector) and models the paper's
        failure-free §3 analysis setting — message faults, crashes,
        churn, epochs and adversaries are rejected.
    adversary:
        Optional :class:`~repro.kernel.adversary.AdversarySpec` — value
        injection, byzantine (lying) responders, targeted partitions or
        eclipse-style neighbor capture. Applied entirely by the engine
        (adversary set drawn from the engine RNG, corruption as
        engine-side matrix writes, filtering in the fused ok-mask pass),
        so all backends stay bitwise-equal under any adversary
        configuration. ``eclipse`` requires a static overlay (no
        churn/epochs).
    membership:
        How partner draws are produced — the
        :class:`~repro.kernel.membership.PartnerProvider` layer.
        ``None``/``"oracle"`` (default) keeps the historical draws:
        topology neighbors on static overlays, uniform among current
        participants under churn/epochs. ``"newscast"`` (or a
        :class:`~repro.kernel.membership.NewscastSpec`) replaces the
        oracle with gossip-maintained partial views: partners come
        from each node's Newscast view, refreshed by view exchanges
        on the engine — no global membership oracle anywhere.
        Newscast requires :class:`CompleteTopology` (it supplies its
        own overlay; a CSR overlay underneath it would be ignored)
        and is rejected with ``pair_protocol`` and the ``eclipse``
        adversary (both assume the oracle's draw structure).
    message_faults:
        Optional :class:`~repro.kernel.messages.MessageFaultSpec` —
        the message-level fault model: independent request-loss and
        reply-loss probabilities (with per-cycle schedules) plus
        duplication. A lost request cancels the exchange at both ends —
        the paper's failed exchange. A lost reply executes the
        *partial* exchange (the partner adopts the combined value, the
        initiator keeps its old one), the mass-drift failure mode the
        paper's practical-issues discussion warns about. Applied
        entirely by the engine, like ``adversary``, so all backends
        stay bitwise-equal. Rejected with ``pair_protocol``.
    retry:
        Optional :class:`~repro.kernel.messages.RetrySpec` — the
        recovery protocol for exchanges that produced no reply:
        timeout detection in cycle units, retransmission (or a fresh
        partner redraw through the membership layer), exponential
        backoff under a retry budget, and an ``accept`` or
        ``push_only`` give-up fallback. Requires ``message_faults``.
    cycles:
        Default cycle budget for :func:`run_scenario`-style drivers.
    seed:
        RNG seed or generator for the whole run.
    backend:
        ``"reference"`` (sequential semantic oracle), ``"vectorized"``
        (structure-of-arrays batched execution), ``"sharded"`` /
        ``"sharded:<workers>"`` / ``"sharded:auto"`` (multi-process
        shared-memory execution; ``auto`` resolves the worker count
        from CPU affinity and falls back to inline in-process
        execution on small matrices) or ``"auto"`` (pick by network
        size; never picks sharded — the worker pool is an explicit
        opt-in).
    """

    topology: Topology = declare("spec", type=Topology)
    values: np.ndarray = declare("custom")
    aggregates: Mapping[Hashable, AggregateFunction] = declare(
        "custom", default_factory=_default_aggregates
    )
    initial: Optional[Mapping[Hashable, Sequence[float]]] = declare(
        "custom", None
    )
    crash_plan: Optional[CrashPlan] = declare("spec", None, type=CrashPlan)
    churn: Optional[ChurnTrace] = declare("spec", None, type=ChurnTrace)
    epochs: Optional[EpochSpec] = declare("spec", None, type=EpochSpec)
    pair_protocol: Optional[PairProtocolSpec] = declare(
        "spec", None, type=PairProtocolSpec
    )
    adversary: Optional[AdversarySpec] = declare(
        "spec", None, type=AdversarySpec
    )
    membership: Optional[object] = declare("custom", None)
    message_faults: Optional[MessageFaultSpec] = declare(
        "spec", None, type=MessageFaultSpec
    )
    retry: Optional[RetrySpec] = declare("spec", None, type=RetrySpec)
    cycles: int = declare("count", 30, low=0)
    seed: SeedLike = declare("seed", None)
    backend: str = declare("custom", "auto")

    def __post_init__(self):
        validate_fields(self)
        values = check_layout("Scenario", self.values, self.aggregates)
        if len(values) != self.topology.n:
            raise ConfigurationError(
                f"got {len(values)} values for a topology of "
                f"{self.topology.n} nodes"
            )
        object.__setattr__(self, "values", values)
        if self.initial is not None:
            unknown = set(self.initial) - set(self.aggregates)
            if unknown:
                raise ConfigurationError(
                    f"initial vectors for unknown instances: {sorted(map(str, unknown))}"
                )
        # raises BackendSpecError (a ConfigurationError) on unknown
        # names and malformed "sharded:<workers>" specs
        parse_backend_spec(self.backend, allow_auto=True)
        if self.crash_plan is not None:
            for cycle, victims in self.crash_plan.crashes.items():
                check_count(cycle, "crash cycle", low=0)
                for node_id in victims:
                    check_node_id(node_id, self.topology.n)
        if self.is_dynamic:
            if self.churn is not None and self.crash_plan is not None:
                raise ConfigurationError(
                    "crash plans are not supported together with churn "
                    "(slot recycling re-targets the plan's static node "
                    "ids); model crashes as the churn model's leaves "
                    "instead — crash plans remain valid with epochs alone"
                )
            if not isinstance(self.topology, CompleteTopology):
                raise ConfigurationError(
                    "churn/epoch scenarios model the paper's uniform "
                    "overlay and require CompleteTopology (it fixes the "
                    f"initial size); got {type(self.topology).__name__}"
                )
        # normalize membership to None (oracle) or a NewscastSpec;
        # raises on unknown names/objects
        object.__setattr__(
            self, "membership", resolve_membership(self.membership)
        )
        if self.membership is not None:
            if not isinstance(self.topology, CompleteTopology):
                raise ConfigurationError(
                    "newscast membership supplies its own overlay and "
                    "requires CompleteTopology (it fixes the initial "
                    f"size); got {type(self.topology).__name__}"
                )
            if self.n < 2:
                raise ConfigurationError(
                    "newscast membership needs at least two nodes"
                )
        if self.adversary is not None:
            if self.adversary.kind == "eclipse" and self.is_dynamic:
                raise ConfigurationError(
                    "eclipse capture precomputes a static neighbor "
                    "redirect table; churn/epoch scenarios draw partners "
                    "uniformly among current participants, so there is "
                    "no neighbor structure to capture"
                )
            if (
                self.adversary.kind == "eclipse"
                and self.membership is not None
            ):
                raise ConfigurationError(
                    "eclipse capture redirects oracle topology draws; "
                    "with newscast membership the overlay is the views "
                    "themselves, so there is no draw table to capture"
                )
            if self.adversary.nodes is not None and any(
                node >= self.topology.n for node in self.adversary.nodes
            ):
                raise ConfigurationError(
                    f"adversary nodes {self.adversary.nodes} exceed the "
                    f"topology size {self.topology.n}"
                )
        if self.retry is not None and self.message_faults is None:
            raise ConfigurationError(
                "retry needs message_faults: the retry protocol "
                "recovers from the request/reply losses the "
                "message-level fault model produces"
            )
        if self.pair_protocol is not None:
            self._init_pair_mode()

    def _init_pair_mode(self) -> None:
        """Validate and normalize a pair-mode scenario: the GETPAIR
        protocol defines its own instance layout, and Figure 2's AVG is
        the failure-free analysis setting."""
        spec = self.pair_protocol
        if (
            self.crash_plan is not None
            or self.adversary is not None
            or self.membership is not None
            or self.message_faults is not None
            or self.is_dynamic
        ):
            raise ConfigurationError(
                "pair-mode scenarios model the failure-free AVG of "
                "Figure 2; crash plans, adversaries, "
                "membership providers, message faults, churn and epochs "
                "are not supported with pair_protocol"
            )
        spec.validate_topology(self.topology)
        # pair mode owns the instance layout; accept only the default
        # aggregates or an already-normalized layout (replace() re-runs
        # this hook on the rewritten fields)
        keys = tuple(map(str, self.aggregates))
        if keys not in (("mean",), ("avg",), ("avg", "s")):
            raise ConfigurationError(
                "pair-mode scenarios define their own aggregate columns; "
                "leave `aggregates` at its default"
            )
        if self.initial is not None and set(map(str, self.initial)) != {"s"}:
            raise ConfigurationError(
                "pair-mode scenarios derive their initial columns from "
                "`values`; leave `initial` unset"
            )
        aggregates = {"avg": MeanAggregate()}
        initial = None
        if spec.track_s:
            # Theorem 1's parallel vector, seeded with s_0 = a_0^2
            aggregates["s"] = TheoremSAggregate()
            initial = {"s": self.values * self.values}
        object.__setattr__(self, "aggregates", aggregates)
        object.__setattr__(self, "initial", initial)

    # -- derived views ---------------------------------------------------

    @property
    def n(self) -> int:
        """Network size (initial size under churn)."""
        return self.topology.n

    @property
    def is_dynamic(self) -> bool:
        """Whether membership changes over the run (churn or epochs)."""
        return self.churn is not None or self.epochs is not None

    @property
    def instance_names(self) -> Tuple[Hashable, ...]:
        """Instance ids, in declaration order (column order of the
        kernel's value matrix)."""
        return tuple(self.aggregates)

    @property
    def functions(self) -> Tuple[AggregateFunction, ...]:
        """AGGREGATE functions in column order."""
        return tuple(self.aggregates.values())

    def initial_matrix(self) -> np.ndarray:
        """The ``(n, k)`` structure-of-arrays initial state: one column
        per aggregation instance."""
        columns = []
        for name in self.instance_names:
            if self.initial is not None and name in self.initial:
                column = np.asarray(self.initial[name], dtype=np.float64)
                if column.shape != (self.n,):
                    raise ConfigurationError(
                        f"initial vector for {name!r} has shape "
                        f"{column.shape}, expected ({self.n},)"
                    )
            else:
                column = self.values
            columns.append(column)
        # column_stack already built a fresh array: cast, never copy it
        return np.column_stack(columns).astype(np.float64, copy=False)

    def resolve_backend(self) -> str:
        """The concrete backend ``auto`` resolves to for this scenario.

        ``auto`` only ever picks an in-process backend; the sharded
        worker pool must be requested explicitly (its spawn cost and
        memory footprint are not worth paying by surprise).
        """
        if self.backend != "auto":
            return self.backend
        if self.n >= AUTO_VECTORIZE_THRESHOLD:
            return "vectorized"
        return "reference"

    def replace(self, **changes) -> "Scenario":
        """A copy of this scenario with ``changes`` applied (the hook
        replication/sweep drivers use to re-seed per run)."""
        return dataclasses.replace(self, **changes)
