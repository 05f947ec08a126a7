"""High-level aggregation service facade.

The library's "batteries included" entry point: given per-node values
and an overlay, :class:`AggregationService` runs all the standard
aggregates (mean, max, min, k-th moments, counting) as concurrent
instances and returns one consolidated report. This is the API shape a
downstream monitoring system would embed; everything underneath is the
paper's protocol.

Since the unified-kernel refactor the service runs **one**
:class:`~repro.kernel.GossipEngine` pass over a five-column value
matrix — every instance piggybacks on the same push-pull exchange, the
§4 multi-instance rule — instead of re-simulating the network once per
aggregate. At monitoring scale pass ``backend="vectorized"`` (or keep
the default ``"auto"``) for the structure-of-arrays execution path.

Continuous monitoring uses the §4 epoch/restart machinery, also hosted
on the kernel: :meth:`AggregationService.run_epochs` declares an
:class:`~repro.kernel.EpochSpec` whose restart hook re-seeds every
instance from the current attribute values (drawing a fresh counting
leader each epoch) in place on the value matrix — nothing is rebuilt
between epochs — and emits one :class:`AggregationReport` per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..kernel.engine import GossipEngine
from ..kernel.lifecycle import EpochSpec
from ..kernel.messages import exchange_loss
from ..kernel.scenario import Scenario
from ..rng import SeedLike, make_rng, spawn_streams
from ..topology.base import Topology
from .aggregates import (
    MaxAggregate,
    MeanAggregate,
    MinAggregate,
    estimate_network_size,
    estimate_sum,
    estimate_variance_from_moments,
    moment_values,
)
from .multi import MultiAggregateSpec


@dataclass(frozen=True)
class AggregationReport:
    """Converged estimates as seen by a single (arbitrary) node.

    All quantities are *estimates* produced by gossip, not oracle reads;
    ``variance_across_nodes`` reports how tightly the network agrees on
    the mean (the convergence diagnostic).
    """

    mean: float
    maximum: float
    minimum: float
    second_moment: float
    network_size: float
    total: float
    value_variance: float
    variance_across_nodes: float
    cycles: int

    def as_dict(self) -> Dict[str, float]:
        """The report as a plain dict (for logging / serialization)."""
        return {
            "mean": self.mean,
            "maximum": self.maximum,
            "minimum": self.minimum,
            "second_moment": self.second_moment,
            "network_size": self.network_size,
            "total": self.total,
            "value_variance": self.value_variance,
            "variance_across_nodes": self.variance_across_nodes,
            "cycles": float(self.cycles),
        }


#: the standard monitoring suite, in kernel column order
SUITE_NAMES = ("mean", "second_moment", "maximum", "minimum", "count")


def _suite_functions() -> Dict[str, object]:
    """Instance id → AGGREGATE for the standard five-instance suite:
    mean, second moment, max, min, and the §4 counting instance."""
    return {
        "mean": MeanAggregate(),
        "second_moment": MeanAggregate(),
        "maximum": MaxAggregate(),
        "minimum": MinAggregate(),
        "count": MeanAggregate(),
    }


def _assemble_report(
    probe: Dict[str, float], variance_across_nodes: float, cycles: int
) -> AggregationReport:
    """Derive an :class:`AggregationReport` from one node's converged
    per-instance values (shared by the single-pass and epoch-restarted
    entry points so the two can never drift apart)."""
    mean_estimate = probe["mean"]
    second_moment = probe["second_moment"]
    size_estimate = estimate_network_size(max(probe["count"], 1e-300))
    return AggregationReport(
        mean=mean_estimate,
        maximum=probe["maximum"],
        minimum=probe["minimum"],
        second_moment=second_moment,
        network_size=size_estimate,
        total=estimate_sum(mean_estimate, size_estimate),
        value_variance=estimate_variance_from_moments(
            mean_estimate, second_moment
        ),
        variance_across_nodes=variance_across_nodes,
        cycles=cycles,
    )


class AggregationService:
    """Runs the full aggregate suite over one overlay, in one pass.

    Parameters
    ----------
    topology:
        The overlay to gossip on.
    values:
        Per-node attribute values ``a_i``.
    loss_probability:
        Probability an entire exchange fails: its request is lost.
    seed:
        Master seed (protocol randomness and the counting instance's
        leader draw get independent streams).
    backend:
        Kernel execution backend (``"auto"``, ``"reference"`` or
        ``"vectorized"``).
    """

    def __init__(
        self,
        topology: Topology,
        values: Sequence[float],
        *,
        loss_probability: float = 0.0,
        seed: SeedLike = None,
        backend: str = "auto",
    ):
        if len(values) != topology.n:
            raise ConfigurationError(
                f"got {len(values)} values for a topology of {topology.n} nodes"
            )
        self.topology = topology
        self.values = np.asarray(values, dtype=np.float64)
        self._faults = exchange_loss(loss_probability)
        self._seed = seed
        self._backend = backend

    def _spec(self, leader_stream) -> MultiAggregateSpec:
        """The standard suite with the counting instance's leader drawn
        (one random leader holds 1)."""
        n = self.topology.n
        indicator = np.zeros(n)
        indicator[int(make_rng(leader_stream).integers(0, n))] = 1.0
        return MultiAggregateSpec.build(
            _suite_functions(),
            initial={
                "second_moment": moment_values(self.values, 2),
                "count": indicator,
            },
        )

    def run(self, cycles: int = 30, *, probe_node: int = 0) -> AggregationReport:
        """Gossip for ``cycles`` cycles and report node ``probe_node``'s
        converged view of the network."""
        if cycles < 1:
            raise ConfigurationError(f"cycles must be >= 1, got {cycles}")
        if not 0 <= probe_node < self.topology.n:
            raise ConfigurationError(
                f"probe_node {probe_node} outside range [0, {self.topology.n})"
            )
        protocol_stream, leader_stream = spawn_streams(self._seed, 2)
        scenario = self._spec(leader_stream).scenario(
            self.topology,
            self.values,
            message_faults=self._faults,
            seed=protocol_stream,
            backend=self._backend,
            cycles=cycles,
        )
        with GossipEngine(scenario) as engine:
            engine.run(cycles, record="end")
            probe = {
                name: float(engine.column(name)[probe_node])
                for name in scenario.instance_names
            }
            return _assemble_report(probe, engine.variance("mean"), cycles)

    def run_epochs(
        self,
        epochs: int = 4,
        cycles_per_epoch: int = 30,
        *,
        probe_node: int = 0,
    ) -> List[AggregationReport]:
        """Continuous monitoring via §4 epoch restarts, on the kernel.

        Runs ``epochs`` consecutive epochs of ``cycles_per_epoch``
        cycles each. At every epoch boundary the protocol restarts in
        place: each instance is re-seeded from the node attribute
        values and a fresh counting leader is drawn, so every epoch's
        report reflects a full re-aggregation (this is how a deployed
        monitor keeps estimates current). Returns one
        :class:`AggregationReport` per completed epoch, each describing
        ``probe_node``'s converged view.

        The epoch machinery models the paper's uniform overlay, so the
        service must be built over a
        :class:`~repro.topology.complete.CompleteTopology`.
        """
        if epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
        if cycles_per_epoch < 1:
            raise ConfigurationError(
                f"cycles_per_epoch must be >= 1, got {cycles_per_epoch}"
            )
        if not 0 <= probe_node < self.topology.n:
            raise ConfigurationError(
                f"probe_node {probe_node} outside range [0, {self.topology.n})"
            )
        values = self.values
        names = SUITE_NAMES
        count_column = names.index("count")
        base = np.column_stack(
            [
                values,
                moment_values(values, 2),
                values,
                values,
                np.zeros(len(values)),
            ]
        )

        def reseed(context):
            rows = base[context.participants].copy()
            leader = int(context.rng.integers(0, len(context.participants)))
            rows[leader, count_column] = 1.0
            return rows

        def finalize(view):
            # view.matrix rows cover surviving participants only; map
            # the probe's slot id to its row (today no node ever leaves
            # a run_epochs scenario, but the mapping keeps this hook
            # correct as a template for churned variants)
            position = int(np.searchsorted(view.participants, probe_node))
            if (
                position >= len(view.participants)
                or view.participants[position] != probe_node
            ):
                return None  # probe departed mid-epoch: nothing to report
            probe = {
                name: float(view.matrix[position, column])
                for column, name in enumerate(names)
            }
            return _assemble_report(
                probe,
                float(view.matrix[:, 0].var(ddof=1)),
                cycles_per_epoch,
            )

        scenario = Scenario(
            self.topology,
            values,
            aggregates=_suite_functions(),
            message_faults=self._faults,
            epochs=EpochSpec(
                cycles_per_epoch=cycles_per_epoch,
                reseed=reseed,
                finalize=finalize,
            ),
            cycles=epochs * cycles_per_epoch,
            seed=self._seed,
            backend=self._backend,
        )
        with GossipEngine(scenario) as engine:
            return engine.run(epochs * cycles_per_epoch).epoch_results
