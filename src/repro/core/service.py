"""The standard monitoring suite as scenario recipes.

Given per-node values and an overlay, the suite runs all the standard
aggregates (mean, max, min, second moment, counting) as concurrent
instances of **one** push-pull exchange — §4's multi-instance rule —
so one :class:`~repro.kernel.GossipEngine` pass over a five-column
value matrix computes every aggregate at once:

* :func:`service_scenario` is the one-shot recipe and
  :func:`service_report` its reducer: run the scenario, then read one
  node's converged view as an :class:`AggregationReport`;
* :func:`service_epochs_scenario` is continuous monitoring through the
  §4 epoch/restart machinery: an :class:`~repro.kernel.EpochSpec`
  re-seeds every instance from the attribute values at each epoch
  start (drawing a fresh counting leader) and its ``finalize`` hook
  emits one :class:`AggregationReport` per epoch.

Message loss, a backend or any other failure model is set on the
returned scenario like on any other, e.g.
``service_scenario(...).replace(message_faults=exchange_loss(0.2))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..fields import check_count, check_node_id
from ..kernel.engine import GossipEngine
from ..kernel.lifecycle import EpochSpec
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
_COUNT = SUITE_NAMES.index("count")


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


def _suite_layout(values: np.ndarray) -> np.ndarray:
    """The suite's ``(n, 5)`` initial matrix, columns in
    :data:`SUITE_NAMES` order. The counting column is zero: each recipe
    draws its own leader."""
    return np.column_stack(
        [values, moment_values(values, 2), values, values,
         np.zeros(len(values))]
    )


def _assemble_report(
    probe: Dict[str, float], variance_across_nodes: float, cycles: int
) -> AggregationReport:
    """Derive an :class:`AggregationReport` from one node's converged
    per-instance values (shared by the one-shot reducer and the epoch
    hook so the two can never drift apart)."""
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


def service_scenario(
    topology: Topology,
    values: Sequence[float],
    *,
    cycles: int = 30,
    seed: SeedLike = None,
    backend: str = "auto",
) -> Scenario:
    """The whole suite in one pass of ``cycles`` cycles over
    ``topology``; read the result with :func:`service_report`.

    ``seed`` is split in two streams: the protocol's and the counting
    instance's leader draw (one random leader holds 1).
    """
    check_count(cycles, "service_scenario.cycles", low=1)
    protocol_stream, leader_stream = spawn_streams(seed, 2)
    scenario = Scenario(
        topology, values, aggregates=_suite_functions(), cycles=cycles,
        seed=protocol_stream, backend=backend,
    )
    layout = _suite_layout(scenario.values)
    layout[int(make_rng(leader_stream).integers(0, scenario.n)), _COUNT] = 1.0
    return scenario.replace(initial=dict(zip(SUITE_NAMES, layout.T)))


def service_report(
    engine: GossipEngine, probe_node: int = 0
) -> AggregationReport:
    """Node ``probe_node``'s view of a :func:`service_scenario` engine
    after its run."""
    probe_node = check_node_id(probe_node, engine.capacity)
    probe = {
        name: float(engine.column(name)[probe_node]) for name in SUITE_NAMES
    }
    return _assemble_report(probe, engine.variance("mean"), engine.cycle)


def service_epochs_scenario(
    topology: Topology,
    values: Sequence[float],
    *,
    epochs: int = 4,
    cycles_per_epoch: int = 30,
    probe_node: int = 0,
    seed: SeedLike = None,
    backend: str = "auto",
) -> Scenario:
    """Continuous monitoring via §4 epoch restarts.

    ``epochs`` consecutive epochs of ``cycles_per_epoch`` cycles each.
    At every epoch boundary the protocol restarts in place: each
    instance is re-seeded from the node attribute values and a fresh
    counting leader is drawn, so every epoch's report reflects a full
    re-aggregation (this is how a deployed monitor keeps estimates
    current). The run's ``epoch_results`` hold one
    :class:`AggregationReport` per completed epoch, each describing
    ``probe_node``'s converged view.

    The epoch machinery models the paper's uniform overlay, so
    ``topology`` must be a
    :class:`~repro.topology.complete.CompleteTopology`.
    """
    check_count(epochs, "service_epochs_scenario.epochs", low=1)
    check_count(cycles_per_epoch, "service_epochs_scenario.cycles_per_epoch",
                low=1)
    probe_node = check_node_id(probe_node, topology.n)
    layout = _suite_layout(np.asarray(values, dtype=np.float64))

    def reseed(context):
        rows = layout[context.participants]
        leader = int(context.rng.integers(0, len(context.participants)))
        rows[leader, _COUNT] = 1.0
        return rows

    def finalize(view):
        # view.matrix rows cover surviving participants only; map the
        # probe's slot id to its row (a crash plan set on the scenario
        # can take the probe out)
        position = int(np.searchsorted(view.participants, probe_node))
        if (
            position >= len(view.participants)
            or view.participants[position] != probe_node
        ):
            return None  # probe departed mid-epoch: nothing to report
        probe = {
            name: float(view.matrix[position, column])
            for column, name in enumerate(SUITE_NAMES)
        }
        return _assemble_report(
            probe, float(view.matrix[:, 0].var(ddof=1)), cycles_per_epoch
        )

    return Scenario(
        topology,
        values,
        aggregates=_suite_functions(),
        epochs=EpochSpec(
            cycles_per_epoch=cycles_per_epoch, reseed=reseed,
            finalize=finalize,
        ),
        cycles=epochs * cycles_per_epoch,
        seed=seed,
        backend=backend,
    )
