"""Network size estimation with epochs and restarting (§4, Figure 4).

The mechanism: if exactly one node holds 1 and every other node holds 0,
the network average is 1/N, so each node can compute N from its
converged approximation. The paper makes this adaptive by

* dividing time into epochs of a fixed number of cycles, restarting the
  protocol each epoch;
* electing instance *leaders* probabilistically at each epoch start
  (each instance tagged by its leader and run concurrently);
* letting nodes that join mid-epoch wait for the next epoch, so each
  epoch converges to the size at its own start — which is why the
  estimate curve in Figure 4 trails the actual size by one epoch.

Nodes that leave mid-epoch take their approximation mass with them,
exactly as in a real deployment.

Since the kernel-hosted churn refactor this experiment is a thin shell
over :class:`~repro.kernel.GossipEngine`: churn is declared as a
:class:`~repro.kernel.ChurnTrace` and applied as alive-mask mutation
with value-matrix row recycling, and the per-epoch leader election and
estimate extraction live in an :class:`~repro.kernel.EpochSpec`'s
``reseed``/``finalize`` hooks — no node objects are rebuilt between
epochs. That is what lets Figure 4 run at the paper's N = 100 000 on
the vectorized backend in seconds (``python -m repro figure4
--n 100000 --backend vectorized``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from ..errors import ConfigurationError
from ..fields import declare, validate_fields
from ..kernel.checkpoint import CheckpointSpec
from ..kernel.engine import GossipEngine
from ..kernel.lifecycle import (
    ChurnTrace,
    EpochRestart,
    EpochSpec,
    EpochView,
)
from ..kernel.scenario import Scenario
from ..rng import SeedLike
from ..topology.complete import CompleteTopology
from .aggregates import MeanAggregate


@dataclass(frozen=True)
class SizeEstimationConfig:
    """Parameters of a size-estimation run.

    Defaults follow Figure 4 shape-wise; the paper-scale values are
    ``initial_size=100_000`` with the matching churn model.
    """

    cycles: int = declare("count", 300, low=1)
    cycles_per_epoch: int = declare("count", 30, low=1)
    expected_leaders: float = declare("real", 1.0, above=0)
    force_leader: bool = declare("flag", True)
    adaptive_leaders: bool = declare("flag", False)
    initial_size: int = declare("count", 1000, low=2)
    seed: SeedLike = declare("seed", None)

    __post_init__ = validate_fields


@dataclass(frozen=True)
class EpochReport:
    """Converged estimates reported at the end of one epoch."""

    epoch: int
    start_cycle: int
    end_cycle: int
    size_at_start: int
    size_at_end: int
    instance_count: int
    reporting_nodes: int
    estimate_mean: float
    estimate_min: float
    estimate_max: float

    @property
    def relative_error(self) -> float:
        """|mean estimate − size at epoch start| / size at epoch start."""
        return abs(self.estimate_mean - self.size_at_start) / self.size_at_start


class SizeEstimationExperiment:
    """Kernel-hosted execution of the §4 adaptive counting protocol.

    The overlay is the paper's idealized random/complete topology over
    *current-epoch participants*: every participant exchanges with a
    uniformly random other participant each cycle (GETPAIR_SEQ). The
    instance set varies per epoch (one column per elected leader);
    estimates are read off the converged value matrix at epoch ends.

    Parameters
    ----------
    config:
        Cycle budget, epoch length, leader-election policy, size, seed.
    churn:
        Optional :class:`~repro.kernel.ChurnTrace`, passed to
        ``Scenario(churn=...)`` as given; joiners start from zero and
        wait for the next epoch (§4).
    backend:
        Kernel execution backend (``"auto"``, ``"reference"`` or
        ``"vectorized"``). Both produce bitwise-identical trajectories;
        pass ``"vectorized"`` (or keep ``"auto"``) at paper scale.
    membership:
        Partner-draw layer (``Scenario.membership``): ``None`` /
        ``"oracle"`` for the idealized uniform draw, ``"newscast"`` or
        a :class:`~repro.kernel.membership.NewscastSpec` to sample
        partners from gossip-maintained partial views — the deployment
        shape of §1.2, with no global oracle anywhere.
    """

    def __init__(
        self,
        config: SizeEstimationConfig,
        *,
        churn: Optional[ChurnTrace] = None,
        backend: str = "auto",
        membership=None,
    ):
        self.config = config
        self.churn = churn
        self._backend = backend
        self._membership = membership
        self._engine: Optional[GossipEngine] = None
        self._instances = 0
        # outputs
        self.reports: List[EpochReport] = []
        self.size_trace: List[int] = []

    # -- observation -------------------------------------------------------

    @property
    def current_size(self) -> int:
        """Number of nodes currently in the network."""
        if self._engine is None:
            return self.config.initial_size
        return self._engine.alive_count

    @property
    def current_epoch(self) -> int:
        """Epoch id currently executing (−1 before :meth:`run`)."""
        return -1 if self._engine is None else self._engine.epoch

    @property
    def backend_name(self) -> Optional[str]:
        """The concrete kernel backend of the last run."""
        return None if self._engine is None else self._engine.backend_name

    # -- epoch hooks -------------------------------------------------------

    def _reseed(self, context: EpochRestart) -> np.ndarray:
        """Per-epoch leader election: each participant becomes a leader
        with probability ``expected_leaders / N`` (§4), one matrix
        column per elected leader, the leader's entry holding 1."""
        count = len(context.participants)
        # §4: the leader probability "can also depend on the previous
        # approximation of network size" — with adaptive_leaders a node
        # uses the last epoch's estimate (what it actually knows) rather
        # than the true current size (which no node knows).
        if self.config.adaptive_leaders and self.reports:
            denominator = max(self.reports[-1].estimate_mean, 1.0)
        else:
            denominator = max(count, 1)
        probability = min(self.config.expected_leaders / denominator, 1.0)
        flags = context.rng.random(count) < probability
        leaders = np.nonzero(flags)[0]
        if len(leaders) == 0 and self.config.force_leader:
            leaders = np.array([int(context.rng.integers(0, count))])
        self._instances = len(leaders)
        # a leaderless epoch (force_leader=False) still gossips one
        # all-zero column and simply publishes no report
        rows = np.zeros((count, max(self._instances, 1)))
        if self._instances:
            rows[leaders, np.arange(self._instances)] = 1.0
        return rows

    def _finalize(self, view: EpochView) -> Optional[EpochReport]:
        """Extract per-node estimates from the converged matrix: each
        surviving participant averages 1/x over the instances it has
        positive mass in."""
        rows = view.matrix
        if self._instances == 0 or rows.shape[0] == 0:
            return None
        positive = rows > 0.0
        reporting = positive.any(axis=1)
        if not reporting.any():
            return None
        inverse = np.zeros_like(rows)
        np.divide(1.0, rows, out=inverse, where=positive)
        estimates = (
            inverse[reporting].sum(axis=1) / positive[reporting].sum(axis=1)
        )
        report = EpochReport(
            epoch=view.epoch,
            start_cycle=view.start_cycle,
            end_cycle=view.end_cycle,
            size_at_start=view.size_at_start,
            size_at_end=view.size_at_end,
            instance_count=self._instances,
            reporting_nodes=int(reporting.sum()),
            estimate_mean=float(estimates.mean()),
            estimate_min=float(estimates.min()),
            estimate_max=float(estimates.max()),
        )
        self.reports.append(report)
        return report

    # -- main loop ----------------------------------------------------------

    def scenario(self) -> Scenario:
        """The declarative kernel scenario this experiment runs."""
        config = self.config
        return Scenario(
            topology=CompleteTopology(config.initial_size),
            values=np.zeros(config.initial_size),
            aggregates={"count": MeanAggregate()},
            churn=self.churn,
            epochs=EpochSpec(
                cycles_per_epoch=config.cycles_per_epoch,
                reseed=self._reseed,
                finalize=self._finalize,
            ),
            membership=self._membership,
            cycles=config.cycles,
            seed=config.seed,
            backend=self._backend,
        )

    def run(
        self, *, checkpoint: Optional[CheckpointSpec] = None
    ) -> List[EpochReport]:
        """Execute the configured number of cycles; returns the epoch
        reports (also available as ``self.reports``).

        ``checkpoint`` enables the kernel's periodic auto-checkpointing
        (see :class:`~repro.kernel.checkpoint.CheckpointSpec`); the run
        can then be continued with :meth:`resume`.
        """
        self.reports = []
        self.size_trace = []
        self._instances = 0
        self._engine = GossipEngine(self.scenario())
        return self._finish(self._engine, self.config.cycles, checkpoint)

    def resume(
        self,
        path: Union[str, Path],
        *,
        checkpoint: Optional[CheckpointSpec] = None,
    ) -> List[EpochReport]:
        """Continue a checkpointed run to the configured cycle budget.

        ``path`` is a checkpoint directory (its newest valid checkpoint
        is used), payload, or manifest written by an earlier
        :meth:`run` with a checkpoint spec. The engine restores its own
        state bitwise; this method additionally rehydrates the
        experiment-side state the epoch hooks read — ``reports`` (which
        :meth:`_reseed` consults under ``adaptive_leaders``) from the
        restored epoch results, and ``_instances`` (which
        :meth:`_finalize` needs for the epoch in flight at checkpoint
        time) from the restored instance layout. A leaderless forced
        epoch rehydrates as 1 instance, but its all-zero column keeps
        :meth:`_finalize` reporting nothing either way, so the resumed
        trajectory and reports match the uninterrupted run exactly.
        """
        engine = GossipEngine.restore(self.scenario(), path)
        remaining = self.config.cycles - engine.cycle
        if remaining < 0:
            engine.close()
            raise ConfigurationError(
                f"checkpoint is at cycle {engine.cycle}, beyond the "
                f"configured budget of {self.config.cycles} cycles"
            )
        self._engine = engine
        self.reports = [
            r for r in engine.epoch_results if isinstance(r, EpochReport)
        ]
        self._instances = len(engine.instance_names)
        self.size_trace = []
        return self._finish(engine, remaining, checkpoint)

    def _finish(
        self,
        engine: GossipEngine,
        cycles: int,
        checkpoint: Optional[CheckpointSpec],
    ) -> List[EpochReport]:
        try:
            result = engine.run(cycles, checkpoint=checkpoint)
        finally:
            # the run is terminal for this engine: release the backend
            # (a sharded pool and its shared segment) deterministically.
            # Post-run observers (current_size, epoch, backend_name)
            # keep working — they read engine state, not the backend.
            engine.close()
        # alive_counts[0] is the pre-run size; the trace matches the
        # historical one-entry-per-cycle shape (after resume it covers
        # only the resumed tail of the run)
        self.size_trace = result.alive_counts[1:]
        return self.reports
