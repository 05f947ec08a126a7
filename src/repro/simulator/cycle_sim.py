"""PeerSim-style cycle-driven simulator.

Runs the Figure 1 protocol under the synchronous model the paper
analyzes: in each cycle every alive node, in a fixed order, contacts a
random neighbor and both adopt ``AGGREGATE(x_i, x_j)`` — exactly the
GETPAIR_SEQ discipline of §3.3.3. Supports per-exchange message loss
and crash-stop failures between cycles, which is how the A2 robustness
ablation runs at scale.

Since the unified-kernel refactor this class is a thin, API-stable
shell over :class:`repro.kernel.GossipEngine`: it builds a
single-instance :class:`~repro.kernel.Scenario` and delegates
execution, which is how it gains the ``backend`` parameter — pass
``backend="vectorized"`` (or leave the default ``"auto"`` at scale) to
run the structure-of-arrays batched path that reproduces the
sequential semantics bitwise.

Node churn and §4 epoch restarts are kernel-hosted too: pass a
``churn`` model (applied as alive-mask mutation with value-matrix row
recycling — node objects are never rebuilt) and/or an ``epochs`` spec,
and the simulator keeps delegating; both backends stay bitwise-equal
under every failure model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..core.aggregates import AggregateFunction, MeanAggregate
from ..errors import ConfigurationError
from ..kernel.engine import GossipEngine
from ..kernel.scenario import Scenario
from ..rng import SeedLike
from ..topology.base import Topology


@dataclass
class CycleRunResult:
    """Per-cycle trajectory of a cycle-driven run."""

    variances: List[float] = field(default_factory=list)
    means: List[float] = field(default_factory=list)
    exchange_counts: List[int] = field(default_factory=list)

    @property
    def variance_array(self) -> np.ndarray:
        """σ²₀ … σ²_T as an array."""
        return np.asarray(self.variances)


class CycleSimulator:
    """Synchronous cycle-driven execution of anti-entropy aggregation.

    Parameters
    ----------
    topology:
        Overlay to draw neighbors from.
    values:
        Initial approximations (x_i = a_i at cycle 0).
    aggregate:
        Pairwise combiner; default AGGREGATE_AVG.
    loss_probability:
        Probability that a given exchange fails entirely (both sides
        keep their values). Models symmetric message loss; asymmetric
        loss is a kernel :class:`~repro.kernel.MessageFaultSpec`.
    churn:
        Optional :class:`~repro.failures.churn.ChurnModel` (or a full
        :class:`~repro.kernel.ChurnSpec`): per-cycle joins/leaves
        applied by the kernel as alive-mask growth/shrink with row
        recycling. Requires a complete topology (the paper's uniform
        overlay).
    epochs:
        Optional :class:`~repro.kernel.EpochSpec` enabling §4 epoch
        restarts.
    seed:
        RNG seed or generator.
    backend:
        Kernel execution backend: ``"reference"``, ``"vectorized"`` or
        ``"auto"`` (default; picks by network size). Tracing forces the
        reference backend.
    """

    def __init__(
        self,
        topology: Topology,
        values: Sequence[float],
        *,
        aggregate: Optional[AggregateFunction] = None,
        loss_probability: float = 0.0,
        trace=None,
        partition=None,
        churn=None,
        epochs=None,
        seed: SeedLike = None,
        backend: str = "auto",
    ):
        self.topology = topology
        self.aggregate = aggregate if aggregate is not None else MeanAggregate()
        scenario = Scenario(
            topology,
            np.asarray(values, dtype=np.float64),
            aggregates={self.aggregate.name: self.aggregate},
            loss_probability=loss_probability,
            partition=partition,
            churn=churn,
            epochs=epochs,
            seed=seed,
            backend=backend,
        )
        self._engine = GossipEngine(scenario, trace=trace)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release the engine's backend resources (a sharded worker
        pool and its shared segment; no-op for in-process backends).
        The simulator is incremental, so closing is the caller's call —
        or use the simulator as a context manager."""
        self._engine.close()

    def __enter__(self) -> "CycleSimulator":
        return self

    def __exit__(self, exc_type, exc_value, exc_tb) -> None:
        self.close()

    # -- observation -----------------------------------------------------

    @property
    def backend_name(self) -> str:
        """The concrete kernel backend executing this simulator."""
        return self._engine.backend_name

    @property
    def cycle(self) -> int:
        """Number of completed cycles."""
        return self._engine.cycle

    @property
    def values(self) -> np.ndarray:
        """Approximations of *alive* nodes."""
        return self._engine.alive_column()

    @property
    def all_values(self) -> np.ndarray:
        """Approximations of every node, including crashed ones."""
        return self._engine.column()

    @property
    def alive_count(self) -> int:
        """Number of alive nodes."""
        return self._engine.alive_count

    def variance(self) -> float:
        """Unbiased variance of alive approximations (eq. 3)."""
        return self._engine.variance()

    def mean(self) -> float:
        """Mean of alive approximations."""
        return self._engine.mean()

    # -- failure injection --------------------------------------------------

    def crash(self, node_ids: Sequence[int]) -> None:
        """Crash-stop nodes; their approximations leave the system."""
        self._engine.crash(node_ids)

    # -- execution ---------------------------------------------------------

    def run_cycle(self) -> int:
        """One synchronous cycle (every alive node initiates once, in
        index order). Returns the number of successful exchanges."""
        return self._engine.run_cycle()

    def run(self, cycles: int) -> CycleRunResult:
        """Run ``cycles`` cycles, recording the variance trajectory."""
        if cycles < 0:
            raise ConfigurationError(f"cycles must be non-negative, got {cycles}")
        kernel_result = self._engine.run(cycles)
        name = kernel_result.primary
        # epoch-restarted runs skip per-instance trajectories (the
        # instance count may change per epoch); see KernelRunResult
        return CycleRunResult(
            variances=kernel_result.variances.get(name, []),
            means=kernel_result.means.get(name, []),
            exchange_counts=kernel_result.exchange_counts,
        )
