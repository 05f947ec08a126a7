"""Robust aggregation via concurrent instances (the [11] direction).

The paper's §4 points to its companion technical report (Montresor,
Jelasity & Babaoglu, UBLCS-2003-16) for "mechanisms for adaptivity and
fault tolerance". The core trick there: run ``t`` concurrent,
independently seeded averaging instances in the same epoch and have
each node report the **median** of its ``t`` converged values.

Why it works: crash-related mass loss perturbs each instance
independently (different exchange sequences), so a median across
instances discards the outlier instances a few unlucky crashes produce,
at a bandwidth cost linear in ``t`` (values piggyback on the same
messages).

:class:`RobustAverager` runs each instance as its own single-column
:class:`~repro.kernel.engine.GossipEngine` on an independent seed, with
optional message loss (lost requests) and crash injection, and reports
both the naive single-instance estimate and the median-of-instances
estimate so benchmarks can quantify the gain.

The kernel hosts the same defenses as reductions over per-node reports
(:mod:`repro.kernel.robust`: median / trimmed mean, median-of-runs,
count-capped MIN/MAX size estimation), composable with any backend and
any :class:`~repro.kernel.adversary.AdversarySpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..kernel.engine import GossipEngine
from ..kernel.messages import exchange_loss
from ..kernel.scenario import Scenario
from ..rng import SeedLike, spawn_streams
from ..topology.base import Topology


@dataclass(frozen=True)
class RobustRunResult:
    """Outcome of one robust averaging run."""

    true_mean: float
    single_estimates: np.ndarray  # per-node estimate of instance 0
    median_estimates: np.ndarray  # per-node median across instances
    instances: int
    cycles: int

    @property
    def single_error(self) -> float:
        """Mean |error| of the single-instance estimates."""
        return float(np.abs(self.single_estimates - self.true_mean).mean())

    @property
    def median_error(self) -> float:
        """Mean |error| of the median-of-instances estimates."""
        return float(np.abs(self.median_estimates - self.true_mean).mean())


class RobustAverager:
    """Concurrent-instance averaging with median reporting.

    Parameters
    ----------
    topology:
        Overlay to gossip on.
    values:
        Per-node attribute values; the target is their mean.
    instances:
        Number of concurrent instances ``t`` (t = 1 degenerates to the
        plain protocol).
    loss_probability:
        Probability an entire exchange fails: its request is lost.
    seed:
        Master seed; instance ``k`` runs on stream ``k`` of
        :func:`~repro.rng.spawn_streams`, so each instance's exchange
        sequence is independent.
    """

    def __init__(
        self,
        topology: Topology,
        values: Sequence[float],
        *,
        instances: int = 5,
        loss_probability: float = 0.0,
        seed: SeedLike = None,
    ):
        if instances < 1:
            raise ConfigurationError(
                f"instances must be >= 1, got {instances}"
            )
        scenario = Scenario(
            topology, values, message_faults=exchange_loss(loss_probability)
        )
        self.topology = topology
        self.true_mean = float(np.mean(scenario.values))
        self._engines = [
            GossipEngine(scenario.replace(seed=stream))
            for stream in spawn_streams(seed, instances)
        ]

    @property
    def instances(self) -> int:
        """Number of concurrent instances."""
        return len(self._engines)

    @property
    def alive_count(self) -> int:
        """Number of alive nodes."""
        return self._engines[0].alive_count

    @property
    def cycle(self) -> int:
        """Number of completed cycles."""
        return self._engines[0].cycle

    def crash(self, node_ids: Sequence[int]) -> None:
        """Crash-stop nodes across all instances."""
        for engine in self._engines:
            engine.crash(node_ids)

    def run_cycle(self) -> None:
        """One synchronous cycle of every instance.

        Each instance uses its own RNG stream, so crash/loss damage is
        independent across instances — the property the median exploits.
        """
        for engine in self._engines:
            engine.run_cycle()

    def run(self, cycles: int) -> RobustRunResult:
        """Run ``cycles`` cycles and report both estimators."""
        for engine in self._engines:
            engine.run(cycles, record="end")
        stacked = np.stack(
            [engine.alive_column() for engine in self._engines]
        )  # (instances, alive)
        return RobustRunResult(
            true_mean=self.true_mean,
            single_estimates=stacked[0],
            median_estimates=np.median(stacked, axis=0),
            instances=self.instances,
            cycles=self.cycle,
        )
