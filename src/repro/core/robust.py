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

:func:`median_of_instances` runs each instance as its own
:class:`~repro.kernel.engine.GossipEngine` over one scenario on an
independent seed — loss, crashes and any other failure model are the
scenario's — and reports both the naive single-instance estimate and
the median-of-instances estimate so benchmarks can quantify the gain.

The kernel hosts the same defenses as reductions over per-node reports
(:mod:`repro.kernel.robust`: median / trimmed mean, median-of-runs,
count-capped MIN/MAX size estimation), composable with any backend and
any :class:`~repro.kernel.adversary.AdversarySpec`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fields import check_count
from ..kernel.engine import GossipEngine
from ..kernel.scenario import Scenario
from ..rng import spawn_streams


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


def median_of_instances(scenario: Scenario, instances: int) -> RobustRunResult:
    """Run ``instances`` independent copies of ``scenario`` for its
    ``cycles`` and report both estimators over the surviving nodes.

    Instance ``k`` runs on stream ``k`` of
    :func:`~repro.rng.spawn_streams` (``scenario.seed``, ``instances``)
    as its own engine, so crash and loss damage is independent across
    instances — the property the median exploits; ``t`` columns of one
    engine would share partner draws. ``instances=1`` is the plain
    protocol.
    """
    check_count(instances, "median_of_instances.instances", low=1)
    columns = []
    for stream in spawn_streams(scenario.seed, instances):
        with GossipEngine(scenario.replace(seed=stream)) as engine:
            engine.run(record="end")
            columns.append(engine.alive_column())
    stacked = np.stack(columns)  # (instances, alive)
    return RobustRunResult(
        true_mean=float(np.mean(scenario.values)),
        single_estimates=stacked[0],
        median_estimates=np.median(stacked, axis=0),
        instances=instances,
        cycles=scenario.cycles,
    )
