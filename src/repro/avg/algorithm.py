"""Algorithm AVG (Figure 2) — the instrumented cycle runner.

One *cycle* of anti-entropy averaging is modeled as ``N`` elementary
variance-reduction steps driven by a pair selector. This module executes
cycles and records exactly the quantities the paper's figures plot:

* per-cycle empirical variance σ²ᵢ and the reduction ratio σ²ᵢ/σ²ᵢ₋₁
  (Figure 3),
* per-node communication counts φ (Theorem 1), and
* optionally the parallel ``s`` vector of Theorem 1's proof
  (``s_i = s_j = (s_i + s_j)/4``), which lets tests verify
  ``E(s_{i+1}) = E(2^{-φ}) · E(s_i)`` directly.

:func:`run_avg` runs on :class:`~repro.kernel.engine.GossipEngine`: it
declares a :class:`~repro.kernel.pairs.PairProtocolSpec` on a
:class:`~repro.kernel.scenario.Scenario` and reads the trajectory back
out of the kernel result. That is what gives every GETPAIR selector —
not just SEQ — the vectorized backend's conflict-free batched
execution at paper scale (``backend="vectorized"`` or the default
``"auto"``), with reference/vectorized trajectories bitwise-equal.
Per-cycle variance is measured once per boundary (cycle *i*'s
``variance_after`` IS cycle *i+1*'s ``variance_before``), which both
halves the O(N) reduction passes and removes a float-drift source
between the two measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..errors import ConfigurationError
from ..kernel.engine import GossipEngine
from ..kernel.pairs import PairProtocolSpec
from ..kernel.scenario import Scenario
from ..rng import SeedLike
from .pair_selectors import PairSelector
from .vector import ValueVector


@dataclass(frozen=True)
class CycleStats:
    """Measurements for a single cycle of AVG."""

    cycle: int
    variance_before: float
    variance_after: float
    phi: np.ndarray
    s_mean: Optional[float] = None

    @property
    def reduction(self) -> float:
        """The per-cycle variance reduction ratio σ²ᵢ/σ²ᵢ₋₁.

        Returns ``nan`` once the variance has hit exact zero (converged).
        """
        if self.variance_before == 0.0:
            return float("nan")
        return self.variance_after / self.variance_before

    @property
    def mean_phi(self) -> float:
        """Average number of communications per node this cycle (≈ 2)."""
        return float(self.phi.mean())


@dataclass
class RunResult:
    """Full trajectory of a multi-cycle AVG run."""

    initial_variance: float
    initial_mean: float
    cycles: List[CycleStats] = field(default_factory=list)

    @property
    def variances(self) -> np.ndarray:
        """σ²₀, σ²₁, …, σ²_T."""
        return np.asarray(
            [self.initial_variance] + [c.variance_after for c in self.cycles]
        )

    @property
    def reductions(self) -> np.ndarray:
        """Per-cycle ratios σ²ᵢ/σ²ᵢ₋₁ for i = 1..T."""
        return np.asarray([c.reduction for c in self.cycles])

    @property
    def overall_reduction(self) -> float:
        """σ²_T / σ²₀ across the whole run."""
        if self.initial_variance == 0.0:
            return float("nan")
        return float(self.variances[-1] / self.initial_variance)

    def geometric_mean_reduction(self) -> float:
        """Geometric mean of the per-cycle ratios (the empirical rate).

        Cycles at or past exact convergence contribute nothing to the
        empirical rate: a ``0.0`` ratio (the converging cycle) or a
        ``nan`` ratio (every cycle after it) is dropped, so a run that
        converges exactly mid-way still reports its pre-convergence
        rate instead of ``nan``.
        """
        ratios = self.reductions
        ratios = ratios[np.isfinite(ratios) & (ratios > 0)]
        if len(ratios) == 0:
            return float("nan")
        return float(np.exp(np.log(ratios).mean()))


def run_avg(
    vector: ValueVector,
    selector: PairSelector,
    cycles: int,
    *,
    seed: SeedLike = None,
    track_s: bool = False,
    backend: str = "auto",
) -> RunResult:
    """Run ``cycles`` cycles of AVG, mutating ``vector`` in place.

    Parameters
    ----------
    vector:
        The initial values; holds the final approximations afterwards.
    selector:
        The GETPAIR implementation (determines convergence rate).
    cycles:
        Number of cycles to run.
    seed:
        RNG seed or generator.
    track_s:
        When true, co-evolve the ``s`` vector of Theorem 1 starting from
        ``s_0 = a_0²`` and record its mean each cycle.
    backend:
        Kernel execution backend: ``"reference"`` (sequential elementary
        steps, the semantic oracle), ``"vectorized"`` (conflict-free
        batched scatter updates) or ``"auto"`` (default; picks by
        network size). The backends are bitwise-equal, so this is
        purely a speed choice.
    """
    if cycles < 0:
        raise ConfigurationError(f"cycles must be non-negative, got {cycles}")
    if vector.n != selector.n:
        raise ConfigurationError(
            f"vector length {vector.n} does not match selector size "
            f"{selector.n}"
        )
    scenario = Scenario(
        topology=selector.topology,
        values=vector.values,
        pair_protocol=PairProtocolSpec(
            selector=selector.name, track_s=track_s
        ),
        cycles=cycles,
        seed=seed,
        backend=backend,
    )
    with GossipEngine(scenario) as engine:
        kernel_result = engine.run(cycles)
    variances = kernel_result.variance_array("avg")
    result = RunResult(
        initial_variance=float(variances[0]),
        initial_mean=float(kernel_result.mean_array("avg")[0]),
    )
    s_means = kernel_result.mean_array("s") if track_s else None
    for cycle in range(1, cycles + 1):
        result.cycles.append(
            CycleStats(
                cycle=cycle,
                variance_before=float(variances[cycle - 1]),
                variance_after=float(variances[cycle]),
                phi=kernel_result.phi_counts[cycle - 1],
                s_mean=(
                    float(s_means[cycle]) if s_means is not None else None
                ),
            )
        )
    vector.values[:] = engine.alive_column("avg")
    return result
