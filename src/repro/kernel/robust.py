"""Kernel-hosted robust estimation: reductions over per-node reports.

The defenses are *reductions* over what the network reports — cheap
numpy passes over
:meth:`~repro.kernel.engine.GossipEngine.reported_column` — so they
compose with every backend, every failure model and every
:class:`~repro.kernel.adversary.AdversarySpec`
(:func:`~repro.core.robust.median_of_instances` is the
median-of-instances defense over independently seeded engines):

* **median / trimmed mean** over per-node reports: exact against
  report-time (byzantine) contamination below the breakdown point
  (50 % for the median, the trim fraction per tail for the trimmed
  mean), while the plain mean is dragged arbitrarily far by a single
  liar;
* **median-of-runs**: the UBLCS-2003-16 trick — independent runs (or
  concurrent instances) fail independently, so a median across their
  estimates discards unlucky outliers;
* **count-capped MIN/MAX size estimation**: ``k`` extreme-value
  instances seeded U(0,1); the minimum of ``N`` uniforms is
  approximately Exp(``N``), so ``(k-1)/Σ minima`` estimates ``N``
  (unbiased under the exponential approximation), and capping each
  implied count at a deployment bound keeps an adversary who injects
  ``0`` from driving the estimate to infinity.

:class:`MultiAggregateSpec` bundles the §4 multi-instance layout
(values + aggregate columns + initial vectors) with the reduction that
turns reports into one estimate, and builds the matching
:class:`~repro.kernel.scenario.Scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Optional

import numpy as np

from ..core.aggregates import (
    AggregateFunction,
    MaxAggregate,
    MeanAggregate,
    MinAggregate,
)
from ..errors import ConfigurationError
from ..fields import (
    check_choice, check_count, check_node_id, check_real, declare,
    validate_fields,
)
from ..rng import SeedLike, make_rng
from ..topology.base import Topology
from .scenario import Scenario, check_layout

#: accepted reduction names for :func:`robust_reduce`
ROBUST_REDUCTIONS = ("mean", "median", "trimmed")

#: default trim fraction per tail — robust to one-sided contamination
#: of up to 25 % of the reports
DEFAULT_TRIM = 0.25


def _as_reports(reports) -> np.ndarray:
    arr = np.asarray(reports, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ConfigurationError("cannot reduce an empty report set")
    return arr


def trimmed_mean(reports, trim: float = DEFAULT_TRIM) -> float:
    """Mean of the reports with the ``trim`` fraction of each tail
    discarded (symmetric trimming; ``trim=0`` degenerates to the plain
    mean). Robust to up to ``trim`` one-sided contamination."""
    arr = _as_reports(reports)
    check_real(trim, "trim", low=0, below=0.5)
    cut = int(trim * arr.size)
    if 2 * cut >= arr.size:
        return float(np.median(arr))
    arr = np.sort(arr)
    return float(arr[cut:arr.size - cut].mean())


def robust_reduce(
    reports, method: str, *, trim: float = DEFAULT_TRIM
) -> float:
    """Reduce per-node reports to one estimate: ``"mean"`` (the paper's
    baseline, no robustness), ``"median"`` or ``"trimmed"``."""
    arr = _as_reports(reports)
    if method == "mean":
        return float(arr.mean())
    if method == "median":
        return float(np.median(arr))
    if method == "trimmed":
        return trimmed_mean(arr, trim)
    raise ConfigurationError(
        f"unknown reduction {method!r}; expected one of {ROBUST_REDUCTIONS}"
    )


def median_of_runs(estimates) -> float:
    """Median across independent run (or instance) estimates — each run
    is damaged independently, so the median discards unlucky runs."""
    return float(np.median(_as_reports(estimates)))


def size_from_count(reduced_count: float, *, cap: Optional[float] = None) -> float:
    """Network size implied by a reduced counting-instance report
    (§4: the leader holds 1, everyone else 0, so the average is 1/N).
    Non-positive or non-finite reductions map to ``cap`` (or ``inf``):
    an adversary can destroy the estimate but not crash the reader."""
    if not np.isfinite(reduced_count) or reduced_count <= 0.0:
        return float(cap) if cap is not None else float("inf")
    estimate = 1.0 / reduced_count
    if cap is not None:
        return float(min(estimate, cap))
    return float(estimate)


def min_size_estimate(minima, *, cap: Optional[float] = None) -> float:
    """Count-capped extreme-value size estimation from ``k`` MIN
    instances seeded U(0,1).

    Each converged instance holds the minimum of ``N`` uniforms,
    approximately Exp(``N``) for large ``N``; the sum of ``k``
    independent minima is Gamma(``k``, 1/``N``), making
    ``(k-1) / Σ minima`` the unbiased inverse-Gamma estimator of ``N``.
    ``cap`` bounds each instance's implied count at a deployment-chosen
    maximum (minima are clipped to ``1/cap``), so injected zeros
    saturate at ``cap`` instead of producing an infinite size.
    """
    arr = _as_reports(minima)
    if arr.size < 2:
        raise ConfigurationError(
            f"min/max size estimation needs >= 2 instances, got {arr.size}"
        )
    if cap is not None:
        check_real(cap, "cap", above=0)
        arr = np.clip(arr, 1.0 / cap, None)
    total = float(arr.sum())
    if total <= 0.0:
        return float(cap) if cap is not None else float("inf")
    estimate = (arr.size - 1) / total
    if cap is not None:
        estimate = min(estimate, float(cap))
    return float(estimate)


def max_size_estimate(maxima, *, cap: Optional[float] = None) -> float:
    """The MAX dual of :func:`min_size_estimate`: instances seeded
    U(0,1) converge to the maximum of ``N`` uniforms, and ``1 - max``
    is distributed like the minimum."""
    return min_size_estimate(1.0 - _as_reports(maxima), cap=cap)


@dataclass(frozen=True)
class MultiAggregateSpec:
    """A §4 multi-instance bundle plus its report reduction.

    Carries everything needed to piggyback ``k`` concurrent aggregation
    instances on one exchange stream (per-node base ``values``, the
    instance-id → :class:`AggregateFunction` mapping, optional
    per-instance ``initial`` vectors) together with the robust
    ``reduction`` applied to each instance's per-node reports. Use
    :meth:`scenario` to build the matching
    :class:`~repro.kernel.scenario.Scenario` and :meth:`estimates` to
    reduce a finished engine's reports.
    """

    values: np.ndarray = declare("custom")
    aggregates: Mapping[Hashable, AggregateFunction] = declare(
        "custom", default_factory=lambda: {"mean": MeanAggregate()}
    )
    initial: Optional[Mapping[Hashable, np.ndarray]] = declare("custom", None)
    reduction: str = declare("choice", "median", choices=ROBUST_REDUCTIONS)
    trim: float = declare("real", DEFAULT_TRIM, low=0, below=0.5)

    def __post_init__(self) -> None:
        validate_fields(self)
        object.__setattr__(self, "values", check_layout(
            "MultiAggregateSpec", self.values, self.aggregates
        ))

    @property
    def n(self) -> int:
        """Network size the spec was built for."""
        return len(self.values)

    def scenario(self, topology: Topology, **kwargs) -> Scenario:
        """The :class:`Scenario` running this bundle on ``topology``
        (remaining scenario fields — adversary, churn, seed, backend,
        … — pass through as keyword arguments)."""
        return Scenario(
            topology=topology,
            values=self.values,
            aggregates=dict(self.aggregates),
            initial=self.initial,
            **kwargs,
        )

    def reduce_reports(self, reports) -> float:
        """Apply this spec's reduction to one instance's reports."""
        return robust_reduce(reports, self.reduction, trim=self.trim)

    def estimates(self, engine) -> Dict[Hashable, float]:
        """Reduced estimate per instance from a (running or finished)
        engine's reported view — lies included, which is the point."""
        return {
            name: self.reduce_reports(engine.reported_column(name))
            for name in self.aggregates
        }

    # -- canonical bundles ----------------------------------------------

    @classmethod
    def counting(
        cls,
        n: int,
        *,
        leader: int = 0,
        reduction: str = "median",
        trim: float = DEFAULT_TRIM,
    ) -> "MultiAggregateSpec":
        """The §4 COUNT bundle: one AVG instance over the leader
        indicator (node ``leader`` starts at 1, everyone else 0);
        network size is :func:`size_from_count` of the reduced report."""
        leader = check_node_id(leader, n)
        indicator = np.zeros(n, dtype=np.float64)
        indicator[leader] = 1.0
        return cls(
            values=indicator,
            aggregates={"count": MeanAggregate()},
            reduction=reduction,
            trim=trim,
        )

    @classmethod
    def extrema(
        cls,
        n: int,
        *,
        instances: int = 16,
        kind: str = "min",
        seed: SeedLike = None,
        reduction: str = "median",
        trim: float = DEFAULT_TRIM,
    ) -> "MultiAggregateSpec":
        """The extreme-value size bundle: ``instances`` MIN (or MAX)
        columns independently seeded U(0,1); feed the per-instance
        reduced reports to :func:`min_size_estimate` /
        :func:`max_size_estimate`."""
        check_count(instances, "extrema.instances", low=2)
        check_choice(kind, "extrema.kind", choices=("min", "max"))
        rng = make_rng(seed)
        function_type = MinAggregate if kind == "min" else MaxAggregate
        names = tuple(f"{kind}{index}" for index in range(instances))
        initial = {name: rng.random(n) for name in names}
        return cls(
            values=np.zeros(n, dtype=np.float64),
            aggregates={name: function_type() for name in names},
            initial=initial,
            reduction=reduction,
            trim=trim,
        )
