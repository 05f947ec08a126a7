"""The robustness sweeps, each one :class:`~.runner.ScenarioGrid`:
§4 size estimation under adversaries (:class:`RobustnessSweep`) and
plain AVG under message loss (:class:`MessageFaultSweep`). Both build
from the YAML/JSON mapping of ``docs/scenarios.md``, return a JSON-able
payload from ``run()``, and draw through
:func:`~repro.analysis.reporting.render_line_chart`. ``repro robustness
[--messages]`` and ``benchmarks/bench_{adversary,messages}.py`` drive
them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..fields import check_count, check_real
from ..kernel.adversary import ADVERSARY_KINDS, AdversarySpec
from ..kernel.engine import GossipEngine
from ..kernel.invariants import MassConservationMonitor
from ..kernel.lifecycle import ChurnTrace, EpochSpec
from ..kernel.messages import MessageFaultSpec, RetrySpec
from ..kernel.robust import (
    ROBUST_REDUCTIONS,
    DEFAULT_TRIM,
    MultiAggregateSpec,
    median_of_runs,
    robust_reduce,
    size_from_count,
)
from ..kernel.scenario import Scenario
from ..rng import SeedLike, make_rng
from ..topology.complete import CompleteTopology
from ..topology.random_regular import RandomRegularTopology
from .reporting import DASHES, PALETTE, Panel, Series, render_line_chart
from .runner import Axis, ScenarioGrid, fold_seed
from .stats import convergence_factor


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigurationError(message)


class _Sweep:
    """What the two sweep configs share: the mapping constructor, the
    common checks and the payload."""

    label = ""

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]):
        """Build a sweep from a declarative config mapping (the parsed
        YAML/JSON form); unknown keys fail loudly."""
        known = {spec_field.name for spec_field in dataclasses.fields(cls)}
        unknown = set(mapping) - known
        _check(not unknown, f"unknown {cls.label} keys: {sorted(unknown)}; "
                            f"expected a subset of {sorted(known)}")
        return cls(**dict(mapping))

    def _check_shape(self, min_cycles: int, *sequences: str) -> None:
        where = type(self).__name__
        check_count(self.n, f"{where}.n", low=2)
        check_count(self.runs, f"{where}.runs", low=1)
        check_count(self.cycles, f"{where}.cycles", low=min_cycles)
        for name in sequences:
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def run(self) -> Dict[str, Any]:
        """Execute the grid: every config field but the seed, plus one
        row per cell."""
        payload = {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in vars(self).items() if name != "seed"
        }
        payload["rows"] = self.grid().run()
        return payload


# -- the adversary sweep ------------------------------------------------


@dataclass(frozen=True)
class RobustnessSweep(_Sweep):
    """The adversary sweep: ``kinds`` × overlays × ``fractions``, each
    cell replicated over ``runs`` seed streams. The overlays are every
    static topology, then each nonzero churn rate on the complete graph
    (not for eclipse, which needs a static overlay)."""

    label = "robustness-sweep"

    n: int = 100_000
    cycles: int = 30
    cycles_per_epoch: int = 30
    runs: int = 3
    value: float = 1.0
    kinds: Tuple[str, ...] = ("lying", "inject")
    fractions: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2)
    churn_rates: Tuple[float, ...] = (0.0, 0.01)
    topologies: Tuple[str, ...] = ("complete", "regular20")
    backend: str = "auto"
    seed: SeedLike = 2004
    trim: float = DEFAULT_TRIM

    def __post_init__(self) -> None:
        self._check_shape(1, "kinds", "fractions", "churn_rates",
                          "topologies")
        check_count(self.cycles_per_epoch, "RobustnessSweep.cycles_per_epoch",
                    low=1)
        for kind in self.kinds:
            _check(kind in ADVERSARY_KINDS, f"unknown adversary kind "
                   f"{kind!r}; expected one of {ADVERSARY_KINDS}")
        for fraction in self.fractions:
            check_real(fraction, "RobustnessSweep.fractions", low=0, high=1)
        for rate in self.churn_rates:
            check_real(rate, "RobustnessSweep.churn_rates", low=0, below=1)
        for name in self.topologies:
            _parse_topology_name(name)  # validate eagerly, build lazily

    def grid(self) -> ScenarioGrid:
        overlays = [(name, 0.0) for name in self.topologies] + [
            ("complete", rate) for rate in self.churn_rates if rate != 0.0
        ]
        return ScenarioGrid(
            base=MultiAggregateSpec.counting(self.n, trim=self.trim).scenario(
                CompleteTopology(self.n), cycles=self.cycles,
                backend=self.backend,
            ),
            axes=(
                Axis("kind", self.kinds, lambda scenario, cell: (
                    scenario.replace(adversary=AdversarySpec(
                        kind=cell["kind"], value=self.value
                    ))
                )),
                Axis(("topology", "churn_rate"), overlays, self._overlay),
                Axis("fraction", self.fractions, lambda scenario, cell: (
                    scenario.replace(adversary=dataclasses.replace(
                        scenario.adversary, fraction=cell["fraction"]
                    ))
                )),
            ),
            metric=self._estimate,
            reduce=_error_row,
            runs=self.runs,
            seed_tag=("robustness", self.seed),
            skip=lambda cell: (
                cell["kind"] == "eclipse" and cell["churn_rate"] != 0.0
            ),
        )

    def _overlay(self, scenario: Scenario, cell: Mapping[str, Any]
                 ) -> Scenario:
        """A static topology, or ``rate * n`` joins AND leaves per cycle
        on the complete graph over two §4 epochs, each with a fresh
        leader."""
        rate = cell["churn_rate"]
        if rate == 0.0:
            degree = _parse_topology_name(cell["topology"])
            return scenario.replace(topology=(
                CompleteTopology(self.n) if degree is None
                else _cached_regular_topology(self.n, degree)
            ))
        per_cycle = max(int(round(rate * self.n)), 1)
        cycles = 2 * self.cycles_per_epoch
        return scenario.replace(
            churn=ChurnTrace.constant(cycles, per_cycle, per_cycle),
            epochs=EpochSpec(
                cycles_per_epoch=self.cycles_per_epoch,
                reseed=_indicator_reseed,
            ),
            cycles=cycles,
        )

    def _estimate(self, scenario: Scenario) -> Dict[str, Any]:
        """One replication: the size estimate of every reduction, and
        the ground truth — under churn, the size at the final epoch's
        start (Figure 4's one-epoch lag)."""
        with GossipEngine(scenario) as engine:
            result = engine.run(record="cycle")
            truth = float(
                result.alive_counts[scenario.epochs.cycles_per_epoch]
                if scenario.epochs is not None else engine.alive_count
            )
            reports = engine.reported_column("count")
        estimates = {
            method: size_from_count(
                robust_reduce(reports, method, trim=self.trim),
                cap=100.0 * self.n,
            )
            for method in ROBUST_REDUCTIONS
        }
        return {"truth": truth, "estimates": estimates}


def _parse_topology_name(name: str) -> Optional[int]:
    """``None`` for the complete overlay, the degree for
    ``"regular<k>"``; raises on anything else."""
    if name == "complete":
        return None
    text = str(name)
    try:
        degree = (int(text[len("regular"):]) if text.startswith("regular")
                  else 0)
    except ValueError:
        degree = 0
    _check(degree >= 1, f"unknown topology {name!r}; expected 'complete' "
           f"or 'regular<k>'")
    return degree


@lru_cache(maxsize=4)
def _cached_regular_topology(n: int, degree: int) -> RandomRegularTopology:
    # overlays are immutable and their construction seed is a pure
    # function of the shape, so the sweep is reproducible and cells
    # share one graph (paid once per sweep, not once per replication)
    return RandomRegularTopology(n, degree, seed=97 + 31 * degree + n)


def _indicator_reseed(context) -> np.ndarray:
    """Epoch restart for the counting instance: the lowest participant
    slot becomes the epoch's leader (holds 1), everyone else 0."""
    rows = np.zeros(len(context.participants), dtype=np.float64)
    rows[0] = 1.0
    return rows


def _error_row(outcomes: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per reduction, the mean relative error over the replications
    (``error_<method>``) and the error of the median-of-runs combined
    estimate (``runs_error_<method>`` — the UBLCS-2003-16 cross-run
    defense)."""
    row = {}
    mean_truth = float(np.mean([outcome["truth"] for outcome in outcomes]))
    for method in ROBUST_REDUCTIONS:
        estimates = [outcome["estimates"][method] for outcome in outcomes]
        row[f"error_{method}"] = float(np.mean([
            abs(estimate - outcome["truth"]) / outcome["truth"]
            for estimate, outcome in zip(estimates, outcomes)
        ]))
        row[f"runs_error_{method}"] = float(
            abs(median_of_runs(estimates) - mean_truth) / mean_truth
        )
    return row


def render_robustness_svg(payload: Mapping[str, Any]) -> str:
    """The robustness-report figure: one panel per adversary kind,
    relative estimation error (log scale) vs adversary fraction, one
    color per reduction and one dash style per static topology, plus
    the highest churn rate on the complete overlay."""
    rates = [rate for rate in payload["churn_rates"] if rate > 0.0]
    overlays = [(name, 0.0, name) for name in payload["topologies"]]
    if rates:
        overlays.append(("complete", max(rates), f"churn {max(rates):g}"))
    panels = []
    for kind in payload["kinds"]:
        series = []
        for style, (topology, rate, label) in enumerate(overlays):
            rows = [row for row in payload["rows"] if row["kind"] == kind
                    and row["topology"] == topology
                    and row["churn_rate"] == rate]
            series.extend(
                Series(f"{method} · {label}",
                       [(row["fraction"], row[f"error_{method}"])
                        for row in rows],
                       PALETTE[color], DASHES[style % len(DASHES)])
                for color, method in enumerate(ROBUST_REDUCTIONS)
            )
        panels.append(Panel(
            f"{kind} adversary — N={payload['n']}", series,
            x_label="adversary fraction", log_y=True,
            y_range=(1e-8, 10.0 ** 0.5),
        ))
    return render_line_chart(panels, columns=len(panels), panel_height=360)


# -- the message-fault sweep --------------------------------------------

#: the retry policies the degradation sweep compares; ``"none"`` runs
#: the fault spec without any :class:`~repro.kernel.messages.RetrySpec`
_RETRY_POLICIES = {
    "none": None,
    "retransmit": RetrySpec(),
    "redraw": RetrySpec(mode="redraw"),
    "push_only": RetrySpec(budget=2, fallback="push_only"),
}
MESSAGE_FAULT_POLICIES = tuple(_RETRY_POLICIES)

#: loss directions the sweep degrades along (the asymmetry is the
#: point: request loss cancels cleanly, reply loss leaks mass)
MESSAGE_FAULT_DIRECTIONS = ("request", "reply")


def retry_for_policy(policy: str) -> Optional[RetrySpec]:
    """The :class:`RetrySpec` a sweep policy name stands for (``None``
    for the no-retry baseline)."""
    _check(policy in _RETRY_POLICIES, f"unknown retry policy {policy!r}; "
           f"expected one of {MESSAGE_FAULT_POLICIES}")
    return _RETRY_POLICIES[policy]


@dataclass(frozen=True)
class MessageFaultSweep(_Sweep):
    """The degradation-figure sweep: ``directions`` × ``policies`` ×
    ``loss_rates``, each cell replicated over ``runs`` seed streams.

    Every cell runs plain AVG (normal(10, 4) values on the complete
    overlay) losing the cell's direction at the cell's rate. A
    :class:`~repro.kernel.invariants.MassConservationMonitor` rides
    along, so the reported drift is the *attributed* fault drift —
    partials + duplicates offset by repairs — not a noisy end-state
    difference. Zero-rate cells run once per direction, as policy
    ``"none"``: with no loss coin flipped every policy is the same run.
    """

    label = "message-fault-sweep"

    n: int = 100_000
    cycles: int = 40
    runs: int = 5
    loss_rates: Tuple[float, ...] = (0.0, 0.02, 0.05, 0.1, 0.2)
    directions: Tuple[str, ...] = MESSAGE_FAULT_DIRECTIONS
    policies: Tuple[str, ...] = MESSAGE_FAULT_POLICIES
    duplication: float = 0.0
    backend: str = "auto"
    seed: SeedLike = 2004

    def __post_init__(self) -> None:
        # a convergence factor needs two cycles
        self._check_shape(2, "loss_rates", "directions", "policies")
        for rate in self.loss_rates:
            check_real(rate, "MessageFaultSweep.loss_rates", low=0, below=1)
        for direction in self.directions:
            _check(direction in MESSAGE_FAULT_DIRECTIONS, f"unknown loss "
                   f"direction {direction!r}; expected one of "
                   f"{MESSAGE_FAULT_DIRECTIONS}")
        for policy in self.policies:
            retry_for_policy(policy)  # validate eagerly
        check_real(self.duplication, "MessageFaultSweep.duplication", low=0,
                   below=1)

    def grid(self) -> ScenarioGrid:
        values = make_rng(fold_seed(("message-values", self.seed))).normal(
            10.0, 4.0, self.n
        )
        return ScenarioGrid(
            base=Scenario(
                CompleteTopology(self.n), values,
                message_faults=MessageFaultSpec(duplication=self.duplication),
                cycles=self.cycles, backend=self.backend,
            ),
            axes=(
                Axis("direction", self.directions),
                Axis("policy", self.policies, lambda scenario, cell: (
                    scenario.replace(retry=retry_for_policy(cell["policy"]))
                )),
                Axis("loss_rate", self.loss_rates, lambda scenario, cell: (
                    scenario.replace(message_faults=dataclasses.replace(
                        scenario.message_faults,
                        **{f"{cell['direction']}_loss": cell["loss_rate"]},
                    ))
                )),
            ),
            metric=self._degradation,
            reduce=_band_row,
            runs=self.runs,
            seed_tag=("messages", self.seed),
            skip=lambda cell: (
                cell["loss_rate"] == 0.0 and cell["policy"] != "none"
            ),
        )

    def _degradation(self, scenario: Scenario) -> Dict[str, float]:
        """One replication of one degradation cell."""
        with GossipEngine(scenario) as engine:
            monitor = engine.register_monitor(MassConservationMonitor())
            result = engine.run(record="cycle")
            estimate_error = abs(engine.mean() - float(scenario.values.mean()))
            stats = dict(engine.message_fault_stats)
            pending = engine.pending_retry_count
        return {
            "convergence_factor": convergence_factor(result.variance_array()),
            "drift_per_node": abs(monitor.fault_drift) / self.n,
            "estimate_error": float(estimate_error),
            "max_residual": float(monitor.summary()["max_residual"]),
            "pending_final": float(pending),
            **{counter: float(stats.get(counter, 0))
               for counter in ("partials", "repairs", "retries", "giveups")},
        }


def _band_row(outcomes: List[Dict[str, float]]) -> Dict[str, float]:
    """The replication mean of the convergence factor, the per-node
    attributed drift and the end-state estimate error, each with a 95 %
    acceptance band (normal-approximation half width, the figure's
    whiskers), plus the mean fault counters."""
    row = {}
    for metric in ("convergence_factor", "drift_per_node", "estimate_error"):
        samples = np.asarray([outcome[metric] for outcome in outcomes],
                             dtype=np.float64)
        spread = float(np.nanstd(samples, ddof=1)) if len(samples) > 1 else 0.0
        row[metric] = float(np.nanmean(samples))
        row[f"{metric}_band"] = float(1.96 * spread / np.sqrt(len(samples)))
    for counter in ("partials", "repairs", "retries", "giveups",
                    "pending_final", "max_residual"):
        row[counter] = float(np.mean([outcome[counter]
                                      for outcome in outcomes]))
    return row


def render_message_fault_svg(payload: Mapping[str, Any]) -> str:
    """The degradation figure: one column per loss direction; the top
    row plots per-node attributed mass drift (log scale), the bottom
    row the convergence factor (linear), both vs loss rate with one
    line per retry policy and 95 % acceptance-band whiskers. The shared
    rate-0 cell (policy ``"none"``) starts every policy's line."""
    panels = []
    for metric, title, log_y, y_range in (
        ("drift_per_node", "mass drift / node (log)", True, (1e-9, 1.0)),
        ("convergence_factor", "convergence factor", False, (0.0, 1.0)),
    ):
        for direction in payload["directions"]:
            series = []
            for color, policy in enumerate(payload["policies"]):
                rows = [row for row in payload["rows"]
                        if row["direction"] == direction
                        and (row["policy"] == policy
                             or row["loss_rate"] == 0.0)]
                band = f"{metric}_band"
                series.append(Series(
                    policy,
                    [(row["loss_rate"], row[metric]) for row in rows],
                    PALETTE[color],
                    whiskers=[(row["loss_rate"],
                               max(row[metric] - row[band], 0.0),
                               row[metric] + row[band])
                              for row in rows if row[band] > 0.0],
                ))
            panels.append(Panel(
                f"{direction}-loss — {title}, N={payload['n']}", series,
                x_label="loss rate (whiskers = 95% band)", log_y=log_y,
                y_range=y_range,
            ))
    return render_line_chart(
        panels, columns=len(payload["directions"]), panel_height=280
    )
