"""Pluggable run-invariant monitors for :class:`GossipEngine`.

The §3 analysis rests on invariants the implementation can check while
it runs: push-pull averaging conserves total system mass, the variance
of the estimates never increases in the fault-free setting, and the
engine's lifecycle bookkeeping (alive/participant masks, the recycled
slot free-list) stays consistent under churn. Monitors are registered
on an engine (:meth:`GossipEngine.register_monitor`) and observed at
the end of every cycle; each observation returns structured
:class:`InvariantFinding` rows, and a monitor registered with
``strict=True`` turns any *violation* finding into a typed
:class:`repro.errors.InvariantViolation` raised at the offending cycle.

The mass monitor does per-fault-event drift *attribution*: the engine
keeps a per-cycle ledger of every deliberate mass-moving event it
applied (partial exchanges from lost replies, duplicate deliveries,
retransmission repairs, churn arrivals/departures, adversarial
injection), each with its exact per-column delta. The monitor then
checks ``measured == previous + sum(ledger)`` within a floating-point
tolerance: attributed drift (the faults' doing) is reported separately
from unattributed residual (which would indicate an engine bug). With
faults off the attributed fault drift is exactly ``0.0`` — the §3
conservation claim, certified per cycle.

Setting the environment variable ``REPRO_STRICT_INVARIANTS=1`` arms
the standard monitors in strict mode on every engine at construction —
the hook CI uses to re-run existing suites under invariant
certification without touching the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.aggregates import MeanAggregate

#: ledger categories that originate from message faults (their summed
#: deltas are the fault-attributed mass drift; everything else —
#: churn, crash, inject — is lifecycle-attributed)
FAULT_LEDGER_KEYS = ("partial", "duplicate", "repair")

#: the mass monitor's slack on one cycle's residual: absolute, plus
#: relative to the column's expected sum and the participant count —
#: the rounding a float64 sum over that many estimates can carry
MASS_ATOL = 1e-7
MASS_RTOL = 1e-12

#: the variance monitor's slack on a rise, relative to the previous
#: cycle's variance
VARIANCE_RTOL = 1e-9


@dataclass(frozen=True)
class InvariantFinding:
    """One observation of one monitor at one cycle."""

    monitor: str
    cycle: int
    severity: str  #: ``"violation"`` or ``"info"``
    message: str
    value: float = 0.0

    @property
    def is_violation(self) -> bool:
        return self.severity == "violation"


@dataclass(frozen=True)
class InvariantReport:
    """Every finding plus per-monitor summaries of a (partial) run."""

    findings: Tuple[InvariantFinding, ...] = ()
    summaries: Dict[str, dict] = field(default_factory=dict)

    @property
    def violations(self) -> Tuple[InvariantFinding, ...]:
        return tuple(f for f in self.findings if f.is_violation)

    @property
    def ok(self) -> bool:
        return not self.violations


class InvariantMonitor:
    """Base class: one invariant, observed once per executed cycle.

    ``observe`` receives the engine (synced — matrix reads are safe),
    the executed cycle number, the engine's per-cycle mass ledger
    (category -> per-column delta array) and a ``rebase`` flag set when
    the cycle deliberately re-seeded state (an epoch restart), which
    invalidates any expectation carried over from the previous cycle.
    """

    name = "invariant"

    def observe(self, engine, cycle: int,
                ledger: Dict[str, np.ndarray],
                rebase: bool) -> List[InvariantFinding]:
        return []

    def summary(self) -> dict:
        """Cumulative machine-readable state for reports."""
        return {}

    def _finding(self, cycle: int, severity: str, message: str,
                 value: float = 0.0) -> InvariantFinding:
        return InvariantFinding(
            monitor=self.name, cycle=cycle, severity=severity,
            message=message, value=value,
        )


class MassConservationMonitor(InvariantMonitor):
    """Mass conservation with per-fault-event drift attribution.

    Checks, for every AGGREGATE_AVG column, that the participants' sum
    moved exactly by the engine's attributed deltas. The tolerance is
    floating-point-scaled: each cycle's expectation is re-anchored on
    the previous cycle's *measured* sums, so rounding error does not
    accumulate across cycles.
    """

    name = "mass"

    def __init__(self):
        self._expected: Optional[np.ndarray] = None
        self.attributed: Dict[str, float] = {}
        self.max_residual = 0.0
        self.cycles_checked = 0

    def _mean_columns(self, engine) -> List[int]:
        return [
            index
            for index, function in enumerate(engine.aggregate_functions)
            if isinstance(function, MeanAggregate)
        ]

    def observe(self, engine, cycle, ledger, rebase):
        sums = engine.participant_sums()
        columns = self._mean_columns(engine)
        anchored = (
            self._expected is not None
            and len(self._expected) == len(sums)
            and not rebase
        )
        expected = (
            self._expected.astype(np.float64, copy=True)
            if anchored
            else None
        )
        # attribution is cumulative bookkeeping, never skipped — the
        # residual *check* below is what needs a previous-cycle anchor
        for key, delta in ledger.items():
            delta = np.asarray(delta, dtype=np.float64)
            if expected is not None:
                expected += delta
            contribution = float(delta[columns].sum()) if columns else 0.0
            self.attributed[key] = (
                self.attributed.get(key, 0.0) + contribution
            )
        if not anchored:
            # first observation, or the cycle deliberately re-seeded
            # state (epoch restart / instance rebuild): re-anchor
            self._expected = np.asarray(sums, dtype=np.float64).copy()
            return []
        findings = []
        scale = float(max(1.0, engine.participant_count))
        for column in columns:
            residual = float(sums[column] - expected[column])
            tolerance = MASS_ATOL + MASS_RTOL * (
                abs(float(expected[column])) + scale
            )
            self.max_residual = max(self.max_residual, abs(residual))
            if abs(residual) > tolerance:
                findings.append(self._finding(
                    cycle, "violation",
                    f"instance column {column}: participant mass moved by "
                    f"{residual:+.3e} beyond every attributed event "
                    f"(tolerance {tolerance:.3e})",
                    value=residual,
                ))
        self.cycles_checked += 1
        self._expected = np.asarray(sums, dtype=np.float64).copy()
        return findings

    @property
    def fault_drift(self) -> float:
        """Net attributed mass drift caused by message faults (partial
        exchanges + duplicates, offset by retransmission repairs).
        Exactly ``0.0`` when no fault event ever fired."""
        return sum(
            self.attributed.get(key, 0.0) for key in FAULT_LEDGER_KEYS
        )

    def summary(self) -> dict:
        return {
            "cycles_checked": self.cycles_checked,
            "attributed": dict(self.attributed),
            "fault_drift": self.fault_drift,
            "max_residual": self.max_residual,
        }


class VarianceMonotonicityMonitor(InvariantMonitor):
    """σ² never increases — valid only in the fault-free static
    setting (no churn, loss, message faults, crashes or adversaries,
    partitions included), where every AVG exchange provably reduces
    the sum of squared deviations. Self-disables (reports nothing) on
    scenarios where the premise does not hold."""

    name = "variance"

    def __init__(self):
        self._applicable: Optional[bool] = None
        self._last: Dict[int, float] = {}
        self._initial: Dict[int, float] = {}
        self.cycles_checked = 0

    def _check_applicable(self, engine) -> bool:
        scenario = engine.scenario
        return (
            not scenario.is_dynamic
            and scenario.message_faults is None
            and scenario.crash_plan is None
            and scenario.adversary is None
        )

    def observe(self, engine, cycle, ledger, rebase):
        if self._applicable is None:
            self._applicable = self._check_applicable(engine)
        if not self._applicable:
            return []
        findings = []
        for column, function in enumerate(engine.aggregate_functions):
            if not isinstance(function, MeanAggregate):
                continue
            name = engine.instance_names[column]
            variance = engine.variance(name)
            if column in self._last:
                previous = self._last[column]
                tolerance = VARIANCE_RTOL * previous + 1e-15 * (
                    self._initial.get(column, 1.0) + 1.0
                )
                if variance > previous + tolerance:
                    findings.append(self._finding(
                        cycle, "violation",
                        f"instance {name!r}: variance rose from "
                        f"{previous:.6e} to {variance:.6e} in a "
                        f"fault-free static run",
                        value=variance - previous,
                    ))
            else:
                self._initial[column] = variance
            self._last[column] = variance
        self.cycles_checked += 1
        return findings

    def summary(self) -> dict:
        return {
            "applicable": bool(self._applicable),
            "cycles_checked": self.cycles_checked,
        }


def audit_structure(snapshot) -> List[Tuple[str, float]]:
    """The structure checks over a
    :meth:`~repro.kernel.engine.GossipEngine.structure_snapshot`, as
    ``(message, value)`` findings (none: consistent). Raises nothing,
    whatever the snapshot holds: :class:`StructureMonitor` runs it every
    cycle and a restore once, before the checkpoint's first cycle.

    Every per-slot array holds ``capacity`` slots (else nothing more is
    checked: the checks below index them); participants are alive; the
    free list holds slots in ``[0, top)``, no slot twice and no alive
    one; ``top <= capacity``, and a static run frees nothing and uses
    every slot; under churn / epochs, allocated slots are exactly
    alive + recyclable + never used."""
    capacity, top = snapshot["capacity"], snapshot["top"]
    findings = [
        (f"per-slot array {key!r} holds {length} slots, capacity is "
         f"{capacity}", float(length - capacity))
        for key, length in snapshot["slot_lengths"].items()
        if length != capacity
    ]
    if findings:
        return findings
    alive, free_slots = snapshot["alive"], snapshot["free_slots"]
    ghosts = int(np.count_nonzero(snapshot["participant"] & ~alive))
    if ghosts:
        findings.append((f"{ghosts} participant slot(s) are not alive",
                         float(ghosts)))
    free = np.asarray(free_slots, dtype=np.int64)
    allocated = (free >= 0) & (free < min(top, capacity))
    if not allocated.all():
        findings.append((f"a free-listed slot is outside [0, top {top})",
                         float(len(free) - np.count_nonzero(allocated))))
    if len(set(free_slots)) != len(free_slots):
        findings.append(("the recycled-slot free list holds duplicate "
                         "slots", float(len(free_slots))))
    resurrected = int(np.count_nonzero(alive[free[allocated]]))
    if resurrected:
        findings.append((f"{resurrected} free-listed slot(s) are still "
                         f"alive", float(resurrected)))
    if top > capacity:
        findings.append((f"top {top} is past capacity {capacity}",
                         float(top - capacity)))
    unused = capacity - top
    if not snapshot["dynamic"]:
        if free_slots or unused:
            findings.append((f"a static run lists {len(free_slots)} free "
                             f"slot(s) and {unused} unused", float(unused)))
        return findings
    live = int(alive.sum())
    if live + len(free_slots) + unused != capacity:
        findings.append((
            f"slot accounting broke: {live} alive + {len(free_slots)} "
            f"free + {unused} unused != capacity {capacity}",
            float(live + len(free_slots) + unused - capacity),
        ))
    return findings


class StructureMonitor(InvariantMonitor):
    """Lifecycle bookkeeping consistency, every cycle: the checks of
    :func:`audit_structure` as violations — a growth that forgot a
    per-slot array is a violation on the cycle it happens, not an
    ``IndexError`` whenever a fresh slot is first touched."""

    name = "structure"

    def __init__(self):
        self.cycles_checked = 0

    def observe(self, engine, cycle, ledger, rebase):
        self.cycles_checked += 1
        return [
            self._finding(cycle, "violation", message, value=value)
            for message, value in audit_structure(
                engine.structure_snapshot()
            )
        ]

    def summary(self) -> dict:
        return {"cycles_checked": self.cycles_checked}


def standard_monitors() -> List[InvariantMonitor]:
    """Fresh instances of the standard monitor set (what
    ``REPRO_STRICT_INVARIANTS=1`` arms on every engine)."""
    return [
        MassConservationMonitor(),
        VarianceMonotonicityMonitor(),
        StructureMonitor(),
    ]
