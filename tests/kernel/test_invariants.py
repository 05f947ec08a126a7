"""Invariant-monitor suite: findings, reports, strict mode, drift
attribution, and the ``REPRO_STRICT_INVARIANTS`` CI hook.

The monitors certify the §3 analysis while the engine runs: mass
conservation (with per-fault-event attribution through the engine's
cycle ledger), variance monotonicity in the fault-free static setting,
and lifecycle bookkeeping consistency under churn. The suite drives
them through clean runs, fault runs, deliberate violations (via a
monitor stub) and the environment hook that arms them on every engine.
"""

import numpy as np
import pytest

from repro.errors import InvariantViolation
from repro.kernel import (
    AdversarySpec,
    ChurnTrace,
    GossipEngine,
    InvariantFinding,
    InvariantMonitor,
    InvariantReport,
    MassConservationMonitor,
    MessageFaultSpec,
    Scenario,
    StructureMonitor,
    VarianceMonotonicityMonitor,
    standard_monitors,
)
from repro.topology import CompleteTopology

N = 300
SEED = 41


def make_scenario(n=N, **kwargs):
    values = np.random.default_rng(SEED).normal(10.0, 4.0, n)
    return Scenario(
        CompleteTopology(n), values, seed=SEED, backend="reference", **kwargs
    )


class AlwaysViolates(InvariantMonitor):
    """Stub driving the strict machinery without a real engine bug."""

    name = "stub"

    def observe(self, engine, cycle, ledger, rebase):
        return [self._finding(cycle, "violation", "deliberate failure",
                              value=1.5)]


class TestFindingsAndReport:
    def test_finding_severity_predicate(self):
        violation = InvariantFinding("m", 3, "violation", "boom")
        info = InvariantFinding("m", 3, "info", "fine")
        assert violation.is_violation and not info.is_violation

    def test_report_filters_violations(self):
        violation = InvariantFinding("m", 1, "violation", "boom", value=2.0)
        report = InvariantReport(findings=(
            InvariantFinding("m", 0, "info", "fine"), violation,
        ))
        assert report.violations == (violation,)
        assert not report.ok
        assert InvariantReport().ok

    def test_engine_report_collects_summaries(self):
        engine = GossipEngine(make_scenario())
        engine.arm_standard_monitors()
        try:
            engine.run(4)
            report = engine.invariant_report()
        finally:
            engine.close()
        assert report.ok
        assert set(report.summaries) == {"mass", "variance", "structure"}
        assert report.summaries["mass"]["cycles_checked"] == 3
        assert report.summaries["mass"]["fault_drift"] == 0.0


class TestStrictMode:
    def test_strict_violation_raises_at_cycle(self):
        engine = GossipEngine(make_scenario())
        engine.register_monitor(AlwaysViolates(), strict=True)
        try:
            with pytest.raises(InvariantViolation) as excinfo:
                engine.run(5)
            assert excinfo.value.findings
            assert excinfo.value.findings[0].monitor == "stub"
            assert excinfo.value.findings[0].cycle == 0
        finally:
            engine.close()

    def test_non_strict_violation_accumulates(self):
        engine = GossipEngine(make_scenario())
        engine.register_monitor(AlwaysViolates(), strict=False)
        try:
            engine.run(3)
            report = engine.invariant_report()
        finally:
            engine.close()
        assert len(report.violations) == 3

    def test_env_hook_arms_standard_monitors(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT_INVARIANTS", "1")
        engine = GossipEngine(make_scenario())
        try:
            engine.run(3)
            report = engine.invariant_report()
        finally:
            engine.close()
        assert set(report.summaries) == {"mass", "variance", "structure"}
        assert report.ok

    def test_env_hook_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_STRICT_INVARIANTS", raising=False)
        engine = GossipEngine(make_scenario())
        try:
            engine.run(2)
            report = engine.invariant_report()
        finally:
            engine.close()
        assert report.summaries == {}


class TestMassConservation:
    def test_clean_run_certifies_zero_drift(self):
        engine = GossipEngine(make_scenario())
        monitor = engine.register_monitor(
            MassConservationMonitor(), strict=True
        )
        try:
            engine.run(10)
        finally:
            engine.close()
        assert monitor.fault_drift == 0.0
        assert monitor.attributed == {}
        assert monitor.max_residual < 1e-7

    def test_partial_exchanges_fully_attributed(self):
        """Every unit of fault drift shows up in the ledger: the
        attributed partial drift equals the estimate's offset from the
        true mean, and the unattributed residual stays at rounding
        level."""
        values = np.random.default_rng(SEED).normal(10.0, 4.0, N)
        engine = GossipEngine(make_scenario(
            message_faults=MessageFaultSpec(reply_loss=0.3)
        ))
        monitor = engine.register_monitor(MassConservationMonitor())
        try:
            engine.run(20)
            estimate = engine.mean()
            report = engine.invariant_report()
        finally:
            engine.close()
        assert report.ok
        assert "partial" in monitor.attributed
        assert abs(estimate - values.mean()) == pytest.approx(
            abs(monitor.fault_drift) / N, rel=1e-9
        )
        assert monitor.max_residual < 1e-7

    def test_adversary_injection_is_lifecycle_not_fault(self):
        engine = GossipEngine(make_scenario(
            adversary=AdversarySpec(kind="inject", fraction=0.1, value=99.0)
        ))
        monitor = engine.register_monitor(
            MassConservationMonitor(), strict=True
        )
        try:
            engine.run(6)
        finally:
            engine.close()
        assert "inject" in monitor.attributed
        assert monitor.fault_drift == 0.0  # message faults never fired

    def test_partition_run_certifies_zero_drift(self):
        """Exchanges a partition blocks never happen, so the cut moves
        no mass and nothing is attributed to faults."""
        engine = GossipEngine(make_scenario(
            adversary=AdversarySpec(
                kind="partition", nodes=tuple(range(N // 2)), start=1, end=5
            )
        ))
        monitor = engine.register_monitor(
            MassConservationMonitor(), strict=True
        )
        try:
            engine.run(8)
            report = engine.invariant_report()
        finally:
            engine.close()
        assert report.ok
        assert monitor.fault_drift == 0.0
        assert monitor.max_residual < 1e-7

    def test_churn_run_stays_attributed(self):
        engine = GossipEngine(make_scenario(
            churn=ChurnTrace.constant(8, 3, 2)
        ))
        monitor = engine.register_monitor(
            MassConservationMonitor(), strict=True
        )
        try:
            engine.run(8)
        finally:
            engine.close()
        assert {"join", "leave"} <= set(monitor.attributed)
        assert monitor.fault_drift == 0.0


class TestVarianceMonotonicity:
    def test_applicable_and_clean_on_static_fault_free(self):
        engine = GossipEngine(make_scenario())
        monitor = engine.register_monitor(
            VarianceMonotonicityMonitor(), strict=True
        )
        try:
            engine.run(10)
        finally:
            engine.close()
        assert monitor.summary()["applicable"] is True
        assert monitor.cycles_checked == 10

    def test_self_disables_under_message_faults(self):
        engine = GossipEngine(make_scenario(
            message_faults=MessageFaultSpec(reply_loss=0.4)
        ))
        monitor = engine.register_monitor(
            VarianceMonotonicityMonitor(), strict=True
        )
        try:
            engine.run(6)  # drift would break monotonicity if armed
        finally:
            engine.close()
        assert monitor.summary()["applicable"] is False
        assert monitor.cycles_checked == 0

    def test_self_disables_under_partition(self):
        engine = GossipEngine(make_scenario(
            adversary=AdversarySpec(kind="partition", fraction=0.5)
        ))
        monitor = engine.register_monitor(
            VarianceMonotonicityMonitor(), strict=True
        )
        try:
            engine.run(4)
        finally:
            engine.close()
        assert monitor.summary()["applicable"] is False
        assert monitor.cycles_checked == 0


class TestStructure:
    def test_clean_under_churn(self):
        engine = GossipEngine(make_scenario(
            churn=ChurnTrace.constant(10, 4, 3)
        ))
        monitor = engine.register_monitor(StructureMonitor(), strict=True)
        try:
            engine.run(10)
        finally:
            engine.close()
        assert monitor.cycles_checked == 10

    @pytest.mark.parametrize("slot", [10**6, -5])
    def test_out_of_range_free_slot_is_a_finding(self, slot):
        """A free list naming a slot outside ``[0, top)`` is a violation
        finding, first in line — the audit indexes nothing with it."""
        engine = GossipEngine(make_scenario(
            churn=ChurnTrace.constant(10, 8, 2)
        ))
        try:
            engine.run(3)
            engine._lifecycle.free_slots.append(slot)
            findings = StructureMonitor().observe(engine, 3, {}, False)
        finally:
            engine.close()
        assert all(finding.is_violation for finding in findings)
        assert findings[0].message == (
            f"a free-listed slot is outside [0, top {engine._lifecycle.top})"
        )

    def test_standard_set_is_fresh_instances(self):
        first, second = standard_monitors(), standard_monitors()
        assert {m.name for m in first} == {"mass", "variance", "structure"}
        assert all(a is not b for a, b in zip(first, second))
