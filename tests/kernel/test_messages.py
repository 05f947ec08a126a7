"""Message-fault suite: spec validation, fault semantics, retry
recovery, backend equivalence.

Every fault effect is engine-side (loss coins come from the engine
RNG, partial exchanges / duplicate deliveries / retransmission repairs
are engine matrix writes), so the bitwise backend-equivalence contract
must hold under any :class:`MessageFaultSpec` × :class:`RetrySpec` ×
partner-provider combination — that sweep is the core of this module.
Alongside it: the asymmetric loss semantics (request loss cancels
cleanly, reply loss leaks mass), exact delta repair, budget exhaustion
and both fallbacks, and checkpoint round trips with pending exchanges.
The closed-form drift distribution lives in the ``slow_statistical``
acceptance test at the bottom.
"""

import numpy as np
import pytest

from repro.analysis import retry_for_policy
from repro.core import MaxAggregate, MeanAggregate, MinAggregate
from repro.errors import ConfigurationError
from repro.kernel import (
    ChurnTrace,
    GossipEngine,
    MassConservationMonitor,
    MessageFaultSpec,
    PairProtocolSpec,
    RetrySpec,
    Scenario,
    burst_loss,
    constant_loss,
)
from repro.rng import spawn_streams
from repro.topology import CompleteTopology

N = 400
CYCLES = 8
SEED = 97

#: the fault shapes the bitwise sweep replays (each exercises a
#: distinct engine code path: cancelled exchanges, partial exchanges,
#: stale duplicate delivery, and all three retry policies over
#: combined loss)
FAULT_COMBOS = {
    "request": dict(message_faults=MessageFaultSpec(request_loss=0.25)),
    "reply": dict(message_faults=MessageFaultSpec(reply_loss=0.25)),
    "duplication": dict(
        message_faults=MessageFaultSpec(reply_loss=0.1, duplication=0.2)
    ),
    "retry_retransmit": dict(
        message_faults=MessageFaultSpec(request_loss=0.15, reply_loss=0.15),
        retry=RetrySpec(),
    ),
    "retry_redraw": dict(
        message_faults=MessageFaultSpec(request_loss=0.15, reply_loss=0.15),
        retry=RetrySpec(mode="redraw"),
    ),
    "retry_push_only": dict(
        message_faults=MessageFaultSpec(reply_loss=0.3),
        retry=RetrySpec(budget=1, fallback="push_only"),
    ),
}


def make_scenario(backend="reference", n=N, seed=SEED, **kwargs):
    values = np.random.default_rng(SEED).normal(10.0, 4.0, n)
    return Scenario(
        CompleteTopology(n), values, seed=seed, backend=backend, **kwargs
    )


def run_snapshot(scenario, cycles=CYCLES):
    """Run to completion and return the bitwise-comparable snapshot."""
    engine = GossipEngine(scenario)
    try:
        result = engine.run(cycles)
        return (
            engine.matrix,
            result.exchange_counts,
            engine.reported_column(),
            dict(engine.message_fault_stats),
        )
    finally:
        engine.close()


def run_with_monitor(cycles=CYCLES, n=N, seed=SEED, **kwargs):
    """Run under a mass monitor; return (engine stats, monitor, mean)."""
    engine = GossipEngine(make_scenario(n=n, seed=seed, **kwargs))
    monitor = engine.register_monitor(MassConservationMonitor())
    try:
        engine.run(cycles)
        stats = dict(engine.message_fault_stats)
        mean = engine.mean()
        report = engine.invariant_report()
    finally:
        engine.close()
    return stats, monitor, mean, report


class TestSpecValidation:
    def test_empty_window_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            MessageFaultSpec(reply_loss=0.1, start=5, end=5)

    def test_schedule_wins_over_rate(self):
        spec = MessageFaultSpec(
            reply_loss=0.5, reply_schedule=constant_loss(0.2)
        )
        assert spec.rates_at(3) == (0.0, 0.2, 0.0)

    def test_window_gates_every_rate(self):
        spec = MessageFaultSpec(
            request_loss=0.3, reply_loss=0.2, duplication=0.1,
            start=2, end=4,
        )
        for cycle, active in ((0, False), (2, True), (3, True), (4, False)):
            assert spec.active_at(cycle) is active
            expected = (0.3, 0.2, 0.1) if active else (0.0, 0.0, 0.0)
            assert spec.rates_at(cycle) == expected

    def test_bad_schedule_value_rejected_at_use(self):
        spec = MessageFaultSpec(reply_schedule=lambda cycle: 1.5)
        with pytest.raises(ConfigurationError, match="schedule returned"):
            spec.rates_at(0)

    def test_retry_delay_backs_off_exponentially(self):
        spec = RetrySpec(timeout=2, backoff=2.0)
        assert [spec.delay(a) for a in range(3)] == [2, 4, 8]

    @pytest.mark.parametrize("backoff", [1.0, 1.5, 2.0])
    def test_delay_table_is_the_scalar_delay(self, backoff):
        retry = RetrySpec(timeout=2, budget=5, backoff=backoff)
        table = retry.delay_table()
        assert table.dtype == np.int64
        assert table.tolist() == [
            retry.delay(a) for a in range(retry.budget + 2)
        ]

    def test_delay_saturates_where_the_timers_would_overflow(self):
        # 2.0 ** 62 cycles no longer fits cycle + delay in int64 and
        # 2.0 ** 1024 is no float: both mean "never", not a crash
        table = RetrySpec(budget=1100).delay_table()
        assert table[61] == 2 ** 61
        assert np.all(table[62:] == 2 ** 62)

    def test_scenario_rejects_retry_without_faults(self):
        with pytest.raises(ConfigurationError, match="retry needs"):
            make_scenario(retry=RetrySpec())

    def test_pair_mode_rejects_message_faults(self):
        with pytest.raises(ConfigurationError):
            make_scenario(
                message_faults=MessageFaultSpec(reply_loss=0.1),
                pair_protocol=PairProtocolSpec(selector="pm"),
            )

    def test_policy_helper_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="policy"):
            retry_for_policy("resend-harder")


class TestBitwiseEquivalence:
    """The three backends agree bitwise under every fault shape."""

    @pytest.mark.parametrize("membership", [None, "newscast"])
    @pytest.mark.parametrize("combo", sorted(FAULT_COMBOS))
    def test_reference_vs_vectorized(self, combo, membership):
        kwargs = dict(FAULT_COMBOS[combo])
        if membership is not None:
            kwargs["membership"] = membership
        reference = run_snapshot(make_scenario("reference", **kwargs))
        vectorized = run_snapshot(make_scenario("vectorized", **kwargs))
        assert np.array_equal(reference[0], vectorized[0])
        assert reference[1] == vectorized[1]
        assert np.array_equal(reference[2], vectorized[2])
        assert reference[3] == vectorized[3]

    @pytest.mark.parametrize("combo", ["reply", "retry_retransmit"])
    def test_sharded_matches_reference(self, combo):
        kwargs = FAULT_COMBOS[combo]
        reference = run_snapshot(make_scenario("reference", **kwargs))
        sharded = run_snapshot(make_scenario("sharded:2", **kwargs))
        assert np.array_equal(reference[0], sharded[0])
        assert reference[1] == sharded[1]
        assert reference[3] == sharded[3]


class TestCollidingOneSidedLists:
    """Five columns (mixed mean / max / min) at a size where every
    cycle's one-sided lists — partials, duplicates, retried exchanges —
    are longer than the sequential tail and full of repeated nodes, so
    the engine-side writes really run as batches plus tails."""

    N = 3000
    RETRY_STATE = ("_mf_partner", "_mf_kind", "_mf_attempt", "_mf_due",
                   "_mf_cache", "_mf_sent", "_mf_push_only")

    def scenario(self, backend):
        values = np.random.default_rng(SEED).normal(10.0, 4.0, self.N)
        return Scenario(
            CompleteTopology(self.N), values,
            aggregates={
                "mean": MeanAggregate(), "second": MeanAggregate(),
                "max": MaxAggregate(), "min": MinAggregate(),
                "count": MeanAggregate(),
            },
            initial={
                "second": values ** 2,
                "count": (np.arange(self.N) == 0).astype(float),
            },
            message_faults=MessageFaultSpec(
                request_loss=0.1, reply_loss=0.25, duplication=0.1
            ),
            retry=RetrySpec(budget=4),
            seed=SEED, backend=backend,
        )

    def snapshot(self, engine):
        """``(counters, arrays)``: the matrix plus every retry table
        (the engine's message channel holds them)."""
        return dict(engine.message_fault_stats), [engine.matrix.copy()] + [
            getattr(engine._channel, name).copy()
            for name in self.RETRY_STATE
        ]

    def run(self, backend, cycles=12):
        engine = GossipEngine(self.scenario(backend))
        engine.arm_standard_monitors()
        try:
            engine.run(cycles)
            assert engine.invariant_report().ok
            return self.snapshot(engine)
        finally:
            engine.close()

    @staticmethod
    def assert_same(left, right):
        assert left[0] == right[0]
        for a, b in zip(left[1], right[1]):
            assert np.array_equal(a, b)

    def test_lists_collide(self):
        engine = GossipEngine(self.scenario("reference"))
        try:
            engine.run(3)
            assert engine.message_fault_stats["partials"] > 3 * 4 * 48
            assert engine.message_fault_stats["duplicates"] > 3 * 48
        finally:
            engine.close()

    @pytest.mark.parametrize("backend", ["vectorized", "sharded:2"])
    def test_backends_match_reference(self, backend):
        self.assert_same(self.run("reference"), self.run(backend))

    def test_resume_on_another_backend(self, tmp_path):
        part = GossipEngine(self.scenario("vectorized"))
        part.arm_standard_monitors()
        try:
            part.run(5)
            assert part.pending_retry_count > 48  # mid-episode
            manifest = part.checkpoint(tmp_path)
        finally:
            part.close()
        resumed = GossipEngine.restore(self.scenario("reference"), manifest)
        try:
            resumed.run(7)
            self.assert_same(self.run("vectorized"), self.snapshot(resumed))
        finally:
            resumed.close()


class TestFaultSemantics:
    def test_all_zero_spec_is_bitwise_inert(self):
        plain = run_snapshot(make_scenario())
        gated = run_snapshot(make_scenario(message_faults=MessageFaultSpec()))
        assert np.array_equal(plain[0], gated[0])
        assert plain[1] == gated[1]

    def test_window_outside_run_is_bitwise_inert(self):
        plain = run_snapshot(make_scenario())
        gated = run_snapshot(make_scenario(
            message_faults=MessageFaultSpec(reply_loss=0.9, start=CYCLES + 5)
        ))
        assert np.array_equal(plain[0], gated[0])
        assert plain[1] == gated[1]

    def test_request_loss_cancels_cleanly(self):
        """A lost request cancels both endpoints: fewer exchanges, no
        partials, and exactly zero attributed drift."""
        stats, monitor, _, report = run_with_monitor(
            message_faults=MessageFaultSpec(request_loss=0.5)
        )
        assert stats["partials"] == 0
        assert monitor.fault_drift == 0.0
        assert report.ok

    def test_reply_loss_leaks_attributed_mass(self):
        """The partial exchange moves mass, the monitor attributes all
        of it: per-node drift equals the estimate error exactly."""
        values_mean = float(
            np.random.default_rng(SEED).normal(10.0, 4.0, N).mean()
        )
        stats, monitor, mean, report = run_with_monitor(
            cycles=20, message_faults=MessageFaultSpec(reply_loss=0.2)
        )
        assert stats["partials"] > 0
        assert monitor.fault_drift != 0.0
        assert report.ok  # drift is attributed, not a violation
        assert abs(mean - values_mean) == pytest.approx(
            abs(monitor.fault_drift) / N, rel=1e-9
        )

    def test_duplication_applies_stale_payload(self):
        stats, monitor, _, report = run_with_monitor(
            message_faults=MessageFaultSpec(duplication=0.5)
        )
        assert stats["duplicates"] > 0
        assert "duplicate" in monitor.attributed
        assert report.ok

    def test_fault_free_run_attributes_nothing(self):
        _, monitor, _, report = run_with_monitor(cycles=12)
        assert monitor.fault_drift == 0.0
        assert monitor.attributed == {}
        assert report.ok


class TestRetry:
    def test_retransmit_repairs_burst_exactly(self):
        """Every reply lost at cycle 0, none afterwards: retransmission
        repairs each partial with the cached delta, so the attributed
        drift collapses to rounding noise and the estimate converges to
        the true mean."""
        values_mean = float(
            np.random.default_rng(SEED).normal(10.0, 4.0, N).mean()
        )
        spec = MessageFaultSpec(
            reply_schedule=lambda cycle: 1.0 if cycle == 0 else 0.0
        )
        stats, monitor, mean, report = run_with_monitor(
            cycles=25, message_faults=spec, retry=RetrySpec()
        )
        assert stats["partials"] > 0
        assert stats["repairs"] > 0
        assert report.ok
        assert abs(monitor.fault_drift) / N < 1e-12
        assert mean == pytest.approx(values_mean, abs=1e-9)

    def test_retransmit_beats_no_retry_on_drift(self):
        """Averaged over seeds (a single run's |drift| is a noisy
        half-normal draw); the >= 5x acceptance version runs at scale
        under the ``slow_statistical`` marker below."""
        spec = MessageFaultSpec(reply_loss=0.15)
        drifts = {}
        for policy in ("none", "retransmit"):
            samples = []
            for run_seed in spawn_streams(13, 6):
                _, monitor, _, _ = run_with_monitor(
                    cycles=30, n=2000, seed=run_seed, message_faults=spec,
                    retry=retry_for_policy(policy),
                )
                samples.append(abs(monitor.fault_drift) / 2000)
            drifts[policy] = float(np.mean(samples))
        assert drifts["retransmit"] < drifts["none"]

    def test_pending_nodes_freeze_until_resolution(self):
        """Mid-run, some initiators are pending; by the end of a long
        fault window every episode resolved or fell back."""
        spec = MessageFaultSpec(reply_loss=0.4, end=10)
        engine = GossipEngine(make_scenario(
            message_faults=spec, retry=RetrySpec()
        ))
        try:
            engine.run(3)
            assert engine.pending_retry_count > 0
            engine.run(25)
            assert engine.pending_retry_count == 0
        finally:
            engine.close()

    def test_budget_exhaustion_accept_fallback(self):
        """Replies never arrive: the budget runs out and ``accept``
        unblocks every initiator (drift stays, protocol resumes)."""
        stats, monitor, _, _ = run_with_monitor(
            cycles=30,
            message_faults=MessageFaultSpec(reply_loss=1.0),
            retry=RetrySpec(budget=1),
        )
        assert stats["giveups"] > 0
        assert monitor.fault_drift != 0.0

    def test_push_only_fallback_stops_initiating(self):
        """``push_only`` survivors respond but never initiate again, so
        exchange counts decay as the fallback population grows."""
        engine = GossipEngine(make_scenario(
            message_faults=MessageFaultSpec(reply_loss=1.0),
            retry=RetrySpec(budget=1, fallback="push_only"),
        ))
        try:
            result = engine.run(30)
            stats = dict(engine.message_fault_stats)
        finally:
            engine.close()
        assert stats["giveups"] > 0
        assert result.exchange_counts[-1] < result.exchange_counts[0]

    def test_departed_nodes_leave_no_episode_behind(self):
        """Every request of cycle 0 is lost, so every node ends it
        pending. A crashed and two churned-out pending nodes drop out of
        the count, and the two joiners that recycle the churned-out
        slots start clean: they are the only nodes not waiting on a
        reply, and they exchange with each other at once."""
        n = 40
        engine = GossipEngine(make_scenario(
            n=n,
            message_faults=MessageFaultSpec(request_loss=1.0, end=1),
            retry=RetrySpec(timeout=10),
            churn=ChurnTrace([0, 2], [0, 2]),
        ))
        try:
            assert engine.run(1).exchange_counts == [0]
            assert engine.pending_retry_count == n
            engine.crash([0])
            assert engine.pending_retry_count == n - 1
            result = engine.run(1)
            assert engine.pending_retry_count == n - 3
            assert engine.alive_count == n - 1
            assert engine.capacity == n  # the joiners recycled slots
            assert result.exchange_counts == [2]
        finally:
            engine.close()

    @staticmethod
    def _partner_leaves(joins):
        """Two nodes, every reply of cycle 0 lost: each holds a cached
        partial against the other. At cycle 1 one of them leaves
        (``joins``: and a joiner takes its slot), and the survivor
        retransmits to the departed node's slot. Returns the counts."""
        engine = GossipEngine(make_scenario(
            n=2,
            message_faults=MessageFaultSpec(reply_loss=1.0, end=1),
            retry=RetrySpec(timeout=1),
            churn=ChurnTrace([0, joins], [0, 1]),
        ))
        try:
            engine.run(2)
            return engine.message_fault_stats
        finally:
            engine.close()

    def test_departed_partner_is_unreachable(self):
        stats = self._partner_leaves(joins=0)
        assert (stats["partials"], stats["retries"], stats["repairs"]) == (
            2, 1, 0
        )

    def test_recycled_partner_slot_does_not_answer_for_the_departed(self):
        """The kind-2 reply cache lives at the initiator: the departure
        marks the survivor's episode kind 3, so the joiner in the
        departed partner's slot does not answer for it."""
        stats = self._partner_leaves(joins=1)
        assert (stats["partials"], stats["retries"], stats["repairs"]) == (
            2, 1, 0
        )

    def test_redraw_resolves_through_provider(self):
        stats, _, _, report = run_with_monitor(
            cycles=20,
            message_faults=MessageFaultSpec(request_loss=0.3),
            retry=RetrySpec(mode="redraw"),
        )
        assert stats["retries"] > 0
        assert report.ok

    @pytest.mark.parametrize("retry", [RetrySpec(budget=4), None],
                             ids=["retry", "no-retry"])
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_checkpoint_round_trip_with_pending_state(self, backend,
                                                      retry, tmp_path):
        """Checkpointing mid-episode (pending initiators, cached
        replies, backoff clocks) resumes bitwise-identically — and the
        fault counts come back whether or not a retry policy rides
        along (they used to be saved with the retry tables only)."""
        pending = retry is not None

        def scenario():
            return make_scenario(
                backend,
                message_faults=MessageFaultSpec(
                    request_loss=0.15, reply_loss=0.25
                ),
                retry=retry,
            )

        full = GossipEngine(scenario())
        try:
            full.run(16)
            expected = (full.matrix, dict(full.message_fault_stats))
        finally:
            full.close()

        part = GossipEngine(scenario())
        part.run(7)
        # mid-episode state exists
        assert (part.pending_retry_count > 0) == pending
        manifest = part.checkpoint(tmp_path)
        part.close()

        resumed = GossipEngine.restore(scenario(), manifest)
        try:
            assert resumed.cycle == 7
            assert (resumed.pending_retry_count > 0) == pending
            resumed.run(9)
            assert np.array_equal(resumed.matrix, expected[0])
            assert dict(resumed.message_fault_stats) == expected[1]
        finally:
            resumed.close()


class TestLossScheduleHome:
    def test_kernel_is_the_canonical_home(self):
        from repro.kernel import burst_loss as kernel_burst
        from repro.kernel.messages import burst_loss as module_burst

        assert kernel_burst is module_burst
        assert burst_loss is module_burst


@pytest.mark.slow_statistical
class TestDriftDistribution:
    """Closed-form acceptance for the reply-loss drift.

    With every reply lost in cycle 0 only, each of the ``m`` cycle-0
    exchanges contributes ``(x_i - x_j) / 2`` of drift where the pair
    values are exchangeable draws from the initial distribution, so the
    total drift ``D`` has mean 0 and ``std(D) ≈ sqrt(m · σ₀² / 2)``.
    """

    def test_cycle_zero_burst_matches_closed_form(self):
        n, sigma = 2000, 4.0
        spec = MessageFaultSpec(
            reply_schedule=lambda cycle: 1.0 if cycle == 0 else 0.0
        )
        drifts, exchange_counts = [], []
        for run_seed in spawn_streams(7, 40):
            engine = GossipEngine(make_scenario(
                n=n, seed=run_seed, message_faults=spec
            ))
            monitor = engine.register_monitor(MassConservationMonitor())
            try:
                result = engine.run(2)
            finally:
                engine.close()
            drifts.append(monitor.fault_drift)
            exchange_counts.append(result.exchange_counts[0])
        drifts = np.asarray(drifts)
        m = float(np.mean(exchange_counts))
        predicted_std = np.sqrt(m * sigma ** 2 / 2.0)
        # E[D] = 0 by exchangeability of the pair values
        assert abs(drifts.mean()) < 3.0 * predicted_std / np.sqrt(len(drifts))
        assert 0.4 * predicted_std < drifts.std(ddof=1) < 2.5 * predicted_std

    def test_retransmit_recovers_five_fold_at_ten_percent(self):
        """The PR's acceptance headline at test scale: >= 5× drift
        reduction from retransmission at 10 % reply loss."""
        n, runs, cycles = 20_000, 5, 40
        spec = MessageFaultSpec(reply_loss=0.1)
        mean_drift = {}
        for policy in ("none", "retransmit"):
            samples = []
            for run_seed in spawn_streams(11, runs):
                engine = GossipEngine(make_scenario(
                    n=n, seed=run_seed, message_faults=spec,
                    retry=retry_for_policy(policy),
                ))
                monitor = engine.register_monitor(MassConservationMonitor())
                try:
                    engine.run(cycles)
                finally:
                    engine.close()
                samples.append(abs(monitor.fault_drift) / n)
            mean_drift[policy] = float(np.mean(samples))
        assert mean_drift["none"] >= 5.0 * mean_drift["retransmit"], (
            f"retransmit cut drift only "
            f"{mean_drift['none'] / mean_drift['retransmit']:.2f}x "
            f"(none={mean_drift['none']:.3e}, "
            f"retransmit={mean_drift['retransmit']:.3e})"
        )
