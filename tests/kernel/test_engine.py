"""Tests for kernel.engine — the unified gossip engine."""

import numpy as np
import pytest

from repro.core import (
    MaxAggregate,
    MeanAggregate,
    MinAggregate,
    moment_values,
)
from repro.errors import ConfigurationError
from repro.failures import CrashPlan
from repro.kernel import (
    CyclePlan,
    GossipEngine,
    MessageFaultSpec,
    RetrySpec,
    Scenario,
    burst_loss,
    run_scenario,
)
from repro.topology import CompleteTopology


@pytest.fixture
def topo():
    return CompleteTopology(200)


@pytest.fixture
def values(topo):
    return np.random.default_rng(3).normal(5.0, 2.0, topo.n)


def multi_scenario(topo, values, **kwargs):
    return Scenario(
        topo,
        values,
        aggregates={
            "mean": MeanAggregate(),
            "m2": MeanAggregate(),
            "max": MaxAggregate(),
            "min": MinAggregate(),
        },
        initial={"m2": moment_values(values, 2)},
        **kwargs,
    )


class TestSinglePassMultiAggregate:
    def test_all_instances_converge_in_one_run(self, topo, values):
        engine = GossipEngine(multi_scenario(topo, values, seed=1))
        engine.run(20)
        assert engine.mean("mean") == pytest.approx(values.mean(), abs=1e-12)
        assert np.all(engine.column("max") == values.max())
        assert np.all(engine.column("min") == values.min())
        assert engine.mean("m2") == pytest.approx((values ** 2).mean(),
                                                  abs=1e-9)
        assert engine.variance("mean") < 1e-10

    def test_result_carries_every_instance(self, topo, values):
        result = run_scenario(multi_scenario(topo, values, seed=2, cycles=5))
        assert result.instance_names == ("mean", "m2", "max", "min")
        for name in result.instance_names:
            assert len(result.variances[name]) == 6
            assert len(result.means[name]) == 6
        assert len(result.exchange_counts) == 5

    def test_unknown_instance_rejected(self, topo, values):
        engine = GossipEngine(multi_scenario(topo, values, seed=3))
        with pytest.raises(ConfigurationError):
            engine.column("nope")

    def test_exchanges_shared_across_instances(self, topo, values):
        """One pass means one exchange stream: the same count regardless
        of how many instances ride on it."""
        single = GossipEngine(Scenario(topo, values, seed=4))
        multi = GossipEngine(multi_scenario(topo, values, seed=4))
        assert single.run_cycle() == multi.run_cycle()


class TestFailureMachinery:
    def test_crash_plan_applied_at_cycle(self, topo, values):
        plan = CrashPlan()
        plan.add(2, [0, 1, 2, 3])
        scenario = Scenario(topo, values, crash_plan=plan, seed=5)
        result = GossipEngine(scenario).run(4)
        assert result.alive_counts[:3] == [topo.n, topo.n, topo.n]
        assert result.alive_counts[3:] == [topo.n - 4, topo.n - 4]

    def test_manual_crash_between_runs(self, topo, values):
        engine = GossipEngine(Scenario(topo, values, seed=6))
        engine.run(1)
        engine.crash(range(50))
        assert engine.alive_count == topo.n - 50
        engine.run(20)
        assert engine.variance() < 1e-8

    def test_crash_out_of_range_rejected(self, topo, values):
        engine = GossipEngine(Scenario(topo, values, seed=7))
        with pytest.raises(ConfigurationError):
            engine.crash([topo.n])
        # a plan's victims are checked when the scenario is built, not
        # at the cycle that names them
        for plan in (CrashPlan({5: [topo.n]}), CrashPlan({5: [True]}),
                     CrashPlan({1.5: [0]})):
            with pytest.raises(ConfigurationError):
                Scenario(topo, values, crash_plan=plan)

    def test_crash_accepts_numpy_ids(self, topo, values):
        """Ids taken from numpy (an index array, a numpy scalar) pass
        the integer check."""
        engine = GossipEngine(Scenario(topo, values, seed=7))
        engine.crash(np.array([3, 4]))
        engine.crash([np.int32(5)])
        assert engine.alive_count == topo.n - 3
        assert not engine.alive_mask[[3, 4, 5]].any()

    def test_crash_with_a_bad_id_changes_nothing(self, topo, values):
        scenario = Scenario(
            topo, values, seed=7, retry=RetrySpec(),
            message_faults=MessageFaultSpec(request_loss=0.3, reply_loss=0.3),
        )
        engine = GossipEngine(scenario)
        engine.run(2)
        pending = engine.pending_retry_count
        victim = int(np.flatnonzero(engine._channel._mf_partner >= 0)[0])
        version = engine._mask_version
        for bad in ([victim, 10**9], [victim, 1.5], [victim, True]):
            with pytest.raises(ConfigurationError):
                engine.crash(bad)
        assert engine.alive_mask.all()
        assert engine.pending_retry_count == pending
        assert engine._mask_version == version

    def test_loss_schedule_gates_exchanges(self, topo, values):
        scenario = Scenario(
            topo, values, seed=8, message_faults=MessageFaultSpec(
                request_schedule=burst_loss(0.0, 1.0, 1, 2)
            ),
        )
        result = GossipEngine(scenario).run(3)
        assert result.exchange_counts[0] == topo.n
        assert result.exchange_counts[1] == 0  # the burst cycle
        assert result.exchange_counts[2] == topo.n


class TestCyclePlan:
    """The reusable per-cycle scratch: buffers stay put while capacity
    is unchanged, and the cached initiator set invalidates on every
    mask mutation."""

    def test_buffers_reused_across_cycles(self, topo, values):
        engine = GossipEngine(Scenario(topo, values, seed=21))
        engine.run_cycle()
        plan = engine._plan
        buffers = (plan.partners, plan.ok, plan.out_i, plan.out_j)
        engine.run(5)
        assert (plan.partners, plan.ok, plan.out_i, plan.out_j) == buffers

    def test_initiator_cache_reused_while_masks_static(self, topo, values):
        engine = GossipEngine(Scenario(topo, values, seed=22))
        engine.run_cycle()
        cached = engine._plan._initiators
        engine.run_cycle()
        assert engine._plan._initiators is cached

    def test_compact_keeping_everything_returns_its_inputs(self):
        plan = CyclePlan()
        plan.ensure(8)
        initiators = np.arange(8, dtype=np.int32)
        partners = initiators[::-1].copy()
        exch_i, exch_j = plan.compact(
            initiators, partners, np.ones(8, dtype=bool)
        )
        assert exch_i is initiators and exch_j is partners

    def test_compact_dropping_one_returns_the_compacted_copy(self):
        plan = CyclePlan()
        plan.ensure(8)
        initiators = np.arange(8, dtype=np.int32)
        partners = initiators[::-1].copy()
        ok = np.ones(8, dtype=bool)
        ok[3] = False
        exch_i, exch_j = plan.compact(initiators, partners, ok)
        assert np.shares_memory(exch_i, plan.out_i)
        assert np.shares_memory(exch_j, plan.out_j)
        assert exch_i.tolist() == [0, 1, 2, 4, 5, 6, 7]
        assert exch_j.tolist() == [7, 6, 5, 3, 2, 1, 0]

    def test_crash_invalidates_initiator_cache(self, topo, values):
        """Semantic regression guard for the cache: a crash between
        cycles must drop the victims from the initiator set (both
        backends share the engine, so the cross-backend suite alone
        cannot catch a stale cache)."""
        engine = GossipEngine(Scenario(topo, values, seed=23))
        engine.run_cycle()
        before = engine.matrix
        victims = list(range(0, 60))
        engine.crash(victims)
        result = engine.run(3)
        # crashed rows are frozen: nobody initiates from or lands an
        # exchange on a dead slot
        assert np.array_equal(engine.matrix[victims], before[victims])
        assert all(count <= topo.n - 60 for count in result.exchange_counts)

    def test_capacity_growth_resizes_buffers(self):
        from repro.kernel import ChurnTrace

        n = 64
        engine = GossipEngine(
            Scenario(
                CompleteTopology(n),
                np.random.default_rng(1).normal(0, 1, n),
                churn=ChurnTrace.constant(10, 30, 0),
                seed=24,
            )
        )
        engine.run(10)
        assert engine.alive_count == n + 300
        assert len(engine._plan.partners) >= engine.alive_count
        # the last cycle's exchange arrays covered every participant
        assert engine._plan.capacity == engine.capacity


class TestStaticFastPath:
    """Without fault/partition specs (and before any mask mutation) the
    engine skips the mask pass and compaction: the exchanges ARE
    (initiators, partners). The fast path must deactivate the moment
    a crash makes the alive mask non-trivial."""

    def test_every_initiation_succeeds(self, topo, values):
        result = GossipEngine(Scenario(topo, values, seed=25)).run(4)
        assert result.exchange_counts == [topo.n] * 4

    def test_bitwise_equal_to_filtered_path(self, topo, values):
        """Forcing the filtered path with an always-zero loss schedule
        must reproduce the fast path bit for bit (neither consumes
        extra RNG)."""
        fast = GossipEngine(Scenario(topo, values, seed=26))
        slow = GossipEngine(Scenario(
            topo, values, seed=26, message_faults=MessageFaultSpec(
                request_schedule=lambda cycle: 0.0
            ),
        ))
        # only the message channel arms the filtered path here
        assert fast._channel is None and slow._channel is not None
        fast_result = fast.run(6)
        slow_result = slow.run(6)
        assert np.array_equal(fast.matrix, slow.matrix)
        assert fast_result.exchange_counts == slow_result.exchange_counts

    def test_manual_crash_disables_fast_path(self, topo, values):
        engine = GossipEngine(Scenario(topo, values, seed=27))
        engine.run(2)
        before = engine.matrix
        victims = list(range(30))
        engine.crash(victims)
        result = engine.run(4)
        # dead rows frozen and contacted-dead exchanges dropped — the
        # fast path would have kept scattering onto crashed slots
        assert np.array_equal(engine.matrix[victims], before[victims])
        assert all(count <= topo.n - 30 for count in result.exchange_counts)

    def test_crash_plan_scenarios_start_fast_then_filter(self, topo, values):
        plan = CrashPlan()
        plan.add(2, list(range(40)))
        engine = GossipEngine(Scenario(topo, values, crash_plan=plan, seed=28))
        result = engine.run(5)
        # cycles before the crash ran the fast path (full exchange
        # counts); afterwards the mask pass filters dead partners
        assert result.exchange_counts[0] == topo.n
        assert all(count <= topo.n - 40 for count in result.exchange_counts[2:])


class TestEngineLifecycle:
    def test_context_manager_closes_backend(self, topo, values):
        with GossipEngine(Scenario(topo, values, seed=29)) as engine:
            engine.run(1)
        engine.close()  # idempotent on in-process backends


class TestRecordingModes:
    def test_record_end_keeps_endpoints_only(self, topo, values):
        engine = GossipEngine(Scenario(topo, values, seed=9))
        result = engine.run(10, record="end")
        assert len(result.variances["mean"]) == 2
        assert len(result.exchange_counts) == 10
        full = GossipEngine(Scenario(topo, values, seed=9)).run(10)
        assert result.variances["mean"][-1] == full.variances["mean"][-1]

    def test_bad_record_mode_rejected(self, topo, values):
        engine = GossipEngine(Scenario(topo, values, seed=10))
        with pytest.raises(ConfigurationError):
            engine.run(1, record="sometimes")

    def test_negative_cycles_rejected(self, topo, values):
        engine = GossipEngine(Scenario(topo, values, seed=11))
        with pytest.raises(ConfigurationError):
            engine.run(-1)
