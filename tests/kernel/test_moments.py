"""How a record point executes: one kernel, one memo, and — on a live
sharded pool — a reading the workers take while the parent plans on.

Every recorded variance and mean must be the same float on every
backend and worker count (each column is reduced whole, by one
process), the memo must never outlive the state it describes, and a
``record="cycle"`` run on the pool must not drain the pipeline at
every cycle.
"""

import signal
import warnings

import numpy as np
import pytest

from repro.core import MaxAggregate, MeanAggregate, MinAggregate
from repro.kernel import (
    ChurnTrace,
    EpochSpec,
    GossipEngine,
    MessageFaultSpec,
    Scenario,
    ShardedBackend,
)
from repro.kernel.backends import column_moments
from repro.topology import CompleteTopology

N = 3000
CYCLES = 10
BACKENDS = ("reference", "vectorized", "sharded:1", "sharded:2",
            "sharded:3", "sharded:8")


def scenario(k, backend, n=N, **kwargs):
    values = np.random.default_rng(5).normal(10.0, 4.0, n)
    if k == 1:
        return Scenario(CompleteTopology(n), values, seed=11,
                        backend=backend, **kwargs)
    functions = {
        "mean": MeanAggregate(), "square": MeanAggregate(),
        "maximum": MaxAggregate(), "minimum": MinAggregate(),
        "count": MeanAggregate(),
    }
    initial = {
        "mean": values, "square": values ** 2, "maximum": values,
        "minimum": values, "count": (np.arange(n) == 7).astype(float),
    }
    return Scenario(CompleteTopology(n), values, aggregates=functions,
                    initial=initial, seed=11, backend=backend, **kwargs)


def fresh_moments(engine):
    """The kernel on the engine's current matrix and participants."""
    matrix = engine.matrix
    return column_moments(
        matrix, range(matrix.shape[1]), engine._participant.copy()
    )


def assert_memo_is_fresh(engine):
    expected = fresh_moments(engine)
    for name, (variance, mean) in zip(engine.instance_names, expected):
        assert engine.variance(name) == variance
        assert engine.mean(name) == mean


@pytest.mark.parametrize("k", [1, 5])
def test_recorded_trajectories_equal_on_every_backend(k):
    """W > k included: a worker with no column of its own must still
    reach the barrier and reply."""
    runs = {}
    for backend in BACKENDS:
        with GossipEngine(scenario(k, backend)) as engine:
            result = engine.run(CYCLES, record="cycle")
            runs[backend] = (result.variances, result.means)
    reference = runs["reference"]
    assert len(reference[0]) == k
    assert all(len(v) == CYCLES + 1 for v in reference[0].values())
    for backend, trajectories in runs.items():
        assert trajectories == reference, backend


def test_record_end_equals_the_ends_of_record_cycle():
    with GossipEngine(scenario(5, "sharded:2")) as engine:
        full = engine.run(CYCLES, record="cycle")
    with GossipEngine(scenario(5, "sharded:2")) as engine:
        ends = engine.run(CYCLES, record="end")
    for name in full.instance_names:
        assert ends.variances[name] == [full.variances[name][0],
                                        full.variances[name][-1]]
        assert ends.means[name] == [full.means[name][0],
                                    full.means[name][-1]]


class TestMemo:
    def test_dropped_by_run_cycle_and_crash(self):
        with GossipEngine(scenario(5, "vectorized")) as engine:
            assert_memo_is_fresh(engine)
            engine.run_cycle()
            assert_memo_is_fresh(engine)
            engine.crash([3, 4, 99])
            assert_memo_is_fresh(engine)
            engine.run_cycle()
            assert_memo_is_fresh(engine)

    def test_one_kernel_call_per_state(self, monkeypatch):
        import repro.kernel.engine as engine_module

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return column_moments(*args, **kwargs)

        monkeypatch.setattr(engine_module, "column_moments", counted)
        with GossipEngine(scenario(5, "vectorized")) as engine:
            engine.arm_standard_monitors()
            engine.run(3, record="cycle")
        # the initial point and one per cycle — shared by the variance
        # monitor, variance() and mean() of all five instances
        assert len(calls) == 4

    def test_dropped_by_restore(self, tmp_path):
        with GossipEngine(scenario(5, "vectorized")) as engine:
            engine.run(4)
            saved = engine.variance("mean")
            manifest = engine.checkpoint(tmp_path)
        with GossipEngine.restore(
            scenario(5, "sharded:2"), manifest
        ) as resumed:
            assert resumed.variance("mean") == saved
            assert_memo_is_fresh(resumed)

    def test_dropped_by_churn_growth(self):
        churn = ChurnTrace.constant(4, 400, 5)
        with GossipEngine(scenario(1, "sharded:2", churn=churn)) as engine:
            capacity = engine.capacity
            for _ in range(4):
                engine.run_cycle()
                assert_memo_is_fresh(engine)
            assert engine.capacity > capacity

    def test_dropped_by_epoch_restart(self):
        epochs = EpochSpec(cycles_per_epoch=3)
        churn = ChurnTrace.constant(7, 9, 9)
        spec = scenario(1, "vectorized", churn=churn, epochs=epochs)
        with GossipEngine(spec) as engine:
            for _ in range(7):
                engine.run_cycle()
                assert_memo_is_fresh(engine)


class TestEmptyNetwork:
    def test_mean_of_nobody_is_a_quiet_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with GossipEngine(scenario(1, "vectorized", n=20)) as engine:
                engine.crash(range(20))
                assert engine.variance() == 0.0
                assert np.isnan(engine.mean())
                result = engine.run(3)
        assert result.variances[result.primary] == [0.0] * 4
        assert all(np.isnan(result.means[result.primary]))

    def test_one_survivor(self):
        with GossipEngine(scenario(1, "vectorized", n=20)) as engine:
            survivor = engine.column()[5]
            engine.crash([i for i in range(20) if i != 5])
            assert engine.variance() == 0.0
            assert engine.mean() == survivor


class TestOverlap:
    def test_record_cycle_does_not_drain_the_pool_every_cycle(
        self, monkeypatch
    ):
        """A static run on a live pool: the parent blocks in ``sync()``
        when the engine closes, not at every record point."""
        blocked = []
        sync = ShardedBackend.sync

        def counting(backend):
            if backend._inflight:
                blocked.append(len(backend._inflight))
            sync(backend)

        monkeypatch.setattr(ShardedBackend, "sync", counting)
        backend = ShardedBackend(2)
        with GossipEngine(scenario(5, backend)) as engine:
            result = engine.run(CYCLES, record="cycle")
            # the readings were taken by the workers…
            assert all(s > 0.0 for s in backend.worker_seconds["moments"])
            assert all(s > 0.0 for s in backend.worker_seconds["apply"])
        assert len(result.variances["mean"]) == CYCLES + 1
        assert len(blocked) <= 2
        # …and the parent-side phases are still the three they were
        assert set(backend.phase_seconds) == {"plan", "apply", "sync"}

    def test_cycles_without_exchanges_do_not_fill_the_pipes(self):
        """Nothing is published when every exchange is lost, so no bank
        drain ever reads the pipes: the readings must be collected as
        they pile up, or parent and workers end up blocked on each
        other's sends."""
        def stuck(signum, frame):
            raise TimeoutError("parent and workers block on each other")

        backend = ShardedBackend(2)
        spec = scenario(5, backend, n=400,
                        message_faults=MessageFaultSpec(request_loss=1.0))
        previous = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(30)
        try:
            with GossipEngine(spec) as engine:
                result = engine.run(600, record="cycle")
                assert len(backend._inflight) <= 5
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(set(result.variances["mean"])) == 1

    def test_in_process_backends_do_not_offer_it(self):
        for name in ("reference", "vectorized", "sharded:auto"):
            with GossipEngine(scenario(1, name, n=200)) as engine:
                assert engine._backend.defer_moments(
                    engine._matrix, [0]
                ) is None

    def test_monitored_sharded_run_equals_vectorized(self):
        runs = []
        for backend in ("vectorized", "sharded:2"):
            with GossipEngine(scenario(5, backend)) as engine:
                engine.arm_standard_monitors(strict=True)
                result = engine.run(CYCLES, record="cycle")
                runs.append((result.variances, result.means,
                             engine.matrix.tobytes()))
        assert runs[0] == runs[1]
