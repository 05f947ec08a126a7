"""Sharded-backend determinism and lifecycle suite.

The sharded backend replays the engine's exact exchange/pair sequences
through a worker pool over a shared-memory value matrix, so — like the
vectorized backend — it must reproduce the reference trajectories
**bitwise**, for any worker count, under every scenario family the
kernel supports: plain cycles, pair mode (all four GETPAIR selectors),
failure filters, churn + epoch restarts (including capacity growth,
which remaps the shared segment), and sparse CSR overlays.

Backend specs (``"sharded:<workers>"``) and their typed
:class:`~repro.errors.BackendSpecError` failures are covered here too,
including at the CLI boundary.
"""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import (
    MaxAggregate,
    MeanAggregate,
    MinAggregate,
    MultiAggregateSpec,
    SizeEstimationConfig,
    SizeEstimationExperiment,
    moment_values,
)
from repro.errors import (
    BackendSpecError,
    ConfigurationError,
    SimulationError,
)
from repro.failures import CrashPlan
from repro.kernel import (
    ChurnTrace,
    CyclePlan,
    EpochSpec,
    GossipEngine,
    MessageFaultSpec,
    PairProtocolSpec,
    ReferenceBackend,
    Scenario,
    ShardedBackend,
    VectorizedBackend,
    make_backend,
    parse_backend_spec,
)
from repro.topology import (
    CompleteTopology,
    ErdosRenyiTopology,
    RandomRegularTopology,
    StarTopology,
)

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture
def tiny_window(monkeypatch):
    """A pathological 7-step pool planning window at any row count."""
    from repro.kernel.backends import sharded

    monkeypatch.setattr(sharded, "SHARD_CHUNK", 7)
    monkeypatch.setattr(sharded, "PAIR_CHUNK", 7)


def run_engine(backend, scenario_kwargs, cycles=10):
    """One full engine run; returns (final matrix, result)."""
    with GossipEngine(Scenario(backend=backend, **scenario_kwargs)) as engine:
        result = engine.run(cycles)
        return engine.matrix, engine.alive_mask, result


def assert_sharded_matches_reference(scenario_kwargs, workers, cycles=10):
    ref_matrix, ref_alive, ref_result = run_engine(
        "reference", scenario_kwargs, cycles
    )
    sh_matrix, sh_alive, sh_result = run_engine(
        f"sharded:{workers}", scenario_kwargs, cycles
    )
    assert np.array_equal(ref_matrix, sh_matrix)
    assert np.array_equal(ref_alive, sh_alive)
    assert ref_result.exchange_counts == sh_result.exchange_counts
    assert ref_result.alive_counts == sh_result.alive_counts


@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestShardedBitwiseEquivalence:
    def test_plain_cycles(self, workers):
        topology = CompleteTopology(257)
        values = np.random.default_rng(1).normal(5.0, 2.0, topology.n)
        assert_sharded_matches_reference(
            dict(topology=topology, values=values, seed=51), workers
        )

    def test_multi_aggregate(self, workers):
        topology = CompleteTopology(200)
        values = np.random.default_rng(2).normal(5.0, 2.0, topology.n)
        assert_sharded_matches_reference(
            dict(
                topology=topology,
                values=values,
                aggregates={
                    "mean": MeanAggregate(),
                    "m2": MeanAggregate(),
                    "max": MaxAggregate(),
                },
                initial={"m2": moment_values(values, 2)},
                seed=52,
            ),
            workers,
        )

    def test_loss_and_crashes(self, workers):
        """Failure filters drive the engine's masked (slow) path; the
        surviving exchange stream must still replay identically."""
        topology = CompleteTopology(240)
        values = np.random.default_rng(3).normal(5.0, 2.0, topology.n)
        plan = CrashPlan()
        plan.add(3, list(range(40)))
        assert_sharded_matches_reference(
            dict(topology=topology, values=values, crash_plan=plan,
                 seed=53,
                 message_faults=MessageFaultSpec(request_loss=0.25)),
            workers,
        )

    @pytest.mark.parametrize("selector", ["pm", "rand", "seq", "pmrand"])
    def test_pair_mode_selectors(self, workers, selector):
        topology = CompleteTopology(200)
        values = np.random.default_rng(4).normal(5.0, 2.0, topology.n)
        assert_sharded_matches_reference(
            dict(
                topology=topology,
                values=values,
                pair_protocol=PairProtocolSpec(selector, track_s=True),
                seed=54,
            ),
            workers,
            cycles=6,
        )

    def test_churn_with_epoch_restarts(self, workers):
        topology = CompleteTopology(220)
        values = np.random.default_rng(5).normal(5.0, 2.0, topology.n)
        assert_sharded_matches_reference(
            dict(
                topology=topology,
                values=values,
                churn=ChurnTrace.constant(15, 6, 4),
                epochs=EpochSpec(cycles_per_epoch=5),
                seed=55,
            ),
            workers,
            cycles=15,
        )

    def test_capacity_growth_remaps_shared_segment(self, workers):
        """Heavy joins force geometric matrix growth, so the backend
        must remap its shared segment mid-run — repeatedly."""
        topology = CompleteTopology(64)
        values = np.random.default_rng(6).normal(5.0, 2.0, topology.n)
        assert_sharded_matches_reference(
            dict(
                topology=topology,
                values=values,
                churn=ChurnTrace.constant(12, 40, 2),
                seed=56,
            ),
            workers,
            cycles=12,
        )

    def test_sparse_csr_overlay(self, workers):
        """The paper's 20-regular overlay: CSR partner draws stay
        engine-side; the sharded execution must match bit for bit."""
        topology = RandomRegularTopology(120, 20, seed=7)
        values = np.random.default_rng(7).normal(5.0, 2.0, topology.n)
        assert_sharded_matches_reference(
            dict(topology=topology, values=values, seed=57), workers
        )

    def test_irregular_sparse_overlay(self, workers):
        topology = ErdosRenyiTopology(150, 0.08, seed=8)
        values = np.random.default_rng(8).normal(5.0, 2.0, topology.n)
        assert_sharded_matches_reference(
            dict(topology=topology, values=values, seed=58), workers
        )


def apply_like_an_engine(backend, matrix, functions, exch_i, exch_j):
    """Engine-less use of a sharded backend, through the contract the
    engine uses: hand the matrix over, apply (at most one step per row
    and call — the step buffers are sized by the rows), ``sync()``
    before reading. Returns a heap copy of the result."""
    rows = len(matrix)
    try:
        shared = backend.adopt_matrix(matrix)
        for lo in range(0, len(exch_i), rows):
            backend.apply_exchanges(
                shared, functions,
                exch_i[lo:lo + rows], exch_j[lo:lo + rows],
            )
        backend.sync()
        return shared.copy()
    finally:
        backend.close()


class TestLossFreeCompaction:
    """Figure 4's shape: churn keeps every cycle on the fused mask
    path, oracle draws and no loss keep every exchange, so ``compact``
    hands its inputs — the cached initiator set among them — straight
    to the backend, which must only read them."""

    def test_figure4_cycles_compact_nothing_and_match(self, monkeypatch):
        n, cycles = 2_000, 25
        compact = CyclePlan.compact
        calls = []

        def recording(plan, initiators, partners, ok):
            exch_i, exch_j = compact(plan, initiators, partners, ok)
            calls.append((exch_i is initiators, initiators, initiators.copy()))
            return exch_i, exch_j

        monkeypatch.setattr(CyclePlan, "compact", recording)
        finals = []
        for backend in ("vectorized", "sharded:2"):
            del calls[:]
            experiment = SizeEstimationExperiment(
                SizeEstimationConfig(
                    cycles=cycles, cycles_per_epoch=10, initial_size=n,
                    expected_leaders=1e-9, force_leader=True, seed=27,
                ),
                churn=ChurnTrace.diurnal(
                    n, cycles, period=12, amplitude=n // 10,
                    fluctuation=n // 1000, seed=27,
                ),
                backend=backend,
            )
            with GossipEngine(experiment.scenario()) as engine:
                result = engine.run(cycles)
                finals.append((engine.matrix, engine.alive_mask,
                               result.exchange_counts, result.alive_counts))
            assert len(calls) == cycles
            for returned_input, initiators, before in calls:
                assert returned_input
                assert np.array_equal(initiators, before)
        (matrix, alive, *counts), (sh_matrix, sh_alive, *sh_counts) = finals
        assert np.array_equal(matrix, sh_matrix)
        assert np.array_equal(alive, sh_alive)
        assert counts == sh_counts


class TestShardedBackendDirect:
    """Direct (engine-less) use of the adopt / apply / sync contract."""

    def test_apply_exchanges_on_adopted_matrix(self):
        rng = np.random.default_rng(9)
        n, m = 90, 300
        matrix_ref = rng.normal(0.0, 1.0, (n, 2))
        exch_i = rng.integers(0, n, m)
        exch_j = (exch_i + 1 + rng.integers(0, n - 1, m)) % n
        functions = (MeanAggregate(), MaxAggregate())
        matrix_sh = apply_like_an_engine(
            ShardedBackend(workers=2), matrix_ref.copy(), functions,
            exch_i, exch_j,
        )
        ReferenceBackend().apply_exchanges(
            matrix_ref, functions, exch_i, exch_j
        )
        assert np.array_equal(matrix_ref, matrix_sh)

    def test_tiny_chunk_stresses_segment_boundaries(self, tiny_window):
        """A pathological 7-step window exercises many batch/tail
        segments per call; results must not change."""
        rng = np.random.default_rng(10)
        n, m = 40, 200
        matrix_ref = rng.normal(0.0, 1.0, (n, 1))
        exch_i = rng.integers(0, n, m)
        exch_j = (exch_i + 1 + rng.integers(0, n - 1, m)) % n
        functions = (MeanAggregate(),)
        matrix_sh = apply_like_an_engine(
            ShardedBackend(workers=3), matrix_ref.copy(),
            functions, exch_i, exch_j,
        )
        ReferenceBackend().apply_exchanges(
            matrix_ref, functions, exch_i, exch_j
        )
        assert np.array_equal(matrix_ref, matrix_sh)

    def test_a_matrix_that_was_not_adopted_is_refused(self):
        """The workers apply to the shared segment and nothing else; a
        pool handed any other array would leave it untouched."""
        backend = ShardedBackend(workers=1)
        steps = np.array([0]), np.array([1])
        try:
            with pytest.raises(SimulationError, match="adopted"):
                backend.apply_exchanges(
                    np.ones((4, 1)), (MeanAggregate(),), *steps
                )
            shared = backend.adopt_matrix(np.ones((4, 1)))
            with pytest.raises(SimulationError, match="adopted"):
                backend.apply_exchanges(
                    shared.copy(), (MeanAggregate(),), *steps
                )
        finally:
            backend.close()


def service5_scenario(n, backend, seed=41):
    """Mean, second moment, max, min and count on one exchange stream:
    the five-column monitoring-suite workload."""
    values = np.random.default_rng(seed).normal(10.0, 4.0, n)
    indicator = np.zeros(n)
    indicator[seed % n] = 1.0
    spec = MultiAggregateSpec.build(
        {
            "mean": MeanAggregate(),
            "second_moment": MeanAggregate(),
            "maximum": MaxAggregate(),
            "minimum": MinAggregate(),
            "count": MeanAggregate(),
        },
        initial={
            "second_moment": moment_values(values, 2),
            "count": indicator,
        },
    )
    return spec.scenario(CompleteTopology(n), values, seed=seed,
                         backend=backend)


class TestWindowFollowsRows:
    """The pool's planning window is derived from the adopted row
    count; where it is new, segmentation changes and values do not."""

    def test_pool_scans_an_eighth_of_the_rows_at_a_time(self, scan_sizes):
        n = 48_000
        rng = np.random.default_rng(16)
        matrix = rng.normal(0.0, 1.0, (n, 2))
        exch_i = np.arange(n)
        exch_j = (exch_i + rng.integers(1, n, n)) % n
        functions = (MeanAggregate(), MaxAggregate())
        pooled = apply_like_an_engine(
            ShardedBackend(workers=1), matrix.copy(), functions,
            exch_i, exch_j,
        )
        assert max(scan_sizes) == n // 8
        VectorizedBackend().apply_exchanges(
            matrix, functions, exch_i, exch_j
        )
        assert np.array_equal(matrix, pooled)

    def test_five_aggregates_at_a_derived_window(self):
        def final(backend):
            with GossipEngine(service5_scenario(48_000, backend)) as engine:
                engine.run(3, record="end")
                return engine.matrix.copy(), engine._backend

        expected, _ = final("vectorized")
        pooled, backend = final("sharded:2")
        assert backend._window == 6_000
        assert np.array_equal(expected, pooled)

    def test_window_changes_when_the_matrix_grows(self):
        """Joins push the capacity from 30 000 rows (window 4 096)
        past 32 768 mid-run: later calls plan with a larger window."""
        n = 30_000
        kwargs = dict(
            topology=CompleteTopology(n),
            values=np.random.default_rng(17).normal(5.0, 2.0, n),
            churn=ChurnTrace.constant(4, 1_500, 100),
            seed=63,
        )
        ref_matrix, ref_alive, ref_result = run_engine(
            "vectorized", kwargs, cycles=4
        )
        windows, counts = [], []
        with GossipEngine(Scenario(backend="sharded:2", **kwargs)) as engine:
            for _ in range(4):
                windows.append(engine._backend._window)
                counts.append(engine.run_cycle())
            assert np.array_equal(ref_matrix, engine.matrix)
            assert np.array_equal(ref_alive, engine.alive_mask)
        assert windows[0] == 4_096 and windows[-1] > 4_096
        assert ref_result.exchange_counts == counts


class TestShardedLifecycle:
    def test_close_terminates_workers(self):
        topology = CompleteTopology(128)
        values = np.random.default_rng(11).normal(5.0, 2.0, topology.n)
        engine = GossipEngine(
            Scenario(topology, values, seed=59, backend="sharded:2")
        )
        backend = engine._backend
        assert backend.active_workers == 2
        engine.run(2)
        engine.close()
        assert backend.active_workers == 0
        # idempotent
        engine.close()
        assert backend.active_workers == 0

    def test_engine_observers_valid_after_close(self):
        """Closing unmaps the shared segment, so the engine must detach
        its matrix first (release_matrix) — post-close reads used to
        hit unmapped memory (hard crash, not an exception)."""
        topology = CompleteTopology(128)
        values = np.random.default_rng(12).normal(5.0, 2.0, topology.n)
        engine = GossipEngine(
            Scenario(topology, values, seed=60, backend="sharded:2")
        )
        engine.run(3)
        live_matrix = engine.matrix
        engine.close()
        assert np.array_equal(engine.matrix, live_matrix)
        assert engine.variance() >= 0.0
        assert len(engine.alive_column()) == topology.n
        assert float(np.mean(values)) == pytest.approx(engine.mean())
        # running again would silently respawn a pool on a stale copy
        with pytest.raises(Exception, match="closed"):
            engine.run(1)

    def test_shard_chunk_argument(self):
        """The pool plans with an eighth of the adopted rows, kept
        between ``PAIR_CHUNK`` and ``SHARD_CHUNK`` and derived again at
        every mapping."""
        backend = ShardedBackend(workers=1)
        try:
            for rows, window in ((1_000, 4_096), (40_000, 5_000),
                                 (100_000, 12_500), (600_000, 65_536)):
                backend.adopt_matrix(np.zeros((rows, 1)))
                assert backend._window == window
        finally:
            backend.close()

    def test_in_process_work_plans_with_the_vectorized_window(
        self, scan_sizes
    ):
        """``SHARD_CHUNK`` is sized for barriers; the in-process
        backend behind ``auto``, a degraded pool and every view merge
        crosses none and keeps ``VectorizedBackend()``'s window.
        Counted where it shows: the longest first-occurrence scan of
        one view-merge call."""
        from repro.kernel.backends import PAIR_CHUNK

        n = 3 * PAIR_CHUNK
        rng = np.random.default_rng(15)
        views = rng.integers(0, n, size=(n, 4), dtype=np.int32)
        exch_i = np.arange(n, dtype=np.int32)
        exch_j = (exch_i + rng.integers(1, n, size=n, dtype=np.int32)) % n
        expected = views.copy()
        ReferenceBackend().apply_view_exchanges(expected, exch_i, exch_j)
        backend = ShardedBackend(workers=1)
        merged = views.copy()
        backend.apply_view_exchanges(merged, exch_i, exch_j)
        backend.close()
        assert max(scan_sizes) == PAIR_CHUNK
        assert np.array_equal(merged, expected)

    def test_parked_segments_stay_bounded_across_epoch_rebuilds(self):
        """Epoch restarts that change the instance count re-adopt the
        matrix every epoch; only the last superseded segment may stay
        mapped (older generations have no live views) or long Figure 4
        runs would retain one dead segment per epoch."""
        n = 64
        values = np.random.default_rng(14).normal(5.0, 2.0, n)

        def reseed(context):
            # alternate the instance count so every epoch rebuilds
            k = 1 + (context.epoch % 2)
            return np.ones((len(context.participants), k))

        engine = GossipEngine(
            Scenario(
                CompleteTopology(n), values,
                epochs=EpochSpec(cycles_per_epoch=2, reseed=reseed),
                seed=62, backend="sharded:1",
            )
        )
        try:
            engine.run(20)  # 10 epochs, ~10 remaps
            assert len(engine._backend._parked) <= 1
        finally:
            engine.close()
        assert engine._backend._parked == []

    @pytest.mark.parametrize(
        "value", ["not-seconds", "-1", "0", "nan", "inf"]
    )
    def test_timeout_env_validated_at_construction(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", value)
        with pytest.raises(ConfigurationError, match="REPRO_SHARD_TIMEOUT"):
            ShardedBackend(workers=1)

    def test_spawn_start_method_works(self, monkeypatch):
        """Off Linux the pool uses spawn (fork is unsafe under macOS
        frameworks); the worker protocol must be spawn-clean — entry
        point importable, all state over pipes."""
        import repro.kernel.backends.sharded as sharded_module

        monkeypatch.setattr(sharded_module.sys, "platform", "darwin")
        topology = CompleteTopology(96)
        values = np.random.default_rng(13).normal(5.0, 2.0, topology.n)
        ref_matrix, _, _ = run_engine(
            "reference", dict(topology=topology, values=values, seed=61),
            cycles=4,
        )
        engine = GossipEngine(
            Scenario(topology, values, seed=61, backend="sharded:1")
        )
        try:
            assert engine._backend._ctx.get_start_method() == "spawn"
            engine.run(4)
            assert np.array_equal(engine.matrix, ref_matrix)
        finally:
            engine.close()

    def test_workers_validation(self):
        with pytest.raises(ConfigurationError):
            ShardedBackend(workers=0)
        with pytest.raises(ConfigurationError):
            ShardedBackend(workers=True)
        with pytest.raises(ConfigurationError):
            ShardedBackend(workers=2.5)


def _families():
    """The four scenario families of the pipelined sweep: plain
    cycles, pair-mode PM, churn + epoch restarts with capacity growth
    (shared-segment remaps mid-run), and a sparse CSR overlay."""
    rng = np.random.default_rng(21)
    plain = CompleteTopology(230)
    sparse = RandomRegularTopology(130, 20, seed=22)
    return {
        "plain": dict(
            topology=plain, values=rng.normal(5.0, 2.0, plain.n), seed=71
        ),
        "pair_pm": dict(
            topology=plain, values=rng.normal(5.0, 2.0, plain.n),
            pair_protocol=PairProtocolSpec("pm", track_s=True), seed=72,
        ),
        "churn_epoch": dict(
            topology=CompleteTopology(72),
            values=rng.normal(5.0, 2.0, 72),
            churn=ChurnTrace.constant(12, 30, 2),
            epochs=EpochSpec(cycles_per_epoch=4),
            seed=73,
        ),
        "sparse_csr": dict(
            topology=sparse, values=rng.normal(5.0, 2.0, sparse.n), seed=74
        ),
    }


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("family", sorted(_families()))
class TestPipelineModes:
    """Pipelined execution must be bitwise-equal to the reference
    oracle for every worker count and family — the pipeline changes
    *when* a planned segment is applied, never *what* is applied."""

    def test_pipelined_sweep(self, family, workers):
        assert_sharded_matches_reference(
            _families()[family], workers, cycles=12
        )


class TestPipelineMechanics:
    def test_tiny_chunk_forces_bank_wraparound(self, tiny_window):
        """A pathological 7-step window makes every cycle publish many
        segments, and 16 cycles alternate the two step-buffer banks
        through many reuse generations; the handoff must never
        overwrite a bank that is still in flight. On the star every
        step touches the hub, so every window goes to the sequential
        applier."""
        for topology in (CompleteTopology(96), StarTopology(96)):
            values = np.random.default_rng(23).normal(5.0, 2.0, topology.n)
            kwargs = dict(topology=topology, values=values, seed=75)
            ref_matrix, _, ref_result = run_engine(
                "reference", kwargs, cycles=16
            )
            sh_matrix, _, sh_result = run_engine(
                ShardedBackend(2), kwargs, cycles=16
            )
            assert np.array_equal(ref_matrix, sh_matrix)
            assert ref_result.exchange_counts == sh_result.exchange_counts

    def test_phase_seconds_accumulate(self):
        topology = CompleteTopology(200)
        values = np.random.default_rng(24).normal(5.0, 2.0, topology.n)
        engine = GossipEngine(
            Scenario(topology, values, seed=76, backend="sharded:2")
        )
        try:
            engine.run(4, record="end")
            phases = engine._backend.phase_seconds
            assert set(phases) == {"plan", "apply", "sync"}
            assert phases["plan"] > 0.0
            assert phases["sync"] > 0.0
            assert all(value >= 0.0 for value in phases.values())
        finally:
            engine.close()

    def test_killed_worker_raises_shard_pool_error(self, monkeypatch):
        """A worker dying mid-run must surface as a typed
        ShardPoolError naming the worker and protocol phase, not hang
        until the 120 s default timeout or raise a bare pipe error."""
        from repro.errors import ShardPoolError

        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "2")
        topology = CompleteTopology(160)
        values = np.random.default_rng(25).normal(5.0, 2.0, topology.n)
        engine = GossipEngine(
            Scenario(topology, values, seed=77, backend="sharded:2")
        )
        try:
            engine.run(2, record="end")
            victim = engine._backend._procs[1]
            victim.terminate()
            victim.join(timeout=5)
            with pytest.raises(ShardPoolError) as excinfo:
                engine.run(4, record="end")
            error = excinfo.value
            assert "sharded worker pool failed during" in str(error)
            assert error.phase in ("command", "apply", "remap")
            assert error.worker is not None
        finally:
            # close() stays orderly after the failure: the segments
            # were parked, so release_matrix still detaches a copy
            engine.close()

    def test_close_after_failure_is_clean(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "2")
        backend = ShardedBackend(workers=2)
        matrix = backend.adopt_matrix(
            np.random.default_rng(26).normal(0.0, 1.0, (64, 1))
        )
        backend.apply_exchanges(
            matrix, (MeanAggregate(),),
            np.arange(32), np.arange(32, 64),
        )
        backend.sync()
        backend._procs[0].terminate()
        backend._procs[0].join(timeout=5)
        backend.close()
        assert backend.active_workers == 0


class TestAutoWorkers:
    def test_auto_spec_parses(self):
        assert parse_backend_spec("sharded:auto") == ("sharded", "auto")

    def test_auto_backend_resolves_worker_count(self):
        backend = make_backend("sharded:auto")
        assert backend.workers >= 1
        backend.close()

    def test_auto_inlines_small_matrices(self):
        """Below the inline threshold `auto` must not spawn a pool at
        all — sharded:auto is never slower than vectorized at
        degenerate sizes — and still match the oracle bitwise."""
        topology = CompleteTopology(180)
        values = np.random.default_rng(27).normal(5.0, 2.0, topology.n)
        kwargs = dict(topology=topology, values=values, seed=78)
        ref_matrix, _, _ = run_engine("reference", kwargs, cycles=6)
        engine = GossipEngine(
            Scenario(backend="sharded:auto", **kwargs)
        )
        try:
            engine.run(6)
            assert engine._backend.inline is True
            assert engine._backend.active_workers == 0
            assert np.array_equal(engine.matrix, ref_matrix)
        finally:
            engine.close()

    def test_explicit_worker_count_never_inlines(self):
        topology = CompleteTopology(64)
        values = np.random.default_rng(28).normal(5.0, 2.0, topology.n)
        engine = GossipEngine(
            Scenario(topology, values, seed=79, backend="sharded:2")
        )
        try:
            assert engine._backend.inline is False
            assert engine._backend.active_workers == 2
        finally:
            engine.close()

    def test_growth_past_threshold_promotes_to_pool(self, monkeypatch):
        """An `auto` engine that starts tiny but grows past the inline
        threshold must promote to the shared-memory pool mid-run and
        stay bitwise-equal to the oracle across the promotion.

        `auto` on a single schedulable core stays inline at every size
        (see test_auto_single_core_stays_inline), so pretend the box
        has two cores to exercise the promotion machinery."""
        import repro.kernel.backends.sharded as sharded_module
        monkeypatch.setattr(sharded_module, "default_workers", lambda: 2)
        monkeypatch.setattr(sharded_module, "SHARD_INLINE", 100)
        topology = CompleteTopology(48)
        values = np.random.default_rng(29).normal(5.0, 2.0, topology.n)
        kwargs = dict(
            topology=topology, values=values,
            churn=ChurnTrace.constant(10, 25, 1),
            seed=80,
        )
        ref_matrix, ref_alive, _ = run_engine("reference", kwargs, cycles=10)
        engine = GossipEngine(Scenario(
            backend=ShardedBackend("auto"), **kwargs
        ))
        try:
            assert engine._backend.inline is True
            engine.run(10)
            assert engine._backend.inline is False
            assert engine._backend.active_workers >= 1
            assert np.array_equal(engine.matrix, ref_matrix)
            assert np.array_equal(engine.alive_mask, ref_alive)
        finally:
            engine.close()

    def test_auto_single_core_stays_inline(self, monkeypatch):
        """With one schedulable core a pool cannot overlap anything —
        it only adds IPC on top of the same serial work — so `auto`
        stays in-process at *any* size, even past the threshold."""
        import repro.kernel.backends.sharded as sharded_module
        monkeypatch.setattr(sharded_module, "default_workers", lambda: 1)
        monkeypatch.setattr(sharded_module, "SHARD_INLINE", 100)
        backend = ShardedBackend(workers="auto")
        try:
            matrix = backend.adopt_matrix(
                np.random.default_rng(31).normal(0.0, 1.0, (4096, 1))
            )
            assert backend.inline is True
            assert backend.active_workers == 0
            grown = backend.grow_matrix(matrix, 8192)
            assert backend.inline is True
            assert backend.active_workers == 0
            assert grown.shape == (8192, 1)
        finally:
            backend.close()

    def test_count_arguments_validated(self):
        for bad in (-1, 1.5, True, "2"):
            with pytest.raises(ConfigurationError, match="max_respawns"):
                ShardedBackend(workers=2, max_respawns=bad)


class TestSingleCopyGrowth:
    def test_churn_growth_costs_one_copy_per_growth(self):
        """The growth path used to copy twice (engine vstack into a
        heap array, then adopt_matrix into the new segment); now the
        backend maps the larger segment and copies once. The counter
        covers the initial adoption plus exactly one copy per
        capacity-growth event."""
        topology = CompleteTopology(64)
        values = np.random.default_rng(30).normal(5.0, 2.0, topology.n)
        engine = GossipEngine(
            Scenario(
                topology, values,
                churn=ChurnTrace.constant(12, 40, 2),
                seed=81, backend="sharded:2",
            )
        )
        try:
            growths = 0
            capacity = engine.capacity
            for _ in range(12):
                engine.run_cycle()
                if engine.capacity > capacity:
                    growths += 1
                    capacity = engine.capacity
            assert growths >= 2  # the workload must actually grow
            assert engine._backend.adopt_copies == 1 + growths
        finally:
            engine.close()

    def test_epoch_instance_rebuild_costs_zero_copies(self):
        """Epoch restarts that change the instance count allocate a
        fresh zero-filled segment — no heap zeros, no adopt copy."""
        n = 64
        values = np.random.default_rng(31).normal(5.0, 2.0, n)

        def reseed(context):
            k = 1 + (context.epoch % 2)
            return np.ones((len(context.participants), k))

        engine = GossipEngine(
            Scenario(
                CompleteTopology(n), values,
                epochs=EpochSpec(cycles_per_epoch=2, reseed=reseed),
                seed=82, backend="sharded:1",
            )
        )
        try:
            engine.run(10)  # 5 epochs, ~5 instance-count rebuilds
            assert engine._backend.adopt_copies == 1  # initial adopt only
        finally:
            engine.close()


class TestBackendSpecs:
    def test_make_backend_sharded_default_workers(self):
        backend = make_backend("sharded")
        assert isinstance(backend, ShardedBackend)
        assert backend.workers >= 1
        backend.close()

    def test_make_backend_sharded_explicit_workers(self):
        backend = make_backend("sharded:3")
        assert backend.workers == 3
        backend.close()

    @pytest.mark.parametrize("spec", [
        "gpu", "sharded:two", "sharded:0", "sharded:-1", "sharded:",
        "vectorized:4", "auto",
    ])
    def test_bad_specs_raise_typed_error(self, spec):
        with pytest.raises(BackendSpecError) as excinfo:
            make_backend(spec)
        error = excinfo.value
        assert error.spec == spec
        assert "sharded" in str(error)
        assert error.valid_backends  # the full list rides on the error

    def test_parse_accepts_auto_when_allowed(self):
        assert parse_backend_spec("auto", allow_auto=True) == ("auto", None)
        assert parse_backend_spec("sharded:8") == ("sharded", 8)

    def test_scenario_validates_spec(self):
        topology = CompleteTopology(16)
        values = np.zeros(16)
        with pytest.raises(BackendSpecError):
            Scenario(topology, values, backend="sharded:nope")
        # well-formed parameterized specs are accepted and preserved
        scenario = Scenario(topology, values, backend="sharded:2")
        assert scenario.resolve_backend() == "sharded:2"

    def test_auto_never_resolves_to_sharded(self):
        topology = CompleteTopology(16)
        scenario = Scenario(topology, np.zeros(16), backend="auto")
        assert scenario.resolve_backend() in ("reference", "vectorized")


class TestCliBackendSpecs:
    def test_unknown_backend_lists_valid_forms(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["scale", "--n", "64", "--backend", "bogus"])
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert "valid backends" in stderr
        assert "'sharded:<workers>'" in stderr

    def test_malformed_sharded_spec_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["figure3a", "--backend", "sharded:zero"])
        assert excinfo.value.code == 2
        assert "not an integer" in capsys.readouterr().err

    def test_workers_requires_sharded(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["scale", "--n", "64", "--backend", "vectorized",
                      "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers requires --backend sharded" in (
            capsys.readouterr().err
        )

    def test_workers_conflicts_with_parameterized_spec(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["scale", "--n", "64", "--backend", "sharded:2",
                      "--workers", "2"])
        assert excinfo.value.code == 2

    def test_scale_runs_sharded_via_workers_flag(self, capsys):
        assert cli_main(["scale", "--n", "300", "--cycles", "2",
                         "--backend", "sharded", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "sharded:2" in out

    def test_scale_comparison_list(self, capsys):
        assert cli_main(["scale", "--n", "300", "--cycles", "2",
                         "--backend", "reference,sharded:1"]) == 0
        out = capsys.readouterr().out
        assert "reference" in out and "sharded:1" in out

    def test_workers_auto_is_default_for_bare_sharded(self, capsys):
        """`--backend sharded` with the default `--workers auto` folds
        to sharded:auto (affinity worker count + inline fallback)."""
        assert cli_main(["scale", "--n", "300", "--cycles", "2",
                         "--backend", "sharded"]) == 0
        assert "sharded:auto" in capsys.readouterr().out

    def test_workers_auto_inert_for_other_backends(self, capsys):
        """The auto default must not break non-sharded backends or
        comparison lists."""
        assert cli_main(["scale", "--n", "300", "--cycles", "2",
                         "--backend", "vectorized",
                         "--workers", "auto"]) == 0
        assert "vectorized" in capsys.readouterr().out

    def test_backend_sharded_auto_spec(self, capsys):
        assert cli_main(["scale", "--n", "300", "--cycles", "2",
                         "--backend", "sharded:auto"]) == 0
        assert "sharded:auto" in capsys.readouterr().out

    def test_workers_rejects_garbage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["scale", "--n", "64", "--backend", "sharded",
                      "--workers", "some"])
        assert excinfo.value.code == 2
        assert "positive integer or 'auto'" in capsys.readouterr().err
