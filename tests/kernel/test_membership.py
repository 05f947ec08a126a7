"""Tests for the kernel-hosted membership layer.

Covers the declarative :class:`NewscastSpec` (validation,
normalization, scenario-level rejections), the
:class:`PartnerProvider` protocol, the oracle provider's RNG-stream
identity with the historical draw algorithms, the Newscast view
machinery (bootstrap, joins, growth, merge invariants), bitwise
cross-backend equivalence of value *and* view trajectories, and the
zero-degree isolated-node regression. Distribution-level acceptance
tests (in-degree tails, oracle-vs-newscast Figure-4 parity) are marked
``membership`` and deselected from tier-1.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import SizeEstimationConfig, SizeEstimationExperiment
from repro.errors import CheckpointError, ConfigurationError, TopologyError
from repro.kernel import (
    ChurnTrace,
    GossipEngine,
    NewscastSpec,
    NewscastViews,
    OracleProvider,
    Scenario,
    read_checkpoint,
)
from repro.kernel.adversary import AdversarySpec
from repro.kernel.backends import (
    GREEDY_TAIL,
    VIEW_TAIL,
    ReferenceBackend,
    VectorizedBackend,
)
from repro.kernel.backends import base as backends_base
from repro.kernel.backends import vectorized as vectorized_module
from repro.kernel.backends.base import (
    _first_distinct_batch,
    _first_distinct_row,
    merge_views_batch,
    merge_views_sequential,
)
from repro.kernel.checkpoint import write_checkpoint
from repro.kernel.membership import build_provider, resolve_membership
from repro.kernel.pairs import PairProtocolSpec
from repro.rng import make_rng
from repro.topology import AdjacencyTopology, CompleteTopology, RingTopology

BACKENDS = ["reference", "vectorized", "sharded:2", "sharded:4"]


def scenario_with(n=300, seed=7, values_seed=2, **kwargs):
    values = make_rng(values_seed).normal(10.0, 3.0, n)
    return Scenario(CompleteTopology(n), values, seed=seed, **kwargs)


def run_engine(scenario, cycles):
    engine = GossipEngine(scenario)
    try:
        for _ in range(cycles):
            engine.run_cycle()
        matrix = engine.matrix
        views = engine.membership_views
        alive = engine.alive_mask
    finally:
        engine.close()
    return matrix, views, alive


class TestSpecValidation:
    def test_spec_defaults(self):
        spec = NewscastSpec()
        assert spec.view_size == 20

    def test_resolve_names(self):
        assert resolve_membership(None) is None
        assert resolve_membership("oracle") is None
        assert resolve_membership("newscast") == NewscastSpec()
        spec = NewscastSpec(view_size=5)
        assert resolve_membership(spec) is spec
        with pytest.raises(ConfigurationError):
            resolve_membership("gnutella")

    def test_scenario_normalizes_string(self):
        scenario = scenario_with(membership="newscast")
        assert scenario.membership == NewscastSpec()
        assert scenario_with(membership="oracle").membership is None

    def test_scenario_rejects_non_complete_topology(self):
        values = make_rng(2).normal(10.0, 3.0, 50)
        with pytest.raises(ConfigurationError):
            Scenario(RingTopology(50, 2), values, membership="newscast")

    def test_scenario_rejects_pair_mode(self):
        with pytest.raises(ConfigurationError):
            scenario_with(
                membership="newscast",
                pair_protocol=PairProtocolSpec(selector="seq"),
            )

    def test_scenario_rejects_eclipse_adversary(self):
        with pytest.raises(ConfigurationError):
            scenario_with(
                membership="newscast",
                adversary=AdversarySpec(kind="eclipse", fraction=0.1),
            )


class TestProviderProtocol:
    def test_build_provider(self):
        assert build_provider(None).name == "oracle"
        assert build_provider(NewscastSpec()).name == "newscast"

    def test_engine_exposes_provider(self):
        with GossipEngine(scenario_with()) as engine:
            assert engine.membership_name == "oracle"
            assert engine.membership_views is None
            # a topology draw can land on a crashed node
            assert not engine.partner_provider.draws_valid_participants
        churn = ChurnTrace(np.zeros(4, dtype=int), np.zeros(4, dtype=int))
        with GossipEngine(scenario_with(churn=churn)) as engine:
            # the dynamic draw picks among the initiators themselves
            assert engine.partner_provider.draws_valid_participants

    def test_newscast_engine_exposes_views(self):
        spec = NewscastSpec(view_size=8)
        with GossipEngine(scenario_with(membership=spec)) as engine:
            assert engine.membership_name == "newscast"
            views = engine.membership_views
            assert views.shape == (300, 8)
            assert views.dtype == np.int32
            assert not engine.partner_provider.draws_valid_participants
            assert engine.partner_provider.views.view_size == 8

    @pytest.mark.parametrize("membership", [None, "newscast"])
    def test_closed_engine_is_freed_without_the_collector(self, membership):
        """``close()`` unbinds the provider's back-reference, so a
        closed engine and its matrices go the moment the last reference
        does — peak memory of back-to-back runs must not depend on when
        the cyclic collector last ran."""
        engine = GossipEngine(scenario_with(membership=membership))
        engine.run(2)
        engine.close()
        alive = weakref.ref(engine)
        gc.disable()
        try:
            del engine
            assert alive() is None
        finally:
            gc.enable()


class TestOracleRngIdentity:
    """The oracle provider must consume the RNG stream exactly as the
    historically inlined draw code did."""

    def test_static_draw_is_topology_draw(self):
        topology = RingTopology(64, 4)
        provider = OracleProvider()
        provider._topology = topology
        provider._dynamic = False
        initiators = np.arange(0, 64, 2, dtype=np.int64)
        out = np.empty(len(initiators), dtype=np.int32)
        provider.draw(initiators, make_rng(11), out)
        expected = topology.random_neighbor_array(
            initiators, make_rng(11), out=np.empty_like(out)
        )
        assert np.array_equal(out, expected)

    def test_dynamic_draw_algorithm(self):
        provider = OracleProvider()
        provider._topology = None
        provider._dynamic = True
        initiators = np.array([3, 7, 9, 12, 20, 41], dtype=np.int64)
        count = len(initiators)
        out = np.empty(count, dtype=np.int64)
        provider.draw(initiators, make_rng(5), out)
        # replay: uniform positions with the self-pick shift
        rng = make_rng(5)
        positions = rng.integers(0, count, size=count)
        clash = positions == np.arange(count)
        if clash.any():
            positions[clash] = (positions[clash] + 1) % count
        assert np.array_equal(out, initiators[positions])
        assert not np.any(out == initiators)

    def test_membership_none_equals_oracle_string(self):
        matrix_none, _, _ = run_engine(scenario_with(membership=None), 10)
        matrix_oracle, _, _ = run_engine(
            scenario_with(membership="oracle"), 10
        )
        assert np.array_equal(matrix_none, matrix_oracle)


class TestNewscastViews:
    def test_bootstrap_invariants(self):
        views = NewscastViews(100, 12).bootstrap(make_rng(3))
        rows = np.arange(100)[:, None]
        assert views.views.shape == (100, 12)
        assert not np.any(views.views == rows)
        assert views.views.min() >= 0 and views.views.max() < 100

    def test_view_size_capped(self):
        views = NewscastViews(4, 20).bootstrap(make_rng(3))
        assert views.view_size == 3

    def test_rejects_tiny_inputs(self):
        with pytest.raises(ConfigurationError):
            NewscastViews(1, 5)
        with pytest.raises(ConfigurationError):
            NewscastViews(10, 0)

    def test_grow_preserves_rows(self):
        """Engine growth extends the views like every slot-table row:
        old rows kept, fresh rows -1 until a joiner's row is seeded."""
        scenario = scenario_with(n=50, membership=NewscastSpec(view_size=6))
        with GossipEngine(scenario) as engine:
            before = engine.membership_views
            engine._lifecycle.ensure_capacity(80)
            views = engine.membership_views
            assert views.shape == (80, 6)
            assert np.array_equal(views[:50], before)
            assert np.all(views[50:] == -1)

    def test_seed_rows_alive_no_self(self):
        views = NewscastViews(60, 8).bootstrap(make_rng(5))
        alive = np.ones(60, dtype=bool)
        alive[40:] = False
        slots = np.array([41, 47, 59], dtype=np.int64)
        views.seed_rows(slots, alive, make_rng(6))
        seeded = views.views[slots]
        assert np.all(seeded < 40)  # contacts drawn among alive nodes
        assert not np.any(seeded == slots[:, None])

    def test_draw_partners_from_own_row(self):
        views = NewscastViews(40, 5).bootstrap(make_rng(7))
        initiators = np.arange(40, dtype=np.int64)
        out = np.empty(40, dtype=np.int32)
        for trial in range(10):
            views.draw_partners(initiators, make_rng(trial), out)
            for node in range(40):
                assert out[node] in views.views[node]

    def test_load_checks_entry_range(self, tmp_path):
        """Restore takes the -1 rows of never-seeded slots and refuses
        an entry outside ``[-1, capacity)``."""
        scenario = scenario_with(
            n=30, membership=NewscastSpec(view_size=4),
            churn=ChurnTrace.constant(4, 0, 0),
        )
        with GossipEngine(scenario) as engine:
            engine._lifecycle.ensure_capacity(45)
            manifest, arrays = read_checkpoint(engine.checkpoint(tmp_path))
        with GossipEngine.restore(scenario, tmp_path) as restored:
            assert restored.capacity == 45
            assert np.all(restored.membership_views[30:] == -1)
        for bad in (-2, 45):
            arrays["views"][3, 1] = bad
            written = write_checkpoint(tmp_path / str(bad), arrays, manifest)
            with pytest.raises(CheckpointError, match="outside"):
                GossipEngine.restore(scenario, written)


class TestMergePrimitives:
    def test_batch_matches_sequential(self):
        rng = make_rng(3)
        n, v = 400, 7
        views = rng.integers(0, n, size=(n, v), dtype=np.int32)
        rows = np.arange(n, dtype=np.int32)[:, None]
        np.copyto(views, (views + 1) % n, where=views == rows)
        perm = rng.permutation(n)
        batch_a = perm[:150].astype(np.int64)
        batch_b = perm[150:300].astype(np.int64)
        batched = views.copy()
        stepped = views.copy()
        merge_views_batch(batched, batch_a, batch_b)
        merge_views_sequential(stepped, batch_a, batch_b)
        assert np.array_equal(batched, stepped)

    def test_merge_invariants(self):
        rng = make_rng(8)
        n, v = 200, 6
        views = rng.integers(0, n, size=(n, v), dtype=np.int32)
        rows = np.arange(n, dtype=np.int32)[:, None]
        np.copyto(views, (views + 1) % n, where=views == rows)
        perm = rng.permutation(n)
        batch_a, batch_b = perm[:80], perm[80:160]
        merge_views_batch(views, batch_a, batch_b)
        # no self-loops, partner at the head, first-distinct dedup
        assert not np.any(views == rows)
        assert np.array_equal(views[batch_a][:, 0], batch_b.astype(np.int32))
        for node in np.concatenate([batch_a, batch_b]):
            row = views[node].tolist()
            assert len(set(row)) == v


class TestFirstDistinctKernel:
    """The packed-key batch kernel against its scalar oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        view_size=st.sampled_from([1, 3, 7, 20, 31]),
        # int32 keys up to 2**24 (the last int32 capacity at view_size
        # 20); 2**28 needs int64 keys from view_size 3 up, 2**31 - 1 at
        # every view size
        capacity=st.sampled_from([2, 50, 5000, 2**24, 2**28, 2**31 - 1]),
        data=st.data(),
    )
    def test_batch_matches_row_oracle(self, view_size, capacity, data):
        width = 2 * view_size + 1
        # a pool smaller than view_size forces duplicate padding, a
        # pool of one gives all-equal rows
        pool = data.draw(st.integers(1, min(2 * width, capacity)))
        base = data.draw(st.sampled_from([0, capacity - pool]))
        rows = data.draw(st.lists(
            st.lists(st.integers(base, base + pool - 1),
                     min_size=width, max_size=width),
            min_size=1, max_size=5,
        ))
        candidates = np.array(rows, dtype=np.int32)
        merged, complete = _first_distinct_batch(
            candidates, view_size, capacity
        )
        assert merged.dtype == np.int32
        assert merged.tolist() == [
            _first_distinct_row(row, view_size) for row in rows
        ]
        # complete: the row holds view_size distinct entries, so none
        # of the answer is duplicate padding
        assert complete.tolist() == [
            len(set(row)) >= view_size for row in rows
        ]
        # what the prefix pass of merge_views_batch stands on: a row
        # that completes on a prefix already has its final answer
        cut = data.draw(st.integers(view_size, width))
        head, settled = _first_distinct_batch(
            np.array([row[:cut] for row in rows], dtype=np.int32),
            view_size, capacity,
        )
        assert not np.any(settled & ~complete)
        assert head[settled].tolist() == merged[settled].tolist()

    @pytest.mark.parametrize("capacity", [2**24, 2**24 + 1])
    def test_key_width_boundary(self, capacity):
        """view_size 20 packs 6 + 1 + 24 bits into int32 keys up to
        capacity 2**24 and switches to int64 one past it; the largest
        id in the last column fills every key bit either way."""
        view_size = 20
        top = capacity - 1
        row = [top, 0] * view_size + [top]
        row[-2] = top - 1
        merged, complete = _first_distinct_batch(
            np.array([row], dtype=np.int32), view_size, capacity
        )
        assert merged[0].tolist() == _first_distinct_row(row, view_size)
        assert merged[0, :3].tolist() == [top, 0, top - 1]
        assert not complete[0]


def overlapping_views(view_size, capacity, overlap, acquainted, pairs, rng):
    """A ``(capacity, view_size)`` view matrix holding ``pairs``
    exchanging pairs whose rows overlap in a chosen way, twice (one for
    each applier), and the batch. The ids sit at the top of the range,
    where every key bit is in play. ``np.zeros`` memory is never paged
    in until written, so a 2**24-row matrix costs only the rows the
    batch touches."""
    count = 2 * pairs
    if overlap == "tiny":
        # fewer ids than a view holds: duplicates pad every row
        pool = max(count, int(rng.integers(2, view_size + 2)))
    else:
        pool = count * (view_size + 1)
    ids = (capacity - pool + rng.permutation(pool)).astype(np.int32)
    nodes, others = ids[:count], ids[count:]
    if overlap == "disjoint":
        rows = others.reshape(count, view_size)
    elif overlap == "identical":
        rows = np.tile(others[:pairs * view_size].reshape(pairs, -1), (2, 1))
    else:
        # with replacement, the nodes themselves included: duplicates
        # inside a row, the node in its own view, the partner or not
        rows = rng.choice(ids, size=(count, view_size))
    batch_a, batch_b = nodes[:pairs], nodes[pairs:]
    column = rng.integers(0, view_size, size=count)
    if acquainted in ("initiator", "both"):
        # the initiator drew its partner from its own view
        rows[np.arange(pairs), column[:pairs]] = batch_b
    if acquainted == "both":
        rows[np.arange(pairs, count), column[pairs:]] = batch_a
    matrices = []
    for _ in range(2):
        views = np.zeros((capacity, view_size), dtype=np.int32)
        views[nodes] = rows
        matrices.append(views)
    return matrices, batch_a.astype(np.int64), batch_b.astype(np.int64)


class TestMergeBatchKernel:
    """``merge_views_batch`` — the own-led candidate block, the
    ``VIEW_SORT_WIDTH`` prefix pass, the full-width second pass —
    against ``merge_views_sequential``, the merge rule spelled out."""

    #: no prefix (2v + 2 <= 32) / prefix / no prefix (v >= 32)
    VIEW_SIZES = [1, 7, 15, 16, 20, 31, 32, 40]

    def test_batch_matches_sequential_on_overlapping_views(self, monkeypatch):
        passes = set()
        kernel = backends_base._first_distinct_batch

        def watching(candidates, distinct, capacity):
            view_size, width = distinct - 1, candidates.shape[1]
            firsts, complete = kernel(candidates, distinct, capacity)
            passes.add((view_size, width < 2 * view_size + 2,
                        bool(complete.all())))
            return firsts, complete

        monkeypatch.setattr(backends_base, "_first_distinct_batch", watching)

        @settings(max_examples=250, deadline=None)
        @given(
            view_size=st.sampled_from(self.VIEW_SIZES),
            # the last capacity whose full-width keys fit int32 (column
            # bits + dup bit + id bits = 31), one past it, and small
            boundary=st.sampled_from([None, 0, 1]),
            overlap=st.sampled_from(
                ["disjoint", "identical", "replacement", "tiny"]
            ),
            acquainted=st.sampled_from(["no", "initiator", "both"]),
            pairs=st.integers(1, 4),
            seed=st.integers(0, 2**32 - 1),
        )
        @example(20, None, "disjoint", "initiator", 3, 0)
        @example(20, None, "identical", "initiator", 3, 0)
        @example(20, None, "tiny", "both", 2, 0)
        @example(7, None, "tiny", "both", 2, 0)
        def check(view_size, boundary, overlap, acquainted, pairs, seed):
            rng = np.random.default_rng(seed)
            if boundary is None:
                capacity = 2 * pairs * (view_size + 1) + int(
                    rng.integers(0, 5000)
                )
            else:
                column_bits = (2 * view_size + 1).bit_length()
                capacity = (1 << (30 - column_bits)) + boundary
            (batched, stepped), batch_a, batch_b = overlapping_views(
                view_size, capacity, overlap, acquainted, pairs, rng
            )
            merge_views_batch(batched, batch_a, batch_b)
            merge_views_sequential(stepped, batch_a, batch_b)
            touched = np.concatenate((batch_a, batch_b))
            assert batched[touched].tolist() == stepped[touched].tolist()
            if boundary is None:
                assert np.array_equal(batched, stepped)

        check()
        prefixed = {done for size, cut, done in passes if cut}
        # both ways out of the prefix pass were taken: every row
        # complete, and some row sent on to the full-width pass
        assert prefixed == {True, False}
        # … and duplicates padded a full-width row (the self-entry
        # rewritten in the answer) both behind a prefix pass and not
        assert (20, False, False) in passes
        assert (7, False, False) in passes
        assert {size for size, cut, done in passes if cut} == {16, 20, 31}


class TestViewPlan:
    """``apply_view_exchanges`` plans with ``VIEW_TAIL``: a scalar
    merge costs as much as fifty scalar value steps, so the view path
    does not inherit the value path's ``GREEDY_TAIL``."""

    def apply_counted(self, monkeypatch, views, exch_i, exch_j):
        """Apply on the vectorized backend, check against the
        reference, return the steps each applier call received."""
        calls = {"batch": [], "scalar": []}
        for kind, name in (("batch", "merge_views_batch"),
                           ("scalar", "merge_views_sequential")):
            def counted(views, steps_a, steps_b, kind=kind,
                        applier=getattr(vectorized_module, name)):
                calls[kind].append(len(steps_a))
                applier(views, steps_a, steps_b)

            monkeypatch.setattr(vectorized_module, name, counted)
        merged = views.copy()
        VectorizedBackend().apply_view_exchanges(merged, exch_i, exch_j)
        expected = views.copy()
        ReferenceBackend().apply_view_exchanges(expected, exch_i, exch_j)
        assert np.array_equal(merged, expected)
        return calls

    @pytest.mark.parametrize(
        "steps", [1, VIEW_TAIL, VIEW_TAIL + 1, GREEDY_TAIL]
    )
    def test_drained_tail_is_batched_above_view_tail(self, monkeypatch,
                                                     steps):
        """A call that leaves 9–48 exchanges pending used to run them
        one Python step at a time; only a handful still do."""
        n, v = 2 * GREEDY_TAIL, 6
        views = make_rng(5).integers(0, n, size=(n, v), dtype=np.int32)
        exch_i = np.arange(steps, dtype=np.int32)
        exch_j = exch_i + steps
        calls = self.apply_counted(monkeypatch, views, exch_i, exch_j)
        if steps <= VIEW_TAIL:
            assert calls == {"batch": [], "scalar": [steps]}
        else:
            assert calls == {"batch": [steps], "scalar": []}

    def test_hub_costs_one_scan_per_view_tail(self, monkeypatch,
                                              scan_sizes):
        """A mass join seeded from one contact: every initiator picks
        the same partner, so a scan finds one exchange ready. Each scan
        must then retire ``VIEW_TAIL`` exchanges through the scalar
        merge — never one scan per exchange, never more than that at
        scalar cost."""
        n, v = 1500, 6
        views = make_rng(6).integers(0, n, size=(n, v), dtype=np.int32)
        exch_i = np.arange(1, n, dtype=np.int32)
        exch_j = np.zeros(n - 1, dtype=np.int32)
        calls = self.apply_counted(monkeypatch, views, exch_i, exch_j)
        assert calls["batch"] == []
        assert sum(calls["scalar"]) == n - 1
        assert max(calls["scalar"]) == VIEW_TAIL
        assert 0 < len(scan_sizes) <= -(-(n - 1) // VIEW_TAIL) + 1


class TestEngineIntegration:
    def test_views_stay_self_loop_free(self):
        spec = NewscastSpec(view_size=10)
        trace = ChurnTrace.sessions(
            25, arrivals_per_cycle=5, mean_session=10, seed=3
        )
        scenario = scenario_with(membership=spec, churn=trace)
        with GossipEngine(scenario) as engine:
            for _ in range(25):
                engine.run_cycle()
                views = engine.membership_views
                alive = engine.alive_mask
                rows = np.flatnonzero(alive)
                assert not np.any(views[rows] == rows[:, None])

    def test_alive_rows_hold_only_slot_ids(self):
        """The merge kernel's precondition: growth fills fresh rows
        with -1, but every alive slot's row is seeded before it can be
        merged — through two capacity growths and slot recycling."""
        n = 300
        joins = np.array([20] * 12 + [0] * 12 + [15] * 12)
        leaves = np.array([2] * 12 + [18] * 12 + [3] * 12)
        scenario = scenario_with(
            n=n,
            membership=NewscastSpec(view_size=10),
            churn=ChurnTrace(joins, leaves),
        )
        with GossipEngine(scenario) as engine:
            for _ in range(len(joins)):
                engine.run_cycle()
                rows = engine.membership_views[engine.alive_mask]
                assert rows.min() >= 0 and rows.max() < engine.capacity
            # capacity grew past every slot the first wave can have
            # used, the rows beyond were never seeded, and the second
            # join wave recycled departed slots instead of taking them
            first_wave = n + joins[:12].sum()
            assert engine.capacity > first_wave
            assert np.all(engine.membership_views[first_wave:] == -1)
            assert not engine.alive_mask[first_wave:].any()

    def test_dead_entries_age_off_after_churn_settles(self):
        joins = np.zeros(45, dtype=np.int64)
        leaves = np.zeros(45, dtype=np.int64)
        joins[:15] = 6
        leaves[:15] = 10
        scenario = scenario_with(
            n=500,
            membership=NewscastSpec(view_size=12),
            churn=ChurnTrace(joins, leaves),
        )
        with GossipEngine(scenario) as engine:
            for _ in range(45):
                engine.run_cycle()
            alive = engine.alive_mask
            rows = engine.membership_views[alive]
            assert alive[rows].all()

    def test_views_refresh_every_cycle(self):
        with GossipEngine(scenario_with(
            membership=NewscastSpec(view_size=6)
        )) as engine:
            before = engine.membership_views
            for _ in range(3):
                engine.run_cycle()
                after = engine.membership_views
                assert not np.array_equal(before, after)
                before = after

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_backend_bitwise_equivalence(self, backend):
        """Values AND view matrices match the reference backend bitwise,
        under trace churn and epoch-free dynamics."""
        trace = ChurnTrace.sessions(
            18, arrivals_per_cycle=6, mean_session=8, seed=11
        )
        kwargs = dict(
            n=400, membership=NewscastSpec(view_size=9), churn=trace
        )
        ref_matrix, ref_views, _ = run_engine(
            scenario_with(backend="reference", **kwargs), 18
        )
        matrix, views, _ = run_engine(
            scenario_with(backend=backend, **kwargs), 18
        )
        assert np.array_equal(ref_matrix, matrix)
        assert np.array_equal(ref_views, views)

    def test_static_newscast_backend_equivalence(self):
        kwargs = dict(n=350, membership=NewscastSpec(view_size=7))
        ref_matrix, ref_views, _ = run_engine(
            scenario_with(backend="reference", **kwargs), 12
        )
        for backend in BACKENDS[1:]:
            matrix, views, _ = run_engine(
                scenario_with(backend=backend, **kwargs), 12
            )
            assert np.array_equal(ref_matrix, matrix), backend
            assert np.array_equal(ref_views, views), backend


class TestIsolatedNodes:
    """Zero-degree overlay nodes: skipped as initiators, never drawn,
    value intact — instead of a raise from deep inside the CSR batch."""

    def edges_with_isolated(self, n=40):
        # a path over nodes 0..n-3; the last two nodes are isolated
        return [(i, i + 1) for i in range(n - 3)]

    def test_isolated_mask(self):
        topology = AdjacencyTopology.from_edges(40, self.edges_with_isolated())
        mask = topology.isolated_mask()
        assert mask is not None
        assert np.flatnonzero(mask).tolist() == [38, 39]
        # fully-connected CSR reports None (no mask allocation)
        assert RingTopology(10, 2).isolated_mask() is None

    def test_csr_draw_still_raises_on_direct_call(self):
        topology = AdjacencyTopology.from_edges(40, self.edges_with_isolated())
        with pytest.raises(TopologyError, match="no neighbors"):
            topology.random_neighbor_array(
                np.array([38], dtype=np.int64), make_rng(0)
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_runs_with_isolated_nodes(self, backend):
        n = 40
        topology = AdjacencyTopology.from_edges(n, self.edges_with_isolated())
        values = make_rng(1).normal(5.0, 2.0, n)
        scenario = Scenario(topology, values, seed=9, backend=backend)
        with GossipEngine(scenario) as engine:
            for _ in range(8):
                engine.run_cycle()
            matrix = engine.matrix
            assert engine.alive_mask.all()
        # the isolated nodes kept their initial values untouched
        assert matrix[38, 0] == values[38]
        assert matrix[39, 0] == values[39]
        # the connected component still averaged
        assert np.var(matrix[:38, 0]) < np.var(values[:38])

    def test_isolated_engine_matches_reference(self):
        n = 40
        topology = AdjacencyTopology.from_edges(n, self.edges_with_isolated())
        values = make_rng(1).normal(5.0, 2.0, n)
        results = {}
        for backend in BACKENDS:
            scenario = Scenario(topology, values, seed=9, backend=backend)
            with GossipEngine(scenario) as engine:
                for _ in range(8):
                    engine.run_cycle()
                results[backend] = engine.matrix
        for backend in BACKENDS[1:]:
            assert np.array_equal(results["reference"], results[backend])


@pytest.mark.membership
class TestMembershipAcceptance:
    """Distribution-level oracle-vs-newscast parity (scheduled jobs)."""

    def test_in_degree_tail_close_to_uniform(self):
        """After mixing, the view in-degree tail must stay within a
        small factor of the uniform-oracle mean — the 'approximately
        random overlay' property the aggregation analysis needs."""
        n, v = 5000, 20
        rng = make_rng(17)
        views = NewscastViews(n, v).bootstrap(rng)
        backend = VectorizedBackend()
        everyone = np.arange(n, dtype=np.int64)
        alive = np.ones(n, dtype=bool)
        for _ in range(30):
            views.refresh(everyone, alive, rng, backend)
        in_degrees = views.in_degree_distribution()
        assert in_degrees.min() >= 1
        assert in_degrees.max() <= 4 * in_degrees.mean()

    def test_figure4_error_parity(self):
        """Size estimation through newscast views stays within the
        same 5% mean relative-error acceptance bound as the oracle
        draw, on the Figure-4 workload (diurnal ±10% trace churn)."""
        n, cycles = 20_000, 120
        errors = {}
        for membership in (None, "newscast"):
            config = SizeEstimationConfig(
                cycles=cycles, cycles_per_epoch=30, initial_size=n, seed=13
            )
            trace = ChurnTrace.diurnal(
                n, cycles, period=cycles // 2, amplitude=n // 10,
                fluctuation=n // 1000,
            )
            experiment = SizeEstimationExperiment(
                config,
                churn=trace,
                backend="vectorized",
                membership=membership,
            )
            experiment.run()
            assert experiment.reports, membership
            errors[membership] = float(
                np.mean([r.relative_error for r in experiment.reports])
            )
        assert errors[None] < 0.05
        assert errors["newscast"] < 0.05
