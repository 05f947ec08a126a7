"""Span wrappers around the program's layers, and the per-layer metrics.

Everything here is installed from outside the program, on its public
names, for one traced repetition, and removed again afterwards:

* :class:`SpanBackend` — a delegating ``ExecutionBackend`` the workload
  hands to ``Scenario(backend=…)``, so every call the engine makes into
  the backend layer is a span;
* :func:`install` — class-level wrappers on public methods of the
  engine, ``CyclePlan``, the partner providers, the invariant monitors,
  ``ChurnTrace`` and the checkpoint functions, and on the segmentation
  and kernel primitives under the names the vectorized backend calls
  them by.

:func:`layer_metrics` turns the recorded spans and counts into the
``per_layer`` metrics ``BENCHMARK.json`` declares. A layer a workload
bypasses reports 0 — that the bypass holds is part of what the traced
run shows.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, List, Optional, Tuple

import repro.kernel.backends.vectorized as vectorized_module
import repro.kernel.engine as engine_module
from repro import SizeEstimationExperiment
from repro.kernel import (
    ChurnTrace,
    CyclePlan,
    ExecutionBackend,
    GossipEngine,
    MassConservationMonitor,
    NewscastProvider,
    OracleProvider,
    Scenario,
    ShardedBackend,
    StructureMonitor,
    VarianceMonotonicityMonitor,
)

from spans import Recorder, Span, coverage, percentile, summarise

#: the vectorized backend's segment kind for a conflicted tail
SEGMENT_SEQUENTIAL = vectorized_module.SEGMENT_SEQUENTIAL


class SpanBackend(ExecutionBackend):
    """Delegates every backend call to ``inner`` inside a span."""

    def __init__(self, inner: ExecutionBackend, recorder: Recorder):
        self.inner = inner
        self._recorder = recorder

    @property
    def name(self) -> str:
        return self.inner.name

    def _spanned(self, span: str, call: Callable, *args, **kwargs):
        recorder = self._recorder
        index = recorder.begin(span)
        try:
            return call(*args, **kwargs)
        finally:
            recorder.end(index)

    def apply_exchanges(self, matrix, functions, exch_i, exch_j, **kwargs):
        return self._spanned(
            "backend.apply", self.inner.apply_exchanges,
            matrix, functions, exch_i, exch_j, **kwargs,
        )

    def apply_pairs(self, matrix, functions, pairs_i, pairs_j, **kwargs):
        return self._spanned(
            "backend.apply", self.inner.apply_pairs,
            matrix, functions, pairs_i, pairs_j, **kwargs,
        )

    def apply_view_exchanges(self, views, exch_i, exch_j):
        self._recorder.count("membership.view_exchanges", len(exch_i))
        return self._spanned(
            "backend.view_apply", self.inner.apply_view_exchanges,
            views, exch_i, exch_j,
        )

    def sync(self):
        return self._spanned("backend.sync", self.inner.sync)

    def adopt_matrix(self, matrix):
        return self._spanned("backend.adopt", self.inner.adopt_matrix, matrix)

    def grow_matrix(self, matrix, rows):
        return self._spanned(
            "backend.grow", self.inner.grow_matrix, matrix, rows
        )

    def allocate_matrix(self, rows, k):
        return self._spanned(
            "backend.adopt", self.inner.allocate_matrix, rows, k
        )

    def restore_matrix(self, matrix, saved):
        return self.inner.restore_matrix(matrix, saved)

    def release_matrix(self, matrix):
        return self.inner.release_matrix(matrix)

    def close(self):
        return self.inner.close()


class Installed:
    """The set of names :func:`install` replaced, for putting back."""

    def __init__(self):
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def names(self) -> List[Tuple[object, str]]:
        return [(owner, attribute) for owner, attribute, _ in self._saved]

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def _span_function(recorder: Recorder, name: str, original: Callable,
                   before: Optional[Callable] = None,
                   after: Optional[Callable] = None) -> Callable:
    """``original`` inside a span; ``before(*args)`` and
    ``after(result, *args)`` take the counts at the same boundary."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args)
        index = recorder.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(index)
        if after is not None:
            after(result, *args)
        return result

    return wrapper


def _span_generator(recorder: Recorder, name: str, original: Callable,
                    on_item: Callable) -> Callable:
    """A generator function whose every resumption is a span, so the
    time the consumer spends between items is not charged to it."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        iterator = original(*args, **kwargs)
        while True:
            index = recorder.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                recorder.end(index)
            on_item(item)
            yield item

    return wrapper


def install(recorder: Recorder) -> Installed:
    """Wrap the program's layer boundaries; returns the handle whose
    ``uninstall()`` restores every replaced name."""
    installed = Installed()
    count = recorder.count

    def method(cls, attribute, name, before=None, after=None):
        installed.replace(cls, attribute, _span_function(
            recorder, name, cls.__dict__[attribute], before, after
        ))

    # -- kernel.engine --------------------------------------------------
    def enter_cycle(engine):
        recorder.cycle = engine.cycle

    method(GossipEngine, "run_cycle", "engine.cycle", before=enter_cycle)
    method(GossipEngine, "variance", "engine.reductions")
    method(GossipEngine, "mean", "engine.reductions")
    method(GossipEngine, "close", "engine.close")
    method(GossipEngine, "checkpoint", "checkpoint.engine")
    restore = GossipEngine.__dict__["restore"].__func__
    installed.replace(GossipEngine, "restore", classmethod(
        _span_function(recorder, "checkpoint.restore", restore)
    ))

    # -- kernel.engine.CyclePlan ---------------------------------------
    method(CyclePlan, "initiators", "plan.initiators")

    def compacted(result, plan, initiators, partners, ok):
        count("plan.candidates", len(ok))
        count("plan.kept", len(result[0]))

    method(CyclePlan, "compact", "plan.compact", after=compacted)

    # -- kernel.membership ---------------------------------------------
    def drew(result, provider, initiators, *rest):
        count("membership.draws", len(initiators))

    for provider in (OracleProvider, NewscastProvider):
        for attribute, name, after in (
            ("begin_cycle", "membership.begin_cycle", None),
            ("draw", "membership.draw", drew),
            ("redraw", "membership.redraw", None),
        ):
            if attribute in provider.__dict__:
                method(provider, attribute, name, after=after)

    # -- kernel.invariants ---------------------------------------------
    for monitor in (MassConservationMonitor, VarianceMonotonicityMonitor,
                    StructureMonitor):
        method(monitor, "observe", "invariants.observe")

    # -- kernel.lifecycle ----------------------------------------------
    def stepped(result, *args):
        count("lifecycle.joins", result.joins)
        count("lifecycle.leaves", result.leaves)

    method(ChurnTrace, "step", "lifecycle.step", after=stepped)

    # -- core.size_estimation: the facade's work is its epoch hooks ------
    build_scenario = SizeEstimationExperiment.__dict__["scenario"]

    @functools.wraps(build_scenario)
    def scenario(experiment):
        return trace_epoch_hooks(build_scenario(experiment), recorder)

    installed.replace(SizeEstimationExperiment, "scenario", scenario)

    # -- kernel.checkpoint, under the names the engine calls ------------
    def wrote(manifest_path, *args):
        count("checkpoint.bytes",
              manifest_path.with_suffix(".npz").stat().st_size)

    for attribute, name, after in (
        ("write_checkpoint", "checkpoint.write", wrote),
        ("read_checkpoint", "checkpoint.read", None),
        ("prune_checkpoints", "checkpoint.prune", None),
    ):
        installed.replace(engine_module, attribute, _span_function(
            recorder, name, engine_module.__dict__[attribute], after=after
        ))

    # -- kernel.backends.base, as bound in the vectorized backend -------
    def segment(item):
        kind, chunk_i, _ = item
        if kind == SEGMENT_SEQUENTIAL:
            count("segment.seq_steps", len(chunk_i))
        else:
            count("segment.batches")
            count("segment.batch_steps", len(chunk_i))
            recorder.sample("segment.batch_width", len(chunk_i))

    installed.replace(
        vectorized_module, "iter_greedy_segments", _span_generator(
            recorder, "segment.plan",
            vectorized_module.iter_greedy_segments, segment,
        ),
    )

    def gathered(matrix, functions, steps_i, steps_j):
        # both endpoint rows are gathered and both scattered back
        count("kernel.bytes", 4 * len(steps_i) * matrix.shape[1] * 8)

    def merged(views, steps_a, steps_b):
        count("kernel.bytes",
              4 * len(steps_a) * views.shape[1] * views.itemsize)

    for attribute, name, before in (
        ("apply_disjoint_batch", "kernel.batch", gathered),
        ("apply_sequential", "kernel.seq", gathered),
        ("merge_views_batch", "kernel.view_batch", merged),
        ("merge_views_sequential", "kernel.view_seq", merged),
    ):
        installed.replace(vectorized_module, attribute, _span_function(
            recorder, name, vectorized_module.__dict__[attribute],
            before=before,
        ))
    return installed


def trace_epoch_hooks(scenario: Scenario, recorder: Recorder) -> Scenario:
    """``scenario`` with its epoch hooks — the size-estimation facade's
    leader election and estimate extraction — inside spans."""
    spec = scenario.epochs
    if spec is None:
        return scenario
    return scenario.replace(epochs=dataclasses.replace(
        spec,
        reseed=_span_function(recorder, "sizeest.facade", spec.reseed),
        finalize=_span_function(recorder, "sizeest.facade", spec.finalize),
    ))


#: per-layer metric name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS: Dict[str, str] = {
    "engine.cycle_s": "s",
    "engine.cycle_self_s": "s",
    "engine.cycle_p50_ms": "ms",
    "engine.cycle_max_ms": "ms",
    "engine.reductions_s": "s",
    "engine.exchanges": "count",
    "engine.exchange_yield": "ratio",
    "engine.close_s": "s",
    "plan.initiators_s": "s",
    "plan.compact_s": "s",
    "plan.compact_calls": "count",
    "plan.kept_ratio": "ratio",
    "membership.begin_cycle_s": "s",
    "membership.draw_s": "s",
    "membership.redraw_s": "s",
    "membership.draws": "count",
    "membership.view_exchanges": "count",
    "backend.apply_s": "s",
    "backend.apply_calls": "count",
    "backend.view_apply_s": "s",
    "backend.view_apply_calls": "count",
    "backend.sync_s": "s",
    "backend.sync_calls": "count",
    "backend.adopt_s": "s",
    "backend.grow_s": "s",
    "segment.plan_s": "s",
    "segment.batches": "count",
    "segment.batch_width_p50": "count",
    "segment.seq_steps": "count",
    "segment.seq_share": "ratio",
    "kernel.batch_s": "s",
    "kernel.seq_s": "s",
    "kernel.view_batch_s": "s",
    "kernel.view_seq_s": "s",
    "kernel.bytes_computed": "B",
    "sharded.plan_s": "s",
    "sharded.apply_s": "s",
    "sharded.sync_s": "s",
    "sharded.workers": "count",
    "pool.outage_s": "s",
    "pool.recovery_s": "s",
    "pool.respawns": "count",
    "pool.detect_by_timeout": "count",
    "messages.partials": "count",
    "messages.duplicates": "count",
    "messages.repairs": "count",
    "messages.retries": "count",
    "messages.giveups": "count",
    "messages.repair_yield": "ratio",
    "invariants.observe_s": "s",
    "invariants.cycles_checked": "count",
    "invariants.max_residual": "mass",
    "invariants.fault_drift": "mass",
    "lifecycle.step_s": "s",
    "lifecycle.joins": "count",
    "lifecycle.leaves": "count",
    "lifecycle.epochs": "count",
    "checkpoint.write_s": "s",
    "checkpoint.writes": "count",
    "checkpoint.bytes": "B",
    "checkpoint.prune_s": "s",
    "checkpoint.restore_s": "s",
    "sizeest.facade_s": "s",
    "sizeest.epochs_reported": "count",
    "answer.rel_error": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / denominator if denominator else 0.0


def engine_readouts(engine: GossipEngine,
                    backends: List[ExecutionBackend]) -> Dict[str, object]:
    """What the program's own public read-outs say about a finished
    repetition: ``engine.epoch``, ``message_fault_stats``,
    ``invariant_report()`` and the undecorated sharded backends'
    ``phase_seconds``. Small plain values, so the engine can be let go."""
    sharded = [b for b in backends if isinstance(b, ShardedBackend)]
    return {
        "epochs": engine.epoch + 1,
        "messages": dict(engine.message_fault_stats),
        "mass": engine.invariant_report().summaries.get("mass", {}),
        "phases": {
            phase: sum(b.phase_seconds[phase] for b in sharded)
            for phase in ("plan", "apply", "sync")
        },
        "workers": sum(b.workers for b in sharded),
    }


def layer_metrics(
    spans: List[Span],
    recorder: Recorder,
    *,
    readouts: Dict[str, object],
    exchanges: int,
    epochs_reported: int,
    rel_error: float,
    traced_run_s: float,
    untraced_run_s: float,
    probe: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every ``per_layer`` metric of one traced repetition.

    ``spans`` covers set-up and run; ``readouts`` is
    :func:`engine_readouts` of the same repetition; ``probe`` is the
    kill probe's result, present on ``service5_shard`` only.
    """
    totals = summarise(spans)
    counts = recorder.counts

    def total(name: str) -> float:
        return totals[name].total if name in totals else 0.0

    def calls(name: str) -> int:
        return totals[name].calls if name in totals else 0

    cycle_ms = [s.duration * 1e3 for s in spans if s.name == "engine.cycle"]
    seq_steps = counts.get("segment.seq_steps", 0)
    batch_steps = counts.get("segment.batch_steps", 0)
    metrics = {
        "engine.cycle_s": total("engine.cycle"),
        "engine.cycle_self_s": (
            totals["engine.cycle"].self_time
            if "engine.cycle" in totals else 0.0
        ),
        "engine.cycle_p50_ms": percentile(cycle_ms, 0.5),
        "engine.cycle_max_ms": max(cycle_ms, default=0.0),
        "engine.reductions_s": total("engine.reductions"),
        "engine.exchanges": exchanges,
        "engine.exchange_yield": _ratio(
            exchanges, counts.get("membership.draws", 0)
        ),
        "engine.close_s": total("engine.close"),
        "plan.initiators_s": total("plan.initiators"),
        "plan.compact_s": total("plan.compact"),
        "plan.compact_calls": calls("plan.compact"),
        "plan.kept_ratio": _ratio(
            counts.get("plan.kept", 0), counts.get("plan.candidates", 0)
        ),
        "membership.begin_cycle_s": total("membership.begin_cycle"),
        "membership.draw_s": total("membership.draw"),
        "membership.redraw_s": total("membership.redraw"),
        "membership.draws": counts.get("membership.draws", 0),
        "membership.view_exchanges": counts.get(
            "membership.view_exchanges", 0
        ),
        "backend.apply_s": total("backend.apply"),
        "backend.apply_calls": calls("backend.apply"),
        "backend.view_apply_s": total("backend.view_apply"),
        "backend.view_apply_calls": calls("backend.view_apply"),
        "backend.sync_s": total("backend.sync"),
        "backend.sync_calls": calls("backend.sync"),
        "backend.adopt_s": total("backend.adopt"),
        "backend.grow_s": total("backend.grow"),
        "segment.plan_s": total("segment.plan"),
        "segment.batches": counts.get("segment.batches", 0),
        "segment.batch_width_p50": percentile(
            recorder.samples.get("segment.batch_width", []), 0.5
        ),
        "segment.seq_steps": seq_steps,
        "segment.seq_share": _ratio(seq_steps, seq_steps + batch_steps),
        "kernel.batch_s": total("kernel.batch"),
        "kernel.seq_s": total("kernel.seq"),
        "kernel.view_batch_s": total("kernel.view_batch"),
        "kernel.view_seq_s": total("kernel.view_seq"),
        "kernel.bytes_computed": counts.get("kernel.bytes", 0),
        "lifecycle.step_s": total("lifecycle.step"),
        "lifecycle.joins": counts.get("lifecycle.joins", 0),
        "lifecycle.leaves": counts.get("lifecycle.leaves", 0),
        "lifecycle.epochs": readouts["epochs"],
        "checkpoint.write_s": total("checkpoint.write"),
        "checkpoint.writes": calls("checkpoint.write"),
        "checkpoint.bytes": counts.get("checkpoint.bytes", 0),
        "checkpoint.prune_s": total("checkpoint.prune"),
        "checkpoint.restore_s": total("checkpoint.restore"),
        "sizeest.facade_s": total("sizeest.facade"),
        "sizeest.epochs_reported": epochs_reported,
        "answer.rel_error": rel_error,
        "trace.overhead_ratio": _ratio(traced_run_s, untraced_run_s),
        "trace.coverage": coverage(spans, "run"),
    }

    phases = readouts["phases"]
    metrics.update({
        "sharded.plan_s": phases["plan"],
        "sharded.apply_s": phases["apply"],
        "sharded.sync_s": phases["sync"],
        "sharded.workers": readouts["workers"],
    })
    probe = probe or {}
    for key in ("pool.outage_s", "pool.recovery_s", "pool.respawns",
                "pool.detect_by_timeout"):
        metrics[key] = probe.get(key, 0)

    stats = readouts["messages"]
    for key in ("partials", "duplicates", "repairs", "retries", "giveups"):
        metrics[f"messages.{key}"] = stats[key]
    metrics["messages.repair_yield"] = _ratio(
        stats["repairs"], stats["partials"]
    )
    mass = readouts["mass"]
    metrics.update({
        "invariants.observe_s": total("invariants.observe"),
        "invariants.cycles_checked": mass.get("cycles_checked", 0),
        "invariants.max_residual": mass.get("max_residual", 0.0),
        "invariants.fault_drift": abs(mass.get("fault_drift", 0.0)),
    })
    if set(metrics) != set(LAYER_UNITS):
        raise RuntimeError(
            f"per-layer metrics out of step with LAYER_UNITS: "
            f"{sorted(set(metrics) ^ set(LAYER_UNITS))}"
        )
    return {name: float(metrics[name]) for name in LAYER_UNITS}
