"""Checks of the benchmark itself: ``pytest benchmarks/perf``.

Outside tier-1's ``testpaths`` on purpose — these test the measuring
instrument, not the program, and the smoke passes start subprocesses.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import tracing  # noqa: E402
from spans import Span  # noqa: E402


# -- span arithmetic -----------------------------------------------------

# run [0, 10]
#   cycle [1, 5]
#     apply [2, 4]
#       batch [2.5, 3.5]
#   cycle [5, 9]
#     apply [6, 7]
#   (1 s before the first cycle and 1 s after the last are uncovered)
SYNTHETIC = [
    Span("run", 0.0, 10.0, -1, -1),
    Span("cycle", 1.0, 5.0, 0, 0),
    Span("apply", 2.0, 4.0, 1, 0),
    Span("batch", 2.5, 3.5, 2, 0),
    Span("cycle", 5.0, 9.0, 0, 1),
    Span("apply", 6.0, 7.0, 4, 1),
]


def test_self_time_is_duration_minus_direct_children():
    assert spans.self_times(SYNTHETIC) == [2.0, 2.0, 1.0, 1.0, 3.0, 1.0]


def test_self_times_add_up_to_the_root():
    assert sum(spans.self_times(SYNTHETIC)) == SYNTHETIC[0].duration


def test_summarise_groups_by_name():
    totals = spans.summarise(SYNTHETIC)
    assert totals["cycle"] == spans.Totals(calls=2, total=8.0, self_time=5.0)
    assert totals["apply"] == spans.Totals(calls=2, total=3.0, self_time=2.0)
    assert totals["batch"].calls == 1


def test_coverage_is_the_share_of_the_root_that_children_explain():
    assert spans.coverage(SYNTHETIC, "run") == pytest.approx(0.8)
    assert spans.coverage(SYNTHETIC, "absent") == 0.0


def test_coverage_ignores_spans_outside_the_root():
    with_setup = [Span("setup", -5.0, -1.0, -1, -1)] + [
        Span(s.name, s.start, s.end, s.parent + 1 if s.parent >= 0 else -1,
             s.cycle)
        for s in SYNTHETIC
    ]
    assert spans.coverage(with_setup, "run") == pytest.approx(0.8)


def test_uncovered_gaps_name_their_neighbours():
    gaps = spans.uncovered_gaps(SYNTHETIC, "run")
    assert gaps[0].startswith("1.0000 s between ")
    assert any("start and cycle" in gap for gap in gaps)
    assert any("cycle and end" in gap for gap in gaps)


def test_recorder_nests_and_stamps_cycles():
    ticks = iter(range(100))
    recorder = spans.Recorder(clock=lambda: float(next(ticks)))
    outer = recorder.begin("outer")
    recorder.cycle = 7
    inner = recorder.begin("inner")
    recorder.end(inner)
    recorder.end(outer)
    first, second = recorder.spans
    assert (first.name, first.parent, first.cycle) == ("outer", -1, -1)
    assert (second.name, second.parent, second.cycle) == ("inner", 0, 7)
    assert first.start < second.start < second.end < first.end


def test_recorder_closes_spans_an_exception_skipped():
    ticks = iter(range(100))
    recorder = spans.Recorder(clock=lambda: float(next(ticks)))
    outer = recorder.begin("outer")
    recorder.begin("abandoned")
    recorder.end(outer)
    assert [s.end for s in recorder.spans] == [2.0, 2.0]
    assert recorder.begin("next") == 2
    assert recorder.spans[2].parent == -1


def test_percentile_is_nearest_rank():
    assert spans.percentile([], 0.5) == 0.0
    assert spans.percentile([3, 1, 2], 0.5) == 2
    assert spans.percentile([1, 2, 3, 4], 1.0) == 4


# -- wrappers ------------------------------------------------------------


def test_install_then_uninstall_restores_every_name():
    recorder = spans.Recorder()
    installed = tracing.install(recorder)
    names = installed.names()
    before = {
        (owner, attribute): owner.__dict__[attribute]
        for owner, attribute in names
    }
    assert len(names) >= 20
    installed.uninstall()
    for owner, attribute in names:
        assert owner.__dict__[attribute] is not before[(owner, attribute)]

    # a second install sees the originals again, and puts them back
    originals = {key: key[0].__dict__[key[1]] for key in before}
    again = tracing.install(recorder)
    assert again.names() == names
    again.uninstall()
    for owner, attribute in names:
        assert owner.__dict__[attribute] is originals[(owner, attribute)]


def test_wrapped_engine_records_spans_and_same_answer():
    import workloads

    workload = workloads.by_name("lossy_retry", smoke=True)

    def final_digest(wrap=workloads.unwrapped):
        prepared = workload.setup(5, wrap)
        outcome = workload.run(prepared)
        return workload.answer(prepared, outcome).digest

    plain = final_digest()
    recorder = spans.Recorder()
    installed = tracing.install(recorder)
    try:
        traced = final_digest(
            lambda backend: tracing.SpanBackend(backend, recorder)
        )
    finally:
        installed.uninstall()
    assert traced == plain
    names = {span.name for span in recorder.spans}
    assert {"engine.cycle", "backend.apply", "segment.plan", "kernel.batch",
            "membership.draw", "plan.compact", "invariants.observe",
            "engine.reductions"} <= names
    cycles = {s.cycle for s in recorder.spans if s.name == "backend.apply"}
    assert cycles == set(range(workload.cycles))


# -- the declared metrics ------------------------------------------------


def test_benchmark_json_matches_the_code():
    assert list(run.PER_LAYER) == list(tracing.LAYER_UNITS)
    for name, declared in run.PER_LAYER.items():
        assert declared["unit"] == tracing.LAYER_UNITS[name]
    assert "setup_s" in run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in run.END_TO_END.values())
    assert run.SPEC["paths"] == ["benchmarks/perf"]


def _smoke(tmp_path: Path, *flags: str) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--reps", "1",
         "--out", str(tmp_path), *flags],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    (path,) = tmp_path.glob("*seed2004.json")
    return json.loads(path.read_text())


def test_smoke_run_produces_every_end_to_end_metric(tmp_path):
    produced = _smoke(tmp_path)
    assert [r["workload"] for r in produced["results"]] == run.WORKLOADS
    for result in produced["results"]:
        assert result["failed"] == 0, result["problems"]
        assert set(result["end_to_end"]) == set(run.END_TO_END)
        assert run.contract_line(result, trace=0) is not None
    by_name = {r["workload"]: r for r in produced["results"]}
    assert (by_name["service5_shard"]["digest"]
            == by_name["service5_vec"]["digest"])
    assert produced["header"]["seed"] == 2004


def test_smoke_trace_produces_every_per_layer_metric(tmp_path):
    produced = _smoke(tmp_path, "--trace")
    by_name = {r["workload"]: r for r in produced["results"]}
    for result in produced["results"]:
        assert result["failed"] == 0, result["problems"]
        assert set(result["per_layer"]) == set(run.PER_LAYER)
        assert result["per_layer"]["trace.coverage"] >= 0.9
    # the predicted bypasses
    for name, layers in by_name.items():
        layers = layers["per_layer"]
        # ckpt_resume runs the service5 scenario too
        assert (layers["plan.compact_calls"] == 0) == (
            name.startswith("service5") or name == "ckpt_resume"
        )
        assert (layers["checkpoint.writes"] > 0) == (name == "ckpt_resume")
        assert (layers["membership.view_exchanges"] > 0) == (
            name == "fig4_newscast"
        )
        assert (layers["sharded.workers"] > 0) == (name == "service5_shard")
        assert (layers["messages.partials"] > 0) == (name == "lossy_retry")
    assert by_name["service5_shard"]["per_layer"]["pool.respawns"] >= 1
    assert (tmp_path / "spans-fig4_churn.json").is_file()


# -- the validity gate ---------------------------------------------------


def _rep(index, digest="d", problems=()):
    return {"event": "rep", "index": index, "setup_s": 0.1, "run_s": 1.0,
            "cpu_s": 1.0, "calibration_s": run.REFERENCE_CALIBRATION_S,
            "digest": digest, "rel_error": 0.01,
            "convergence_factor": 0.3, "exchanges": 10,
            "counts": {"exchanges": 10}, "problems": list(problems)}


def _raw(events, **overrides):
    raw = {"events": [{"event": "start", "n": 1, "cycles": 1, "workers": 2}]
           + events, "stopped": None, "exit_code": 0, "leaks": []}
    raw.update(overrides)
    return raw


def _begin(index):
    return {"event": "begin", "index": index}


def test_gate_passes_agreeing_repetitions():
    result = run.gate("w", _raw([
        _begin(0), _rep(0), _begin(1), _rep(1),
        {"event": "rss", "peak_rss_mib": 5.0},
        {"event": "reference", "digest": None},
    ]))
    assert (result["attempted"], result["failed"]) == (2, 0)
    assert result["end_to_end"]["run_s"]["value"] == 1.0
    assert result["end_to_end"]["exchanges_per_s"]["value"] == 10.0


def test_gate_reports_the_fastest_reading_at_the_reference_host_speed():
    slow_host = 2 * run.REFERENCE_CALIBRATION_S
    result = run.gate("w", _raw([
        _begin(0), dict(_rep(0), run_s=3.0, calibration_s=3 * slow_host),
        _begin(1), dict(_rep(1), run_s=2.0, calibration_s=slow_host),
    ]))
    run_s = result["end_to_end"]["run_s"]
    assert (run_s["min"], run_s["median"]) == (2.0, 2.5)
    # the host ran the calibration kernel at half the reference speed
    assert run_s["value"] == pytest.approx(1.0)
    assert result["end_to_end"]["exchanges_per_s"]["value"] == (
        pytest.approx(10.0)
    )


def test_gate_counts_each_kind_of_failure():
    differing = run.gate("w", _raw([
        _begin(0), _rep(0), _begin(1), _rep(1, digest="other"),
    ]))
    assert differing["failed"] == 1

    against_reference = run.gate("w", _raw([
        _begin(0), _rep(0), {"event": "reference", "digest": "ref"},
    ]))
    assert against_reference["failed"] == 1

    inaccurate = run.gate("w", _raw([
        _begin(0), _rep(0, problems=["rel_error 1 above 0.05"]),
    ]))
    assert inaccurate["failed"] == 1

    hung = run.gate("w", _raw(
        [_begin(0), _rep(0), _begin(1)],
        stopped="no report within 60 s", exit_code=-9,
    ))
    assert (hung["attempted"], hung["failed"]) == (2, 1)
    assert "no report within 60 s" in hung["problems"][0]

    leaking = run.gate("w", _raw(
        [_begin(0), _rep(0)], leaks=["/dev/shm segments left behind: ['x']"],
    ))
    assert leaking["failed"] == 1


def test_compare_refuses_files_from_different_hosts(tmp_path, capsys):
    header = run.host_header(2004)
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps({"header": header, "results": []}))
    other = dict(header, cores=header["cores"] + 1, commit="another")
    new.write_text(json.dumps({"header": other, "results": []}))
    assert run.compare_files(str(old), str(new)) == 2
    assert "refusing to compare" in capsys.readouterr().out
    # a different commit alone is what comparisons are for
    new.write_text(json.dumps(
        {"header": dict(header, commit="another"), "results": []}
    ))
    assert run.compare_files(str(old), str(new)) == 0


def test_worse_by_follows_the_metric_direction():
    lower = {"better": "lower"}
    higher = {"better": "higher"}
    assert run.worse_by(lower, 1.0, 1.1) == pytest.approx(0.1)
    assert run.worse_by(lower, 1.0, 0.9) == pytest.approx(-0.1)
    assert run.worse_by(higher, 100.0, 90.0) == pytest.approx(0.1)
