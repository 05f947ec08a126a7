"""Command-line interface: regenerate paper artifacts from the shell.

Usage::

    python -m repro rates                 # T1: the §3.3 rate table
    python -m repro figure3a              # Figure 3(a) series
    python -m repro figure3a --n 100000 --backend vectorized
                                          # Figure 3 point at paper scale
    python -m repro figure3a --n 100000 --topology regular20 --backend vectorized
                                          # sparse-overlay series, paper scale
    python -m repro figure3a --n 1000000 --backend sharded --workers 4
                                          # million-node Figure 3 point
    python -m repro figure4 --cycles 300  # Figure 4, scaled down
    python -m repro figure4 --n 100000 --backend vectorized
                                          # Figure 4 at paper scale
    python -m repro figure4 --n 1000000 --backend sharded --cycles 60
                                          # million-node Figure 4
    python -m repro monitor --n 2000      # monitoring service demo
    python -m repro scale --n 100000      # kernel backend comparison
    python -m repro scale --n 1000000 --backend vectorized,sharded:4
                                          # single- vs multi-process at 1M
    python -m repro robustness            # adversary sweep, small default
    python -m repro robustness --n 100000 --backend vectorized --svg out.svg
                                          # robustness report at paper scale
    python -m repro robustness --config sweep.json
                                          # declarative scenario matrix
    python -m repro robustness --messages --loss-rates 0,0.1 --retry none,retransmit
                                          # message-fault degradation sweep

Each subcommand prints the same rows the corresponding benchmark
archives, with small default sizes so it completes in seconds.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from typing import List, Optional

import numpy as np

from .analysis import (
    MessageFaultSweep,
    RobustnessSweep,
    Table,
    render_message_fault_svg,
    render_robustness_svg,
    replicate,
)
from .avg import (
    convergence_rate,
    empirical_reduction_rates,
    geometric_mean_reduction,
)
from .core import SizeEstimationConfig, SizeEstimationExperiment
from .core.service import service_report, service_scenario
from .errors import BackendSpecError
from .kernel import (
    PAIR_SELECTOR_NAMES,
    CheckpointSpec,
    GossipEngine,
    PairProtocolSpec,
    Scenario,
    parse_backend_spec,
    run_scenario,
)
from .kernel.backends.sharded import POOL_FAILURE_MODES
from .kernel.lifecycle import ChurnTrace
from .kernel.membership import MEMBERSHIP_NAMES
from .kernel.messages import exchange_loss
from .rng import make_rng
from .topology import CompleteTopology, RandomRegularTopology

#: ``scale --backend`` aliases expanding to comparison lists
_SCALE_ALIASES = {
    "both": ("reference", "vectorized"),
    "all": ("reference", "vectorized", "sharded"),
}


def _backend_arg(value: str) -> str:
    """argparse type for ``--backend``: any valid backend spec,
    including ``sharded:<workers>`` (replaces the old closed choices
    list). Unknown or malformed specs surface the full list of valid
    forms instead of a bare failure."""
    try:
        parse_backend_spec(value, allow_auto=True)
    except BackendSpecError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return value


def _scale_backend_arg(value: str) -> str:
    """``scale --backend``: an alias (``both``/``all``) or a
    comma-separated list of backend specs."""
    if value in _SCALE_ALIASES:
        return value
    for spec in value.split(","):
        _backend_arg(spec)
    return value


def _workers_arg(value: str) -> object:
    """argparse type for ``--workers``: a positive integer or
    ``auto`` (resolve from CPU affinity, with the small-matrix inline
    fallback)."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        ) from None


def _add_backend_options(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--backend", type=_backend_arg, default="auto", metavar="SPEC",
        help="kernel execution backend: auto, reference, vectorized, "
             "sharded, sharded:<workers> or sharded:auto",
    )
    command.add_argument(
        "--workers", type=_workers_arg, default="auto", metavar="W",
        help="worker count for --backend sharded: a positive integer "
             "(shorthand for --backend sharded:<W>) or 'auto' (the "
             "default: one worker per schedulable core, inline "
             "in-process execution on small networks; ignored unless "
             "the backend is sharded)",
    )
    command.add_argument(
        "--on-pool-failure", choices=list(POOL_FAILURE_MODES),
        default=None, metavar="MODE",
        help="what a sharded pool failure does (sets "
             "REPRO_SHARD_ON_FAILURE): 'raise' fails fast (the "
             "default) and the backend stays failed, 'respawn' "
             "replays the in-flight work inline and forks new "
             "workers at the next schedule, twice, then degrades to "
             "in-process execution — the run always finishes, "
             "bitwise-identically",
    )


def _resolve_backend(parser: argparse.ArgumentParser,
                     args: argparse.Namespace) -> None:
    """Fold ``--workers`` into the backend spec in ``args.backend``.

    The ``auto`` default only ever annotates a bare ``sharded``
    backend (``sharded`` → ``sharded:auto``); for every other backend
    it is inert, so ``--backend vectorized`` works without spelling
    ``--workers`` out. Explicit integer counts keep strict validation.
    """
    mode = getattr(args, "on_pool_failure", None)
    if mode is not None:
        # env-based so the policy reaches every ShardedBackend the run
        # constructs, however deep (experiments build their own)
        os.environ["REPRO_SHARD_ON_FAILURE"] = mode
    workers = getattr(args, "workers", None)
    if workers is None:
        return
    backend = args.backend
    if workers == "auto":
        if backend in _SCALE_ALIASES or "," in backend:
            return
        base, spec_workers = parse_backend_spec(backend, allow_auto=True)
        if base == "sharded" and spec_workers is None:
            args.backend = "sharded:auto"
        return
    if backend in _SCALE_ALIASES or "," in backend:
        parser.error("--workers applies to a single sharded backend, "
                     "not a comparison list; use sharded:<W> instead")
    base, spec_workers = parse_backend_spec(backend, allow_auto=True)
    if base != "sharded":
        parser.error(f"--workers requires --backend sharded "
                     f"(got --backend {backend})")
    if spec_workers is not None:
        parser.error("pass either --backend sharded:<W> or --workers W, "
                     "not both")
    if workers < 1:
        parser.error(f"--workers must be a positive integer, got {workers}")
    args.backend = f"sharded:{workers}"


def _avg_variances(topology, selector, cycles, rng, backend):
    """The variance trajectory of one AVG run from N(0, 1) values."""
    scenario = Scenario(
        topology,
        make_rng(rng).normal(0.0, 1.0, size=topology.n),
        pair_protocol=PairProtocolSpec(selector),
        cycles=cycles,
        seed=rng,
        backend=backend,
    )
    return run_scenario(scenario).variance_array("avg")


def _cmd_rates(args: argparse.Namespace) -> int:
    topology = CompleteTopology(args.n)
    table = Table(
        headers=["getPair", "empirical", "theory"],
        title=f"Per-cycle variance reduction rates, N={args.n}",
    )
    for name in PAIR_SELECTOR_NAMES:
        def one_run(rng, name=name):
            return geometric_mean_reduction(_avg_variances(
                topology, name, args.cycles, rng, args.backend
            ))

        rates = replicate(one_run, runs=args.runs, seed=1).outputs
        table.add_row(name, float(np.mean(rates)), convergence_rate(name))
    print(table.render())
    return 0


def _cmd_figure3a(args: argparse.Namespace) -> int:
    label = args.topology
    table = Table(
        headers=["N", f"rand/{label}", f"seq/{label}"],
        title="Figure 3(a): variance reduction after one AVG execution",
    )
    sizes = (100, 316, 1000, 3162) if args.n is None else (args.n,)
    for n in sizes:
        if args.topology == "regular20":
            if n <= 20:
                raise SystemExit(
                    f"--topology regular20 needs n > 20, got {n}"
                )
            topology = RandomRegularTopology(n, 20, seed=n)
        else:
            topology = CompleteTopology(n)
        row = [n]
        for name in ("rand", "seq"):
            def one_run(rng, name=name):
                return empirical_reduction_rates(_avg_variances(
                    topology, name, 1, rng, args.backend
                ))[0]

            row.append(
                float(np.mean(replicate(one_run, runs=args.runs, seed=n).outputs))
            )
        table.add_row(*row)
    print(table.render())
    return 0


def _figure4_churn(args: argparse.Namespace):
    """The churn for ``figure4 --churn-trace``, replayed from per-cycle
    join/leave counts (:class:`~repro.kernel.ChurnTrace`)."""
    n, cycles = args.n, args.cycles
    period = max(cycles // 2, 2)
    fluctuation = max(n // 1000, 1)
    kind = args.churn_trace
    if kind == "diurnal":
        return ChurnTrace.diurnal(
            n, cycles, period=period, amplitude=n // 10,
            fluctuation=fluctuation,
        )
    if kind == "flash":
        # quiet background turnover + a crowd of N/2 landing a third of
        # the way in, decaying over roughly one epoch
        base = ChurnTrace.diurnal(
            n, cycles, period=period, amplitude=0, fluctuation=fluctuation
        )
        crowd = ChurnTrace.flash_crowd(
            cycles, at=max(cycles // 3, 1), size=n // 2,
            mean_stay=float(max(args.epoch, 2)), seed=args.seed,
        )
        return base.overlay(crowd)
    if kind == "sessions":
        # heavy turnover: sessions last ~2 epochs, arrivals sized to
        # keep the population near N in steady state
        mean_session = 2.0 * max(args.epoch, 1)
        return ChurnTrace.sessions(
            cycles, arrivals_per_cycle=n / mean_session,
            mean_session=mean_session, seed=args.seed,
        )
    raise ValueError(f"unknown churn trace {kind!r}")


def _cmd_figure4(args: argparse.Namespace) -> int:
    config = SizeEstimationConfig(
        cycles=args.cycles,
        cycles_per_epoch=args.epoch,
        initial_size=args.n,
        seed=args.seed,
    )
    experiment = SizeEstimationExperiment(
        config, churn=_figure4_churn(args), backend=args.backend,
        membership=args.membership,
    )
    checkpoint = None
    if args.checkpoint_dir is not None:
        checkpoint = CheckpointSpec(
            directory=args.checkpoint_dir,
            every_cycles=args.checkpoint_every,
            keep=3,
        )
    start = time.perf_counter()
    if args.resume is not None:
        experiment.resume(args.resume, checkpoint=checkpoint)
        mode = "resumed"
    else:
        experiment.run(checkpoint=checkpoint)
        mode = "ran"
    elapsed = time.perf_counter() - start
    table = Table(
        headers=["end cycle", "actual@start", "estimate", "rel. error"],
        title=(
            f"Figure 4: size estimation under churn, N={args.n} "
            f"({args.churn_trace} churn, {args.membership} membership, "
            f"{experiment.backend_name} backend, {mode} in {elapsed:.1f}s)"
        ),
    )
    for report in experiment.reports:
        table.add_row(
            report.end_cycle,
            report.size_at_start,
            report.estimate_mean,
            report.relative_error,
        )
    print(table.render())
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    """Run one kernel scenario per requested backend and compare."""
    values = make_rng(args.seed).normal(10.0, 4.0, args.n)
    topology = CompleteTopology(args.n)
    backends = _SCALE_ALIASES.get(args.backend, tuple(args.backend.split(",")))
    table = Table(
        headers=["backend", "cycles", "seconds", "final variance"],
        title=f"Gossip kernel backends, N={args.n} (same seed, same draws)",
    )
    for backend in backends:
        scenario = Scenario(
            topology,
            values,
            message_faults=exchange_loss(args.loss),
            cycles=args.cycles,
            seed=args.seed,
            backend=backend,
        )
        with GossipEngine(scenario) as engine:
            start = time.perf_counter()
            result = engine.run(record="end")
            elapsed = time.perf_counter() - start
        table.add_row(
            engine.backend_name if backend == "auto" else backend,
            args.cycles,
            elapsed,
            result.variance_array()[-1],
        )
    print(table.render())
    return 0


def _load_sweep_config(path: str) -> dict:
    """Parse a declarative sweep config: JSON always, YAML when PyYAML
    is importable (the file formats are interchangeable — the mapping
    feeds the sweep's ``from_mapping`` either way)."""
    import json

    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        mapping = json.loads(text)
    except ValueError:
        try:
            import yaml
        except ImportError:
            raise SystemExit(
                f"{path} is not JSON and PyYAML is not installed; "
                f"provide a JSON config or install pyyaml"
            ) from None
        mapping = yaml.safe_load(text)
    if not isinstance(mapping, dict):
        raise SystemExit(f"{path} must hold a mapping, got {type(mapping).__name__}")
    return mapping


def _float_list(value: str) -> tuple:
    return tuple(float(part) for part in value.split(","))


def _str_list(value: str) -> tuple:
    return tuple(value.split(","))


#: ``repro robustness`` flags that set a sweep field, as (flag, field,
#: type, metavar, help)
_SWEEP_FLAGS = (
    ("--n", "n", int, None, "network size (default 2000 without --config)"),
    ("--runs", "runs", int, None, None),
    ("--cycles", "cycles", int, None, None),
    ("--epoch", "cycles_per_epoch", int, None,
     "cycles per epoch in churn cells"),
    ("--value", "value", float, None, "the injected / reported lie value"),
    ("--seed", "seed", int, None, None),
    ("--fractions", "fractions", _float_list, "F,F,...",
     "adversary fractions (default 0,0.05,0.1,0.2)"),
    ("--churn-rates", "churn_rates", _float_list, "R,R,...",
     "per-cycle churn rates as fractions of N (default 0,0.01)"),
    ("--kinds", "kinds", _str_list, "K,K,...",
     "adversary kinds (default lying,inject)"),
    ("--topologies", "topologies", _str_list, "T,T,...",
     "overlays for static cells (default complete,regular20)"),
    ("--loss-rates", "loss_rates", _float_list, "P,P,...",
     "[--messages] loss rates (default 0,0.02,0.05,0.1,0.2)"),
    ("--retry", "policies", _str_list, "POLICY,POLICY,...",
     "[--messages] retry policies (default none,retransmit,redraw,"
     "push_only)"),
    ("--directions", "directions", _str_list, "D,D,...",
     "[--messages] loss directions (default request,reply)"),
    ("--duplication", "duplication", float, None,
     "[--messages] per-reply duplication probability (default 0)"),
)

#: per sweep: its quick-look config (the full grid in seconds), the
#: table title, the table's (header, row key) columns and its figure
_SWEEPS = {
    RobustnessSweep: (
        {"n": 2000, "runs": 2, "cycles": 25, "cycles_per_epoch": 25},
        "Robustness report: size-estimation error, N={n}, "
        "{runs} runs/cell ({elapsed:.1f}s)",
        (("kind", "kind"), ("topology", "topology"),
         ("churn", "churn_rate"), ("fraction", "fraction"),
         ("err(mean)", "error_mean"), ("err(median)", "error_median"),
         ("err(trimmed)", "error_trimmed")),
        render_robustness_svg,
    ),
    MessageFaultSweep: (
        {"n": 2000, "runs": 2, "cycles": 25,
         "loss_rates": (0.0, 0.05, 0.1)},
        "Message-fault degradation: N={n}, {cycles} cycles, "
        "{runs} runs/cell ({elapsed:.1f}s)",
        (("direction", "direction"), ("policy", "policy"),
         ("loss", "loss_rate"), ("conv.factor", "convergence_factor"),
         ("drift/node", "drift_per_node"),
         ("±band", "drift_per_node_band"), ("repairs", "repairs"),
         ("giveups", "giveups")),
        render_message_fault_svg,
    ),
}


def _cmd_robustness(args: argparse.Namespace) -> int:
    """The declarative scenario-matrix sweep: estimation error vs
    adversary fraction × churn rate × topology. ``--messages`` switches
    to the message-fault degradation sweep: convergence factor and
    attributed mass drift vs loss rate × direction × retry policy. A
    flag the chosen sweep has no field for is a usage error."""
    sweep_type = MessageFaultSweep if args.messages else RobustnessSweep
    quick_look, title, columns, render = _SWEEPS[sweep_type]
    mapping = _load_sweep_config(args.config) if args.config else quick_look
    known = {field.name for field in dataclasses.fields(sweep_type)}
    overrides = {}
    for flag, key, *_ in _SWEEP_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        if key not in known:
            args.usage_error(
                f"{flag} does not apply to the {sweep_type.label}"
            )
        overrides[key] = value
    if args.backend != "auto":
        overrides["backend"] = args.backend
    sweep = dataclasses.replace(sweep_type.from_mapping(mapping), **overrides)
    start = time.perf_counter()
    payload = sweep.run()
    elapsed = time.perf_counter() - start
    table = Table(
        headers=[header for header, _ in columns],
        title=title.format(elapsed=elapsed, **payload),
    )
    for row in payload["rows"]:
        table.add_row(*(row[key] for _, key in columns))
    print(table.render())
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(render(payload))
        print(f"figure written to {args.svg}")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    topology = RandomRegularTopology(args.n, 20, seed=args.seed)
    values = rng.lognormal(3.0, 0.7, args.n)
    scenario = service_scenario(
        topology, values, cycles=args.cycles, seed=args.seed,
        backend=args.backend,
    )
    with GossipEngine(scenario) as engine:
        engine.run(record="end")
        report = service_report(engine)
    table = Table(
        headers=["aggregate", "estimate", "ground truth"],
        title=f"AggregationService over a 20-regular overlay, N={args.n}",
    )
    table.add_row("mean", report.mean, float(values.mean()))
    table.add_row("max", report.maximum, float(values.max()))
    table.add_row("min", report.minimum, float(values.min()))
    table.add_row("network size", report.network_size, args.n)
    table.add_row("total", report.total, float(values.sum()))
    table.add_row("value variance", report.value_variance, float(values.var()))
    print(table.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Anti-entropy aggregation (Jelasity & Montresor 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rates = sub.add_parser("rates", help="the Section 3.3 rate table")
    rates.add_argument("--n", type=int, default=1000)
    rates.add_argument("--runs", type=int, default=5)
    rates.add_argument("--cycles", type=int, default=12)
    _add_backend_options(rates)
    rates.set_defaults(func=_cmd_rates)

    f3a = sub.add_parser("figure3a", help="Figure 3(a) series")
    f3a.add_argument("--runs", type=int, default=8)
    f3a.add_argument(
        "--n", type=int, default=None,
        help="single network size (default: the 100..3162 series)",
    )
    _add_backend_options(f3a)
    f3a.add_argument(
        "--topology", choices=["complete", "regular20"], default="complete",
        help="overlay for the series: the complete graph or the paper's "
             "20-regular random overlay (needs n > 20)",
    )
    f3a.set_defaults(func=_cmd_figure3a)

    f4 = sub.add_parser("figure4", help="Figure 4, any scale")
    f4.add_argument("--n", type=int, default=2000)
    f4.add_argument("--cycles", type=int, default=300)
    f4.add_argument("--epoch", type=int, default=30,
                    help="cycles per epoch")
    f4.add_argument("--seed", type=int, default=4)
    f4.add_argument(
        "--membership", choices=list(MEMBERSHIP_NAMES), default="oracle",
        help="partner-draw layer: the idealized uniform oracle or "
             "Newscast partial views (no global oracle anywhere)",
    )
    f4.add_argument(
        "--churn-trace",
        choices=["diurnal", "flash", "sessions"],
        default="diurnal",
        help="churn workload replayed from per-cycle join+leave "
             "counts: Figure 4's diurnal wave, a flash crowd, or a "
             "session workload",
    )
    f4.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write periodic checkpoints here (atomic npz + manifest); "
             "the run becomes resumable after a crash or SIGKILL",
    )
    f4.add_argument(
        "--checkpoint-every", type=int, default=10, metavar="CYCLES",
        help="cycles between checkpoints when --checkpoint-dir is set",
    )
    f4.add_argument(
        "--resume", default=None, metavar="CHECKPOINT",
        help="resume from a checkpoint manifest (or a directory, which "
             "picks the newest intact checkpoint) instead of starting "
             "from cycle 0; runs the remaining cycles bitwise-identically",
    )
    _add_backend_options(f4)
    f4.set_defaults(func=_cmd_figure4)

    monitor = sub.add_parser("monitor", help="monitoring service demo")
    monitor.add_argument("--n", type=int, default=1000)
    monitor.add_argument("--cycles", type=int, default=30)
    monitor.add_argument("--seed", type=int, default=9)
    _add_backend_options(monitor)
    monitor.set_defaults(func=_cmd_monitor)

    scale_cmd = sub.add_parser(
        "scale", help="time the kernel backends on one scenario"
    )
    scale_cmd.add_argument("--n", type=int, default=100000)
    scale_cmd.add_argument("--cycles", type=int, default=10)
    scale_cmd.add_argument("--loss", type=float, default=0.0)
    scale_cmd.add_argument("--seed", type=int, default=11)
    scale_cmd.add_argument(
        "--backend", type=_scale_backend_arg, default="both", metavar="SPEC",
        help="backend spec, a comma-separated comparison list "
             "(e.g. vectorized,sharded:4), 'both' (reference+vectorized) "
             "or 'all' (adds sharded)",
    )
    scale_cmd.add_argument(
        "--workers", type=_workers_arg, default="auto", metavar="W",
        help="worker count for --backend sharded: a positive integer "
             "or 'auto' (the default)",
    )
    scale_cmd.set_defaults(func=_cmd_scale)

    robustness = sub.add_parser(
        "robustness",
        help="adversary sweep: estimation error vs fraction × churn × "
             "topology",
    )
    robustness.add_argument(
        "--config", default=None, metavar="PATH",
        help="declarative sweep config (JSON, or YAML with pyyaml); "
             "explicit flags override its keys",
    )
    robustness.add_argument(
        "--messages", action="store_true",
        help="run the message-fault degradation sweep instead "
             "(convergence factor + mass drift vs loss rate × retry "
             "policy)",
    )
    for flag, _, kind, metavar, text in _SWEEP_FLAGS:
        robustness.add_argument(flag, type=kind, metavar=metavar, help=text)
    robustness.add_argument(
        "--svg", default=None, metavar="PATH",
        help="write the robustness-report figure to PATH",
    )
    _add_backend_options(robustness)
    robustness.set_defaults(
        func=_cmd_robustness, usage_error=robustness.error
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _resolve_backend(parser, args)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
