"""The six pinned workloads.

Each workload builds its inputs from a seed, sets an engine up
(``setup`` — what ``setup_s`` pays for), runs it to completion and
releases it (``run`` — what ``run_s`` and ``cpu_s`` pay for), and then
reads the answer a user would get out of the finished engine
(``answer`` — untimed). Only the public ``repro`` API is used, so the
program can be refactored underneath without touching this file.

Sizes are pinned here, small enough that a workload's arrays stay in
the cache levels the host does not share out: at N = 1M the same code
is timed by the neighbours' memory traffic (its fastest repetition
moves by 12-22 % from one 10 s window to the next). Dividing N for
``--smoke`` is the only knob.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import (
    CompleteTopology,
    GossipEngine,
    Scenario,
    SizeEstimationConfig,
    SizeEstimationExperiment,
    make_rng,
)
from repro.core import (
    MaxAggregate,
    MeanAggregate,
    MinAggregate,
    MultiAggregateSpec,
    moment_values,
)
from repro.kernel import (
    CheckpointSpec,
    ChurnTrace,
    ExecutionBackend,
    MessageFaultSpec,
    NewscastSpec,
    RetrySpec,
    ShardedBackend,
    VectorizedBackend,
    latest_checkpoint,
)

#: where checkpoints land — inside the checkout, never in /tmp
SCRATCH = Path(__file__).resolve().parent / "out"

BackendWrap = Callable[[ExecutionBackend], ExecutionBackend]


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def shard_workers() -> int:
    """Pool size of ``service5_shard``: never more workers than the
    load generator leaves cores for."""
    return min(2, usable_cores())


def unwrapped(backend: ExecutionBackend) -> ExecutionBackend:
    """The default ``wrap``: hand the engine the backend as it is."""
    return backend


def digest(*arrays: Optional[np.ndarray]) -> str:
    """sha256 over the bytes of the final state."""
    sha = hashlib.sha256()
    for array in arrays:
        if array is not None:
            sha.update(np.ascontiguousarray(array))
    return sha.hexdigest()


@dataclass
class Prepared:
    """A workload set up and ready to run."""

    engine: GossipEngine
    scenario: Scenario
    #: the true value of the aggregate the answer is compared with
    truth: float = 0.0
    experiment: Optional[SizeEstimationExperiment] = None
    #: ckpt_resume only: where checkpoints land, and the backend the
    #: restore leg runs on
    directory: Optional[Path] = None
    resume_backend: Optional[ExecutionBackend] = None


@dataclass
class Answer:
    """What one repetition produced, as the validity gate sees it."""

    digest: str
    rel_error: float
    convergence_factor: float
    exchanges: int
    problems: List[str] = field(default_factory=list)
    #: exact counts that must repeat across repetitions and runs
    counts: Dict[str, int] = field(default_factory=dict)


def _factor(variance_start: float, variance_end: float, cycles: int) -> float:
    """Geometric-mean variance reduction per cycle."""
    if variance_start <= 0.0 or variance_end <= 0.0 or cycles < 1:
        return float("nan")
    return float((variance_end / variance_start) ** (1.0 / cycles))


class Workload:
    """Base: sizes, the validity thresholds, and the smoke divisor."""

    name = ""
    why = ""
    n = 0
    cycles = 0
    #: a repetition whose ``rel_error`` exceeds this fails
    max_rel_error = 0.0
    #: … or whose convergence factor does
    max_factor = 0.0
    #: length of the untimed warm-up run
    warmup_cycles = 2

    def __init__(self, smoke: bool = False):
        if smoke:
            # a smoke pass checks plumbing, not accuracy: at N/50 the
            # thresholds tuned for the pinned sizes do not apply
            self.n = max(self.n // 50, 600)
            self.max_rel_error = self.max_factor = float("inf")

    def setup(self, seed: int, wrap: BackendWrap = unwrapped) -> Prepared:
        raise NotImplementedError

    def run(self, prepared: Prepared):
        raise NotImplementedError

    def answer(self, prepared: Prepared, outcome) -> Answer:
        raise NotImplementedError

    def reference_digest(self, seed: int) -> Optional[str]:
        """Digest of an independent execution every repetition must
        match, or ``None`` when repetitions are only compared with each
        other."""
        return None

    def discard(self, prepared: Prepared) -> None:
        """Release what ``setup`` made without running it."""
        prepared.engine.close()
        if prepared.directory is not None:
            shutil.rmtree(prepared.directory, ignore_errors=True)

    def _gate(self, answer: Answer) -> Answer:
        if not answer.rel_error <= self.max_rel_error:
            answer.problems.append(
                f"rel_error {answer.rel_error:.3e} above "
                f"{self.max_rel_error:.1e}"
            )
        if not answer.convergence_factor <= self.max_factor:
            answer.problems.append(
                f"convergence_factor {answer.convergence_factor:.4f} "
                f"above {self.max_factor}"
            )
        return answer


# -- the AggregationService scenario ------------------------------------


def service5_scenario(n: int, seed: int, cycles: int,
                      backend: ExecutionBackend) -> Scenario:
    """Mean, second moment, max, min and count on one exchange stream
    — the five-column scenario ``AggregationService.run`` builds."""
    values = make_rng(seed).normal(10.0, 4.0, n)
    indicator = np.zeros(n)
    indicator[int(make_rng(seed + 1).integers(0, n))] = 1.0
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
    return spec.scenario(
        CompleteTopology(n), values, seed=seed, cycles=cycles,
        backend=backend,
    )


def _service5_answer(engine: GossipEngine, truth: float, variances,
                     cycles: int, exchanges: int) -> Answer:
    matrix = engine.matrix
    column = matrix[:, 0]
    answer = Answer(
        digest=digest(matrix),
        rel_error=float(np.abs(column - truth).max() / abs(truth)),
        convergence_factor=_factor(variances[0], variances[-1], cycles),
        exchanges=exchanges,
        counts={"exchanges": exchanges},
    )
    # push-pull averaging moves no mass: the column mean is the input
    # mean up to rounding, whatever the backend did
    drift = abs(float(column.mean()) - truth) / abs(truth)
    if drift > 1e-9:
        answer.problems.append(f"mean column drifted by {drift:.3e}")
    return answer


def _vectorized_digest(n: int, seed: int, cycles: int) -> str:
    """Final-matrix digest of the service5 scenario run straight
    through on the vectorized backend — what the sharded run and the
    checkpointed-and-resumed run must both reproduce bit for bit."""
    scenario = service5_scenario(n, seed, cycles, VectorizedBackend())
    with GossipEngine(scenario) as engine:
        engine.run(cycles, record="end")
        return digest(engine.matrix)


class Service5Vec(Workload):
    name = "service5_vec"
    why = ("AggregationService scenario, N=100k x 10 cycles, vectorized: "
           "the static fast path, all time in segmentation, batch kernels "
           "and per-cycle reductions")
    n = 100_000
    cycles = 10
    max_rel_error = 0.05
    max_factor = 0.32

    def backend(self) -> ExecutionBackend:
        return VectorizedBackend()

    def setup(self, seed, wrap=unwrapped):
        scenario = service5_scenario(
            self.n, seed, self.cycles, wrap(self.backend())
        )
        return Prepared(
            engine=GossipEngine(scenario),
            scenario=scenario,
            truth=float(scenario.values.mean()),
        )

    def run(self, prepared):
        result = prepared.engine.run(self.cycles, record="cycle")
        prepared.engine.close()
        return result

    def answer(self, prepared, outcome):
        return self._gate(_service5_answer(
            prepared.engine, prepared.truth, outcome.variances["mean"],
            self.cycles, int(sum(outcome.exchange_counts)),
        ))


class Service5Shard(Service5Vec):
    name = "service5_shard"
    why = ("the same scenario and seed on ShardedBackend(min(2, cores)): "
           "parent-side planning, bank handoff and sync() dominate; must "
           "equal service5_vec bitwise")

    def backend(self) -> ExecutionBackend:
        return ShardedBackend(shard_workers())

    def reference_digest(self, seed):
        return _vectorized_digest(self.n, seed, self.cycles)


# -- Figure 4 through SizeEstimationExperiment --------------------------


class Fig4Churn(Workload):
    name = "fig4_churn"
    why = ("Figure 4: diurnal +-10% wave + 0.1%/cycle turnover, 30-cycle "
           "epochs, N=50k x 60 cycles, oracle draws: lifecycle, dynamic "
           "initiators, fused mask, compact")
    n = 50_000
    cycles = 60
    epoch = 30
    max_factor = 0.32
    # the size estimate's error is reported but not gated: a node that
    # leaves in the first cycles of an epoch takes a large share of the
    # counting mass with it (seed 101 loses a quarter that way), which
    # is the protocol's behaviour under churn, not a fault of the run
    max_rel_error = float("inf")
    membership: Optional[NewscastSpec] = None

    def churn(self, seed: int) -> ChurnTrace:
        trace = ChurnTrace.diurnal(
            self.n, self.cycles, period=self.cycles // 2,
            amplitude=self.n // 10, fluctuation=max(self.n // 1000, 1),
            seed=seed,
        )
        # departures due in the cycle an epoch restarts are put off by
        # one cycle: the freshly elected leader holds all of the
        # counting mass until its first exchange, and on one seed in a
        # thousand it would leave with it and the epoch report nothing
        leaves = trace.leaves
        for restart in range(0, self.cycles - 1, self.epoch):
            leaves[restart + 1] += leaves[restart]
            leaves[restart] = 0
        return ChurnTrace(trace.joins, leaves)

    def setup(self, seed, wrap=unwrapped):
        config = SizeEstimationConfig(
            cycles=self.cycles,
            cycles_per_epoch=self.epoch,
            initial_size=self.n,
            # leaders are elected by coin flips, so their number — and
            # with it the matrix width and the run time — would change
            # from epoch to epoch and seed to seed; with the chance at
            # practically zero, force_leader elects exactly one
            expected_leaders=1e-9,
            force_leader=True,
            seed=seed,
        )
        experiment = SizeEstimationExperiment(
            config, churn=self.churn(seed),
            backend=wrap(VectorizedBackend()), membership=self.membership,
        )
        # the experiment's own run() builds the engine and runs it in
        # one call; building the engine here from the experiment's
        # scenario keeps set-up (Newscast view seeding) out of run_s
        # while the experiment's epoch hooks still do the reporting
        scenario = experiment.scenario()
        return Prepared(
            engine=GossipEngine(scenario),
            scenario=scenario,
            experiment=experiment,
        )

    def run(self, prepared):
        result = prepared.engine.run(self.cycles)
        prepared.engine.close()
        return result

    def answer(self, prepared, outcome):
        engine = prepared.engine
        reports = prepared.experiment.reports
        exchanges = int(sum(outcome.exchange_counts))
        answer = Answer(
            digest=digest(engine.matrix, engine.alive_mask,
                          engine.membership_views),
            rel_error=float(np.mean([r.relative_error for r in reports])),
            # the run ends on an epoch boundary, so the matrix still
            # holds the last epoch's converged column; it started as
            # one leader's indicator over size_at_start participants,
            # whose unbiased variance is exactly 1/size_at_start
            convergence_factor=_factor(
                1.0 / reports[-1].size_at_start, engine.variance(),
                self.epoch,
            ),
            exchanges=exchanges,
            counts={
                "exchanges": exchanges,
                "final_size": outcome.alive_counts[-1],
                "epochs_reported": len(reports),
            },
        )
        if len(reports) != self.cycles // self.epoch:
            answer.problems.append(
                f"{len(reports)} epoch reports, expected "
                f"{self.cycles // self.epoch}"
            )
        return self._gate(answer)


class Fig4Newscast(Fig4Churn):
    name = "fig4_newscast"
    why = ("the same experiment with NewscastSpec(view_size=20), N=5k x 30 "
           "cycles: membership (view merges, argsort dedup) does nearly all "
           "the work here and none elsewhere")
    n = 5_000
    cycles = 30
    membership = NewscastSpec(view_size=20)
    # partial views mix slower than the uniform oracle (0.33-0.37
    # over twenty seeds)
    max_factor = 0.45


# -- message faults + retry ---------------------------------------------


class LossyRetry(Workload):
    name = "lossy_retry"
    why = ("5% request loss, 10% reply loss, 1% duplication, default "
           "RetrySpec, standard monitors, N=50k x 20 cycles: engine-side "
           "fault, retry and ledger passes dominate")
    n = 50_000
    cycles = 20
    max_rel_error = 1e-3
    max_factor = 0.75

    def setup(self, seed, wrap=unwrapped):
        values = make_rng(seed).normal(10.0, 4.0, self.n)
        scenario = Scenario(
            CompleteTopology(self.n),
            values,
            message_faults=MessageFaultSpec(
                request_loss=0.05, reply_loss=0.10, duplication=0.01
            ),
            retry=RetrySpec(),
            cycles=self.cycles,
            seed=seed,
            backend=wrap(VectorizedBackend()),
        )
        engine = GossipEngine(scenario)
        engine.arm_standard_monitors()
        return Prepared(engine=engine, scenario=scenario,
                        truth=float(values.mean()))

    def run(self, prepared):
        result = prepared.engine.run(self.cycles, record="cycle")
        prepared.engine.close()
        return result

    def answer(self, prepared, outcome):
        engine = prepared.engine
        column = engine.column("mean")
        exchanges = int(sum(outcome.exchange_counts))
        stats = engine.message_fault_stats
        answer = Answer(
            digest=digest(engine.matrix),
            # lost replies move mass, so the estimate every node
            # converges to is biased by the drift the retries did not
            # repair
            rel_error=abs(float(column.mean()) - prepared.truth)
            / abs(prepared.truth),
            convergence_factor=_factor(
                outcome.variances["mean"][0], outcome.variances["mean"][-1],
                self.cycles,
            ),
            exchanges=exchanges,
            counts={"exchanges": exchanges, **stats},
        )
        report = engine.invariant_report()
        if not report.ok:
            answer.problems.append(
                f"invariant violated: {report.violations[0].message}"
            )
        if stats["partials"] == 0 or stats["repairs"] == 0:
            answer.problems.append("the fault model never fired")
        return self._gate(answer)


# -- checkpoint, close, restore, continue -------------------------------


class CkptResume(Workload):
    name = "ckpt_resume"
    why = ("service5 at N=100k: 4 cycles checkpointing every 2 (keep 2), "
           "close, restore the latest, 4 more: the only workload that "
           "writes, prunes and reads checkpoints")
    n = 100_000
    cycles = 8
    every = 2
    keep = 2
    # the shortest run that still writes a checkpoint to restore
    warmup_cycles = 4
    max_rel_error = 0.1
    max_factor = 0.32

    def setup(self, seed, wrap=unwrapped):
        scenario = service5_scenario(
            self.n, seed, self.cycles, wrap(VectorizedBackend())
        )
        SCRATCH.mkdir(parents=True, exist_ok=True)
        return Prepared(
            engine=GossipEngine(scenario),
            scenario=scenario,
            truth=float(scenario.values.mean()),
            directory=Path(tempfile.mkdtemp(prefix="ckpt-", dir=SCRATCH)),
            # the restore leg gets a backend of its own, as the new
            # process of a real resume would
            resume_backend=wrap(VectorizedBackend()),
        )

    def run(self, prepared):
        half = self.cycles // 2
        spec = CheckpointSpec(
            prepared.directory, every_cycles=self.every, keep=self.keep
        )
        first = prepared.engine.run(half, record="cycle", checkpoint=spec)
        prepared.engine.close()
        resumed = GossipEngine.restore(
            prepared.scenario.replace(backend=prepared.resume_backend),
            latest_checkpoint(prepared.directory),
        )
        second = resumed.run(
            self.cycles - half, record="cycle", checkpoint=spec
        )
        resumed.close()
        prepared.engine = resumed
        return first, second

    def answer(self, prepared, outcome):
        first, second = outcome
        left = sorted(p.name for p in prepared.directory.glob("ck-*.json"))
        answer = _service5_answer(
            prepared.engine, prepared.truth,
            (first.variances["mean"][0], second.variances["mean"][-1]),
            self.cycles,
            int(sum(first.exchange_counts) + sum(second.exchange_counts)),
        )
        if len(left) != self.keep:
            answer.problems.append(
                f"{len(left)} checkpoints left after pruning, expected "
                f"{self.keep}"
            )
        return self._gate(answer)

    def reference_digest(self, seed):
        return _vectorized_digest(self.n, seed, self.cycles)


WORKLOADS = (
    Service5Vec, Service5Shard, Fig4Churn, Fig4Newscast, LossyRetry,
    CkptResume,
)


def by_name(name: str, smoke: bool = False) -> Workload:
    for cls in WORKLOADS:
        if cls.name == name:
            return cls(smoke)
    raise KeyError(name)
