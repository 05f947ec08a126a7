"""A lost exchange is a lost request.

The paper's §3 cycle lets an exchange fail only as a whole — at both
ends or at neither. ``MessageFaultSpec(request_loss=p)`` is exactly that
failure (a lost request cancels the exchange silently), and
``exchange_loss(p)`` builds that spec, or none at ``p == 0``. A recipe's
scenario takes it like any other: ``.replace(message_faults=...)``.

``GOLDEN`` pins whole runs: what a ``git archive`` of 9952160 reached,
where the same losses were a separate exchange-loss coin drawn in the
engine's mask pass (``Scenario.loss_probability`` / ``loss_schedule``).
Every backend must reach each pinned state, so the two loss models were
one and the same, coin for coin. ``GOLDEN["exchange-loss"]`` was
pinned through a single-instance cycle facade that has since gone; a
plain scenario with ``exchange_loss(0.3)`` reaches it. The two
``partition`` pins were taken with a group-based partition schedule
that has also gone; an ``AdversarySpec(kind="partition")`` whose nodes
are one side of the same seeded split reaches them.
``GOLDEN["AggregationService"]`` and ``ROBUST_GOLDEN`` were pinned
through facade classes that have gone too; their scenario recipes
reach both.
"""

import hashlib

import numpy as np
import pytest

from repro.core import (
    median_of_instances,
    service_epochs_scenario,
    service_report,
    service_scenario,
)
from repro.failures import CrashPlan
from repro.kernel import (
    AdversarySpec,
    ChurnTrace,
    EpochSpec,
    GossipEngine,
    MessageFaultSpec,
    Scenario,
    burst_loss,
)
from repro.kernel.messages import exchange_loss
from repro.topology import CompleteTopology, RandomRegularTopology

N = 240
VALUES = np.random.default_rng(17).normal(10.0, 4.0, N)
BACKENDS = ("reference", "vectorized", "sharded:2")
BURST = burst_loss(0.05, 0.9, 3, 9)


def _lost(loss):
    """``loss`` — a probability or a ``cycle -> probability`` schedule —
    as lost requests."""
    if callable(loss):
        return MessageFaultSpec(request_schedule=loss)
    return MessageFaultSpec(request_loss=loss)


def _digest(*parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(
            part.tobytes() if isinstance(part, np.ndarray)
            else repr(part).encode()
        )
    return digest.hexdigest()


def _engine_digest(engine, exchange_counts, variances):
    return _digest(
        engine.matrix, engine.alive_mask, engine._rng.bit_generator.state,
        exchange_counts, variances,
    )


def _dynamic(loss):
    return dict(
        loss=loss,
        churn=ChurnTrace.constant(12, 6, 4),
        epochs=EpochSpec(cycles_per_epoch=5),
    )


#: one side of the pinned two-way split: every other node of a seeded
#: permutation
SIDE = tuple(np.random.default_rng(3).permutation(N)[1::2].tolist())


def _split(loss):
    return dict(
        loss=loss,
        adversary=AdversarySpec(kind="partition", nodes=SIDE, start=2, end=8),
    )


def _regular(loss):
    return dict(loss=loss, topology=RandomRegularTopology(N, 20, seed=5))


#: case -> Scenario fields; ``crash`` kills every 7th node after cycle 5
CASES = {
    "constant": dict(loss=0.3),
    "burst": dict(loss=BURST),
    "total": dict(loss=1.0),
    "churn-epochs": _dynamic(0.3),
    "churn-epochs-burst": _dynamic(BURST),
    "partition": _split(0.3),
    "partition-burst": _split(BURST),
    "crash": dict(loss=0.3, crash=True),
    "crash-burst": dict(loss=BURST, crash=True),
    "regular20": _regular(0.3),
    "regular20-burst": _regular(BURST),
}


def _run_case(case, backend):
    fields = dict(CASES[case])
    loss = fields.pop("loss")
    crash = fields.pop("crash", False)
    topology = fields.pop("topology", CompleteTopology(N))
    scenario = Scenario(topology, VALUES, message_faults=_lost(loss),
                        seed=31, backend=backend, **fields)
    with GossipEngine(scenario) as engine:
        results = [engine.run(5 if crash else 12)]
        if crash:
            engine.crash(range(0, N, 7))
            results.append(engine.run(7))
        return _engine_digest(
            engine,
            [(r.exchange_counts, r.alive_counts) for r in results],
            [r.variances for r in results],
        )


def _run_cycles(backend):
    scenario = Scenario(CompleteTopology(N), VALUES,
                        message_faults=exchange_loss(0.3), seed=37,
                        backend=backend)
    with GossipEngine(scenario) as engine:
        first = engine.run(4)
        engine.crash(range(0, N, 9))
        second = engine.run(8)
        return _engine_digest(
            engine,
            [first.exchange_counts, second.exchange_counts],
            [first.variances["mean"], second.variances["mean"]],
        )


def _run_service(backend):
    lost = exchange_loss(0.2)
    once = service_scenario(CompleteTopology(N), VALUES, cycles=15, seed=43,
                            backend=backend)
    with GossipEngine(once.replace(message_faults=lost)) as engine:
        engine.run(record="end")
        report = service_report(engine)
    epochs = service_epochs_scenario(CompleteTopology(N), VALUES, epochs=3,
                                     cycles_per_epoch=8, seed=43,
                                     backend=backend)
    with GossipEngine(epochs.replace(message_faults=lost)) as engine:
        reports = engine.run().epoch_results
    return _digest(report.as_dict(), [each.as_dict() for each in reports])


def _run_robust(loss):
    plan = CrashPlan()
    plan.add(3, range(0, N, 9))
    result = median_of_instances(
        Scenario(CompleteTopology(N), VALUES, crash_plan=plan, cycles=15,
                 message_faults=exchange_loss(loss), seed=47),
        instances=3,
    )
    return _digest(result.single_estimates, result.median_estimates)


GOLDEN = {
    "burst":
        "6532f6c7be1433ba6d28fdd9eb120601df08ed88e72e9de1854e2927b47f2b7a",
    "churn-epochs":
        "a51a3b698b6daacf208a3bad124d5c0608bb1f51f8908a5552634f1de13d1b02",
    "churn-epochs-burst":
        "9d7ec5181ac58801d61175386ea960091a94a755a8fbd808a0e63975a4a18cca",
    "constant":
        "4291cca409976ac95038a7374d2cb0d6a7a6a5e29a221c1828e56d56ae40629b",
    "crash":
        "4aaedd4d99936c6a15335141edb5d3bdeabd7c76429f968b3a9d0f6130dd098c",
    "crash-burst":
        "05079c4352487221e6076ebfa0da38be12c4f13b8284c598c9b389cbccd55609",
    "partition":
        "e3f52fd0a346ab7fa2a51642a3af1d5c191ebf3c695e8e7616edc879566bd4b5",
    "partition-burst":
        "d7f62a1bfe11a1a718c5bc1e86597fe467b71dab01aeabb9845ec7b27084ba8a",
    "regular20":
        "f6ddb6484c7d31def9cf39c72e28068bb60ac73a64e3554bd2aa6248fa8c5643",
    "regular20-burst":
        "33148f05f9840b6c154a281c4d6e43677766f9394f8ca65aa2ad16e4a8ea6e4e",
    "total":
        "1c9d60c0961fa89bc3cfa0b59c23fff17f9c80d6f0dc00055de5238519489186",
    "exchange-loss":
        "b2c51e4443075573243c987a0f981583982036e389801d97ce42dd77ba461872",
    "AggregationService":
        "cba4dfad751f7e7d047afbc6d4fd0ea10f375e11cba08208828e823c5922b8a2",
}

#: ``median_of_instances``' single and median estimates, by loss
#: probability
ROBUST_GOLDEN = {
    0.0:
        "9ef77fd550bb626459fc1f6014aecde4e8fc892b63d97cb667565674b969cf89",
    0.3:
        "6ca3b3baf30ffe7c776e9361c4bbd1167e72ba05892c6a91b2b75d8cc95c6645",
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_lost_requests_reach_the_pinned_states(case, backend):
    assert _run_case(case, backend) == GOLDEN[case]


@pytest.mark.parametrize("backend", BACKENDS)
def test_exchange_loss_reaches_the_pinned_state(backend):
    assert _run_cycles(backend) == GOLDEN["exchange-loss"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_service_loss_reaches_the_pinned_state(backend):
    assert _run_service(backend) == GOLDEN["AggregationService"]


@pytest.mark.parametrize("loss", sorted(ROBUST_GOLDEN))
def test_median_of_instances_reaches_the_pinned_estimates(loss):
    assert _run_robust(loss) == ROBUST_GOLDEN[loss]


def test_loss_free_runs_declare_no_faults():
    """``exchange_loss(0)`` is no spec, so the engine keeps its
    loss-free fast path."""
    assert exchange_loss(0.0) is None
