"""§4's restart mechanism end to end: ``EpochSpec`` runs the protocol in
epochs of fixed length, each restarting from the attribute values of
the nodes alive at its start, so every epoch's output is that epoch's
aggregate — the adaptive, self-healing estimate the paper proposes.
"""

import numpy as np
import pytest

from repro.core import MaxAggregate, estimate_network_size
from repro.failures import CrashPlan
from repro.kernel import (
    ChurnTrace,
    EpochSpec,
    GossipEngine,
    MessageFaultSpec,
    Scenario,
    run_scenario,
)
from repro.topology import CompleteTopology

BACKENDS = ["reference", "vectorized"]


def attributes(n, seed=1):
    return np.random.default_rng(seed).normal(10.0, 4.0, n)


def epoch_outputs(values, cycles_per_epoch, epochs, *, seed=2,
                  reseed=None, **scenario):
    """Every completed epoch's converged column, one array per epoch."""
    spec = EpochSpec(
        cycles_per_epoch, reseed=reseed,
        finalize=lambda view: view.matrix[:, 0],
    )
    result = run_scenario(
        Scenario(CompleteTopology(len(values)), values, epochs=spec,
                 seed=seed, **scenario),
        cycles=cycles_per_epoch * epochs,
    )
    return result.epoch_results


@pytest.mark.parametrize("backend", BACKENDS)
class TestConvergenceWithinEpoch:
    def test_every_epoch_converges_to_the_mean(self, backend):
        values = attributes(150)
        outputs = epoch_outputs(values, 25, 3, backend=backend)
        assert len(outputs) == 3
        for estimates in outputs:
            assert len(estimates) == 150
            assert np.allclose(estimates, values.mean(), atol=1e-3)

    def test_output_follows_a_changing_attribute(self, backend):
        """The restart makes the aggregate adaptive: when the attribute
        doubles, the next epoch's output reports the doubled mean."""
        base = attributes(150, seed=7)

        def reseed(restart):
            return base[restart.participants] * (2.0 if restart.epoch else 1.0)

        first, second = epoch_outputs(base, 25, 2, reseed=reseed,
                                      backend=backend)
        assert np.allclose(first, base.mean(), atol=1e-3)
        assert np.allclose(second, 2 * base.mean(), atol=2e-3)


def test_short_epoch_reports_an_unconverged_estimate():
    (estimates,) = epoch_outputs(attributes(150, seed=5), 3, 1)
    assert estimates.std() > 0.01


def test_max_epochs_report_the_exact_extreme():
    values = attributes(150, seed=6)
    outputs = epoch_outputs(values, 15, 2, aggregates={"max": MaxAggregate()})
    assert len(outputs) == 2
    for estimates in outputs:
        assert np.all(estimates == values.max())


def test_joiners_report_from_the_next_epoch_on():
    """A node joining mid-epoch waits for the next restart, then
    takes part in it and reports its result."""
    n = 100
    values = attributes(n, seed=9)
    scenario = Scenario(
        CompleteTopology(n), values, seed=10,
        churn=ChurnTrace.from_events([10], []),
        epochs=EpochSpec(20, finalize=lambda view: len(view.participants)),
    )
    assert run_scenario(scenario, cycles=40).epoch_results == [n, n + 1]


def test_crashed_nodes_drop_out_of_later_epochs():
    n = 80
    plan = CrashPlan()
    plan.add(5, range(20))
    outputs = epoch_outputs(attributes(n, seed=19), 25, 2, crash_plan=plan)
    # epoch 0 finishes without them; epoch 1 restarts among survivors
    assert [len(estimates) for estimates in outputs] == [60, 60]
    assert np.allclose(outputs[1], attributes(n, seed=19)[20:].mean(),
                       atol=1e-3)


@pytest.mark.parametrize("request_loss, reply_loss", [(0.1, 0.0), (0.1, 0.1)])
def test_epochs_survive_message_loss(request_loss, reply_loss):
    """Lost requests only slow an epoch down; lost replies also drift
    its mean a little. Either way each epoch ends tightly clustered
    near the truth, and the next restart discards the drift."""
    values = attributes(150, seed=21)
    faults = MessageFaultSpec(request_loss=request_loss, reply_loss=reply_loss)
    for estimates in epoch_outputs(values, 30, 2, message_faults=faults):
        assert len(estimates) == 150
        assert estimates.std() < 0.1
        assert abs(estimates.mean() - values.mean()) < 0.5
        if reply_loss == 0.0:
            assert estimates.mean() == pytest.approx(values.mean(), abs=1e-9)


def test_epoch_counting_estimates_the_size():
    """§4 counting: one node holds 1, the others 0, so every epoch
    converges to 1/N and each node estimates N."""
    n = 200
    indicator = np.zeros(n)
    indicator[0] = 1.0
    engine = GossipEngine(Scenario(
        CompleteTopology(n), indicator, seed=4,
        epochs=EpochSpec(30, finalize=lambda view: view.matrix[:, 0]),
    ))
    outputs = engine.run(60).epoch_results
    assert len(outputs) == 2
    for estimates in outputs:
        sizes = [estimate_network_size(x) for x in estimates]
        assert np.mean(sizes) == pytest.approx(n, rel=1e-3)
