"""The configuration surface is a reviewed list, not an accident.

Every environment variable ``src/`` reads, every constructor argument
of the sharded backend, every parameter of the backends' apply
contract, every field of a scenario spec and every parameter of a
scenario recipe doubles the configurations the equivalence suite would
have to cover, and every name in ``repro.__all__`` is public API to
keep. Adding one means editing this file — and, for the first two,
the table in ``docs/architecture.md`` — in the same diff.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.core import (
    broadcast_scenario,
    median_of_instances,
    service_epochs_scenario,
    service_report,
    service_scenario,
    spread_trajectory,
)
from repro.kernel import (
    AdversarySpec,
    CheckpointSpec,
    EpochSpec,
    ExecutionBackend,
    MessageFaultSpec,
    NewscastSpec,
    PairProtocolSpec,
    ReferenceBackend,
    RetrySpec,
    Scenario,
    ShardedBackend,
    VectorizedBackend,
)
from repro.kernel.backends import POOL_FAILURE_MODES

ROOT = Path(__file__).resolve().parent.parent
ENV_NAMES = {
    "REPRO_SHARD_TIMEOUT",
    "REPRO_SHARD_ON_FAILURE",
    "REPRO_STRICT_INVARIANTS",
}
SHARDED_ARGUMENTS = ["workers", "chunk", "on_failure", "max_respawns"]
APPLY_EXCHANGES = ["matrix", "functions", "exch_i", "exch_j"]
APPLY_PAIRS = ["matrix", "functions", "pairs_i", "pairs_j", "plan"]
#: every settable field of the scenario surface, in declaration order
SPEC_FIELDS = {
    Scenario: [
        "topology", "values", "aggregates", "initial", "crash_plan",
        "churn", "epochs", "pair_protocol", "adversary", "membership",
        "message_faults", "retry", "cycles", "seed", "backend",
    ],
    MessageFaultSpec: [
        "request_loss", "reply_loss", "duplication", "request_schedule",
        "reply_schedule", "start", "end",
    ],
    RetrySpec: ["timeout", "budget", "backoff", "mode", "fallback"],
    NewscastSpec: ["view_size"],
    AdversarySpec: ["kind", "fraction", "value", "nodes", "start", "end"],
    EpochSpec: ["cycles_per_epoch", "reseed", "finalize", "function"],
    CheckpointSpec: ["directory", "every_cycles", "keep"],
    PairProtocolSpec: ["selector", "track_phi", "track_s"],
}

#: every parameter of a scenario recipe or its reducer, in order
RECIPE_PARAMETERS = {
    service_scenario: ["topology", "values", "cycles", "seed", "backend"],
    service_epochs_scenario: [
        "topology", "values", "epochs", "cycles_per_epoch", "probe_node",
        "seed", "backend",
    ],
    service_report: ["engine", "probe_node"],
    median_of_instances: ["scenario", "instances"],
    broadcast_scenario: ["topology", "origin", "seed"],
    spread_trajectory: ["engine", "max_cycles"],
}
#: the package's public names, sorted
PUBLIC_NAMES = [
    "AdjacencyTopology", "AggregateFunction", "AggregationReport",
    "BarabasiAlbertTopology", "ChurnTrace", "CompleteTopology",
    "ConfigurationError", "CrashPlan", "EpochSpec", "ErdosRenyiTopology",
    "EstimationError", "ExecutionBackend", "GeometricMeanAggregate",
    "GossipEngine", "KernelRunResult", "MaxAggregate", "MeanAggregate",
    "MinAggregate", "NewscastSpec", "PairProtocolSpec",
    "PairSelectionError", "RATE_PM", "RATE_RAND", "RATE_SEQ",
    "RandomRegularTopology", "ReferenceBackend", "ReproError",
    "RingTopology", "Scenario", "SimulationError", "SizeEstimationConfig",
    "SizeEstimationExperiment", "StarTopology", "Topology",
    "TopologyError", "VectorizedBackend", "WattsStrogatzTopology",
    "__version__", "convergence_rate", "derive_seed",
    "estimate_network_size", "estimate_sum",
    "estimate_variance_from_moments", "make_rng", "random_crash_plan",
    "run_scenario", "spawn_streams",
]


def test_env_vars_read_by_src():
    found = set()
    for path in (ROOT / "src").rglob("*.py"):
        found |= set(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert found == ENV_NAMES


def test_sharded_backend_arguments():
    parameters = inspect.signature(ShardedBackend.__init__).parameters
    assert list(parameters)[1:] == SHARDED_ARGUMENTS
    assert POOL_FAILURE_MODES == ("raise", "respawn")


@pytest.mark.parametrize("backend", [
    ExecutionBackend, ReferenceBackend, VectorizedBackend, ShardedBackend,
])
def test_apply_contract(backend):
    for method, expected in (
        (backend.apply_exchanges, APPLY_EXCHANGES),
        (backend.apply_pairs, APPLY_PAIRS),
    ):
        assert list(inspect.signature(method).parameters)[1:] == expected


@pytest.mark.parametrize("spec", list(SPEC_FIELDS), ids=lambda s: s.__name__)
def test_spec_fields(spec):
    names = [field.name for field in dataclasses.fields(spec)]
    assert names == SPEC_FIELDS[spec]


@pytest.mark.parametrize("recipe", list(RECIPE_PARAMETERS),
                         ids=lambda f: f.__name__)
def test_recipe_parameters(recipe):
    parameters = inspect.signature(recipe).parameters
    assert list(parameters) == RECIPE_PARAMETERS[recipe]


def test_public_names():
    assert sorted(repro.__all__) == PUBLIC_NAMES


def test_architecture_table_lists_the_same_surface():
    text = (ROOT / "docs" / "architecture.md").read_text()
    section = text.split("### Configuration surface", 1)[1]
    section = section.split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert sorted(rows) == sorted(SHARDED_ARGUMENTS + list(ENV_NAMES))
