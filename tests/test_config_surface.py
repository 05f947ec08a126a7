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
import importlib
import inspect
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import CompleteTopology, ConfigurationError, RandomRegularTopology
from repro.core import (
    SizeEstimationConfig,
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
    FaultSpec,
    MassConservationMonitor,
    MessageFaultSpec,
    NewscastSpec,
    PairProtocolSpec,
    ReferenceBackend,
    RetrySpec,
    Scenario,
    ShardedBackend,
    StructureMonitor,
    VarianceMonotonicityMonitor,
    VectorizedBackend,
    spawn_and_kill,
)
from repro.fields import BOUNDS, KINDS, interval
from repro.kernel.backends import POOL_FAILURE_MODES
from repro.kernel.robust import MultiAggregateSpec

ROOT = Path(__file__).resolve().parent.parent
ENV_NAMES = {
    "REPRO_SHARD_TIMEOUT",
    "REPRO_SHARD_ON_FAILURE",
    "REPRO_STRICT_INVARIANTS",
}
SHARDED_ARGUMENTS = ["workers", "on_failure", "max_respawns"]
#: callables whose tuning values (windows, tolerances, retry bounds,
#: poll intervals) are module constants: no caller sets them
FIXED_PARAMETERS = {
    VectorizedBackend: [],
    MassConservationMonitor: [],
    VarianceMonotonicityMonitor: [],
    StructureMonitor: [],
    RandomRegularTopology: ["n", "k", "seed"],
    spawn_and_kill: ["argv", "checkpoint_dir", "timeout", "env"],
}
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
    EpochSpec: ["cycles_per_epoch", "reseed", "finalize"],
    CheckpointSpec: ["directory", "every_cycles", "keep"],
    PairProtocolSpec: ["selector", "track_phi", "track_s"],
    SizeEstimationConfig: [
        "cycles", "cycles_per_epoch", "expected_leaders", "force_leader",
        "adaptive_leaders", "initial_size", "seed",
    ],
    FaultSpec: ["kind", "worker", "at_call", "delay"],
    MultiAggregateSpec: [
        "values", "aggregates", "initial", "reduction", "trim",
    ],
}
#: the fields whose rule lives in their spec's own ``__post_init__``
CUSTOM_FIELDS = {
    Scenario: ["values", "aggregates", "initial", "membership", "backend"],
    MultiAggregateSpec: ["values", "aggregates", "initial"],
}
#: the smallest valid construction of every spec
BASES = {
    Scenario: lambda: {"topology": CompleteTopology(4), "values": np.zeros(4)},
    MessageFaultSpec: dict,
    RetrySpec: dict,
    NewscastSpec: dict,
    AdversarySpec: lambda: {"kind": "lying"},
    EpochSpec: lambda: {"cycles_per_epoch": 3},
    CheckpointSpec: lambda: {"directory": "checkpoints"},
    PairProtocolSpec: lambda: {"selector": "pm"},
    SizeEstimationConfig: dict,
    FaultSpec: lambda: {"kind": "kill_worker"},
    MultiAggregateSpec: lambda: {"values": np.zeros(4)},
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


def test_tuning_values_are_constants():
    found = {
        target: list(inspect.signature(target).parameters)
        for target in FIXED_PARAMETERS
    }
    assert found == FIXED_PARAMETERS


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


def kind_options(spec_field):
    """``(kind, options)`` of a declared spec field."""
    options = dict(spec_field.metadata)
    return options.pop("kind"), options


def bad_values(spec_field):
    """``{label: value}``: every value the field's kind must reject."""
    kind, options = kind_options(spec_field)
    common = {"True": True, "1.5": 1.5, "'1'": "1", "nan": math.nan,
              "inf": math.inf, "object": object()}
    bad = {
        "count": common,
        "real": {key: common[key] for key in ("True", "'1'", "nan", "inf")},
        "flag": {"1": 1, **{key: value for key, value in common.items()
                            if key != "True"}},
        "choice": {"unknown": "unknown", "True": True, "1.5": 1.5},
        "node_ids": {"True": True, "1.5": 1.5, "(True,)": (True,),
                     "(1.5,)": (1.5,), "('1',)": ("1",), "(-1,)": (-1,)},
        "spec": {key: value for key, value in common.items()
                 if not isinstance(value, options.get("type", ()))},
        "callable": {key: common[key] for key in ("True", "1.5", "'1'")},
        "seed": {key: common[key] for key in ("True", "1.5", "'1'", "nan")},
    }[kind]
    if options.get("low") is not None:
        bad["low-1"] = options["low"] - 1
    if options.get("high") is not None:
        bad["high+1"] = options["high"] + 1
    for bound in ("above", "below"):
        if options.get(bound) is not None:
            bad[bound] = options[bound]
    if spec_field.default is not None:
        bad["None"] = None
    return bad


BAD_INPUTS = [
    pytest.param(spec, spec_field.name, value,
                 id=f"{spec.__name__}.{spec_field.name}={label}")
    for spec in SPEC_FIELDS
    for spec_field in dataclasses.fields(spec)
    if kind_options(spec_field)[0] != "custom"
    for label, value in bad_values(spec_field).items()
]


@pytest.mark.parametrize("spec, name, value", BAD_INPUTS)
def test_bad_input_rejected(spec, name, value):
    """Every value outside a field's kind fails at construction, and
    the error names the field."""
    arguments = {**BASES[spec](), name: value}
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"{spec.__name__}.{name}")):
        spec(**arguments)


@pytest.mark.parametrize("spec", list(SPEC_FIELDS), ids=lambda s: s.__name__)
def test_base_is_valid(spec):
    spec(**BASES[spec]())


def test_kinded_fields_are_the_spec_surface():
    """The fields that declare a kind, across the whole package, are
    exactly ``SPEC_FIELDS``: a field without a kind fails here."""
    found = {}
    for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
        if module_info.name == "repro.__main__":
            continue
        module = importlib.import_module(module_info.name)
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__):
                kinds = {f.name: f.metadata.get("kind")
                         for f in dataclasses.fields(obj)}
                if any(kinds.values()):
                    assert set(kinds.values()) <= set(KINDS), obj
                    found[obj] = [name for name, kind in kinds.items()
                                  if kind is not None]
    assert found == SPEC_FIELDS
    custom = {
        spec: [f.name for f in dataclasses.fields(spec)
               if kind_options(f)[0] == "custom"]
        for spec in SPEC_FIELDS
    }
    assert {spec: names for spec, names in custom.items() if names} == (
        CUSTOM_FIELDS
    )


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


def kind_label(spec_field):
    """The ``kind`` column of a spec's field table: the kind, then its
    bounds in interval notation."""
    kind, options = kind_options(spec_field)
    bounds = {key: value for key, value in options.items()
              if key in BOUNDS}
    return f"`{kind}` {interval(**bounds)}" if bounds else f"`{kind}`"


@pytest.mark.parametrize("spec", list(SPEC_FIELDS), ids=lambda s: s.__name__)
def test_scenarios_doc_tables_list_the_kinds(spec):
    """``docs/scenarios.md`` has one ``field | kind | meaning`` table
    per spec, in declaration order, with the declared kinds."""
    text = (ROOT / "docs" / "scenarios.md").read_text()
    section = text.split(f"### `{spec.__name__}` fields", 1)[1]
    section = section.split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", section,
                      flags=re.MULTILINE)
    assert rows == [(f.name, kind_label(f)) for f in dataclasses.fields(spec)]
