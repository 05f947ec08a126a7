"""The unified gossip kernel.

One declarative :class:`Scenario` (overlay, values, concurrent
aggregate instances, failure model, seed) executed by one
:class:`GossipEngine` over pluggable
:class:`~repro.kernel.backends.ExecutionBackend` implementations:

* ``"reference"`` — sequential Python loops, the semantic oracle;
* ``"vectorized"`` — numpy structure-of-arrays batched execution that
  reproduces the reference trajectories bitwise while scaling to the
  paper's N = 100 000 overlays and beyond;
* ``"sharded"`` / ``"sharded:<workers>"`` — multi-process execution
  over a :mod:`multiprocessing.shared_memory` value matrix, for
  million-node figures; bitwise-equal to the other two.

Algorithm AVG of §3 (a ``Scenario`` with a :class:`PairProtocolSpec`),
the Figure 4 experiment (:class:`repro.core.SizeEstimationExperiment`)
and the scenario recipes of :mod:`repro.core` (e.g.
:func:`repro.core.service_scenario`) all declare a ``Scenario`` and run
it here; churn is declared as a
:class:`ChurnTrace` of per-cycle join/leave counts.
"""

from .scenario import (
    AUTO_VECTORIZE_THRESHOLD,
    Scenario,
)
from .checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CheckpointSpec,
    latest_checkpoint,
    list_checkpoints,
    prune_checkpoints,
    read_checkpoint,
)
from .faults import (
    FAULT_KINDS,
    FaultSpec,
    spawn_and_kill,
)
from .adversary import (
    ADVERSARY_KINDS,
    AdversarySpec,
)
from .messages import (
    RETRY_FALLBACKS,
    RETRY_MODES,
    LossSchedule,
    MessageFaultSpec,
    RetrySpec,
    burst_loss,
    constant_loss,
)
from .invariants import (
    FAULT_LEDGER_KEYS,
    InvariantFinding,
    InvariantMonitor,
    InvariantReport,
    MassConservationMonitor,
    StructureMonitor,
    VarianceMonotonicityMonitor,
    standard_monitors,
)
from .robust import (
    DEFAULT_TRIM,
    ROBUST_REDUCTIONS,
    MultiAggregateSpec,
    max_size_estimate,
    median_of_runs,
    min_size_estimate,
    robust_reduce,
    size_from_count,
    trimmed_mean,
)
from .lifecycle import (
    ChurnStep,
    ChurnTrace,
    EpochRestart,
    EpochSpec,
    EpochView,
)
from .membership import (
    MEMBERSHIP_NAMES,
    NewscastProvider,
    NewscastSpec,
    NewscastViews,
    OracleProvider,
    PartnerProvider,
)
from .pairs import (
    PAIR_SELECTOR_NAMES,
    PairProtocolSpec,
    TheoremSAggregate,
)
from .backends import (
    BACKEND_FORMS,
    BACKEND_NAMES,
    PAIR_CHUNK,
    SHARD_CHUNK,
    ExecutionBackend,
    PoolHealthReport,
    ReferenceBackend,
    ShardedBackend,
    VectorizedBackend,
    make_backend,
    parse_backend_spec,
)
from .engine import CyclePlan, GossipEngine, KernelRunResult, run_scenario

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointSpec",
    "latest_checkpoint",
    "list_checkpoints",
    "prune_checkpoints",
    "read_checkpoint",
    "FAULT_KINDS",
    "FaultSpec",
    "spawn_and_kill",
    "PoolHealthReport",
    "ADVERSARY_KINDS",
    "AdversarySpec",
    "RETRY_FALLBACKS",
    "RETRY_MODES",
    "LossSchedule",
    "MessageFaultSpec",
    "RetrySpec",
    "burst_loss",
    "constant_loss",
    "FAULT_LEDGER_KEYS",
    "InvariantFinding",
    "InvariantMonitor",
    "InvariantReport",
    "MassConservationMonitor",
    "StructureMonitor",
    "VarianceMonotonicityMonitor",
    "standard_monitors",
    "AUTO_VECTORIZE_THRESHOLD",
    "DEFAULT_TRIM",
    "ROBUST_REDUCTIONS",
    "MultiAggregateSpec",
    "max_size_estimate",
    "median_of_runs",
    "min_size_estimate",
    "robust_reduce",
    "size_from_count",
    "trimmed_mean",
    "BACKEND_FORMS",
    "BACKEND_NAMES",
    "Scenario",
    "ChurnStep",
    "ChurnTrace",
    "EpochRestart",
    "EpochSpec",
    "EpochView",
    "MEMBERSHIP_NAMES",
    "NewscastProvider",
    "NewscastSpec",
    "NewscastViews",
    "OracleProvider",
    "PartnerProvider",
    "PAIR_SELECTOR_NAMES",
    "PairProtocolSpec",
    "TheoremSAggregate",
    "PAIR_CHUNK",
    "SHARD_CHUNK",
    "ExecutionBackend",
    "ReferenceBackend",
    "ShardedBackend",
    "VectorizedBackend",
    "make_backend",
    "parse_backend_spec",
    "CyclePlan",
    "GossipEngine",
    "KernelRunResult",
    "run_scenario",
]
