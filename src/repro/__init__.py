"""repro — Epidemic-style proactive aggregation in large overlay networks.

A complete reproduction of Jelasity & Montresor (ICDCS 2004): the
anti-entropy aggregation protocol, the AVG variance-reduction framework
with its GETPAIR case studies and convergence theory, the epoch-based
adaptive restarting with network size estimation, plus the simulation
substrates (topologies, the gossip kernel, membership, failure models)
needed to regenerate every figure in the paper.

Quickstart (algorithm AVG with GETPAIR_SEQ)::

    from repro import CompleteTopology, PairProtocolSpec, Scenario
    from repro import make_rng, run_scenario
    from repro.avg import geometric_mean_reduction

    scenario = Scenario(
        CompleteTopology(1000), make_rng(1).uniform(size=1000),
        pair_protocol=PairProtocolSpec("seq"), cycles=20, seed=2,
    )
    result = run_scenario(scenario)
    print(geometric_mean_reduction(result.variance_array("avg")))
    # ~0.303 = 1/(2*sqrt(e))
"""

from .errors import (
    ReproError,
    ConfigurationError,
    TopologyError,
    SimulationError,
    PairSelectionError,
    EstimationError,
)
from .rng import make_rng, spawn_streams, derive_seed
from .topology import (
    Topology,
    AdjacencyTopology,
    CompleteTopology,
    RandomRegularTopology,
    ErdosRenyiTopology,
    RingTopology,
    WattsStrogatzTopology,
    BarabasiAlbertTopology,
    StarTopology,
)
from .core import (
    AggregateFunction,
    MeanAggregate,
    MaxAggregate,
    MinAggregate,
    GeometricMeanAggregate,
    SizeEstimationConfig,
    SizeEstimationExperiment,
    estimate_network_size,
    estimate_sum,
    estimate_variance_from_moments,
    AggregationReport,
)
from .avg import (
    RATE_PM,
    RATE_RAND,
    RATE_SEQ,
    convergence_rate,
)
from .kernel import (
    Scenario,
    ChurnTrace,
    EpochSpec,
    NewscastSpec,
    PairProtocolSpec,
    GossipEngine,
    KernelRunResult,
    run_scenario,
    ExecutionBackend,
    ReferenceBackend,
    VectorizedBackend,
)
from .failures import (
    CrashPlan,
    random_crash_plan,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ConfigurationError",
    "TopologyError",
    "SimulationError",
    "PairSelectionError",
    "EstimationError",
    "make_rng",
    "spawn_streams",
    "derive_seed",
    "Topology",
    "AdjacencyTopology",
    "CompleteTopology",
    "RandomRegularTopology",
    "ErdosRenyiTopology",
    "RingTopology",
    "WattsStrogatzTopology",
    "BarabasiAlbertTopology",
    "StarTopology",
    "RATE_PM",
    "RATE_RAND",
    "RATE_SEQ",
    "convergence_rate",
    "AggregateFunction",
    "MeanAggregate",
    "MaxAggregate",
    "MinAggregate",
    "GeometricMeanAggregate",
    "SizeEstimationConfig",
    "SizeEstimationExperiment",
    "estimate_network_size",
    "estimate_sum",
    "estimate_variance_from_moments",
    "AggregationReport",
    "Scenario",
    "ChurnTrace",
    "EpochSpec",
    "NewscastSpec",
    "PairProtocolSpec",
    "GossipEngine",
    "KernelRunResult",
    "run_scenario",
    "ExecutionBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "CrashPlan",
    "random_crash_plan",
    "__version__",
]
