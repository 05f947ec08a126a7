"""repro — Epidemic-style proactive aggregation in large overlay networks.

A complete reproduction of Jelasity & Montresor (ICDCS 2004): the
anti-entropy aggregation protocol, the AVG variance-reduction framework
with its GETPAIR case studies and convergence theory, the epoch-based
adaptive restarting with network size estimation, plus the simulation
substrates (topologies, the gossip kernel and its cycle-driven shell,
membership, failure models) needed to regenerate every figure in the
paper.

Quickstart::

    from repro import CompleteTopology, GetPairSeq, ValueVector, run_avg

    topology = CompleteTopology(1000)
    vector = ValueVector.uniform(1000, seed=1)
    result = run_avg(vector, GetPairSeq(topology), cycles=20, seed=2)
    print(result.geometric_mean_reduction())   # ~0.303 = 1/(2*sqrt(e))
"""

from .errors import (
    ReproError,
    ConfigurationError,
    TopologyError,
    SimulationError,
    PairSelectionError,
    EstimationError,
)
from .rng import make_rng, spawn_streams, spawn_runs, derive_seed
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
    PushPullBroadcast,
    AggregationService,
    AggregationReport,
    RobustAverager,
)
from .avg import (
    ValueVector,
    PairSelector,
    GetPairPerfectMatching,
    GetPairRand,
    GetPairSeq,
    GetPairPMRand,
    AvgAlgorithm,
    RunResult,
    run_avg,
    RATE_PM,
    RATE_RAND,
    RATE_SEQ,
    convergence_rate,
)
from .kernel import (
    Scenario,
    ChurnSpec,
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
from .simulator.cycle_sim import CycleSimulator
from .failures import (
    OscillatingChurn,
    ConstantRateChurn,
    NoChurn,
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
    "spawn_runs",
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
    "ValueVector",
    "PairSelector",
    "GetPairPerfectMatching",
    "GetPairRand",
    "GetPairSeq",
    "GetPairPMRand",
    "AvgAlgorithm",
    "RunResult",
    "run_avg",
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
    "PushPullBroadcast",
    "AggregationService",
    "AggregationReport",
    "RobustAverager",
    "Scenario",
    "ChurnSpec",
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
    "CycleSimulator",
    "OscillatingChurn",
    "ConstantRateChurn",
    "NoChurn",
    "CrashPlan",
    "random_crash_plan",
    "__version__",
]
