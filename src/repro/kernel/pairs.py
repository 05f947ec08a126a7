"""Kernel-hosted GETPAIR pair-sequence generation (§3.3).

Algorithm AVG (Figure 2) runs a cycle as ``N`` elementary
variance-reduction steps over a pair sequence supplied by a GETPAIR
strategy. This module hosts the four strategies the paper analyzes —
PM, RAND, SEQ and PMRAND — as *pure pair-sequence generators*: value
blind, drawing only from the engine's generator, returning the whole
cycle's ``(N, 2)`` index array up front. Because the draws happen in
the engine (never in a backend), both execution backends replay the
identical sequence and stay bitwise-equal, exactly as in exchange mode.

:class:`PairProtocolSpec` is the scenario-level declaration: selector
name, whether to record per-node communication counts φ (Theorem 1's
random variable), and whether to co-evolve the ``s`` vector of
Theorem 1's proof (``s_i = s_j = (s_i + s_j)/4``, seeded with ``a_0²``)
as a second matrix column.

To draw one cycle's sequence outside an engine, call a ``pairs_*``
function or ``PairProtocolSpec(name).bind(topology)(rng)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.aggregates import AggregateFunction
from ..errors import ConfigurationError, PairSelectionError
from ..fields import declare, validate_fields
from ..topology.base import AdjacencyTopology, Topology
from ..topology.complete import CompleteTopology

#: selector names accepted by :attr:`PairProtocolSpec.selector`
PAIR_SELECTOR_NAMES = ("pm", "rand", "seq", "pmrand")

#: a bound generator: engine RNG in, one cycle's (N, 2) pair array out
PairDraw = Callable[[np.random.Generator], np.ndarray]


class TheoremSAggregate(AggregateFunction):
    """The ``s`` update of Theorem 1's proof: both peers adopt
    ``(s_i + s_j) / 4``.

    Not an AGGREGATE in the protocol sense (it does not conserve mass);
    it exists so that tests can verify the recursion
    ``E(s_{i+1}) = E(2^{-φ}) · E(s_i)`` directly on a kernel run.
    """

    name = "s_quarter"

    def combine(self, x: float, y: float) -> float:
        return (x + y) * 0.25

    def combine_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (x + y) * 0.25

    def combine_into(self, x, y, out) -> None:
        np.multiply(np.add(x, y, out=out), 0.25, out=out)


def two_disjoint_matchings(n: int, rng: np.random.Generator) -> np.ndarray:
    """Two edge-disjoint perfect matchings over ``n`` (even) labels.

    A random permutation ``p`` yields matching 1 as consecutive pairs
    ``(p[0],p[1]), (p[2],p[3]) …`` and matching 2 as the shifted pairs
    ``(p[1],p[2]), …, (p[n-1],p[0])`` — the two alternating edge classes
    of a Hamiltonian cycle, hence disjoint by construction. Assembled
    into one pre-allocated array: this runs once per cycle at N = 10⁵.
    """
    p = rng.permutation(n)
    half = n // 2
    pairs = np.empty((n, 2), dtype=np.int64)
    pairs[:half] = p.reshape(half, 2)
    pairs[half:, 0] = p[1::2]
    pairs[half:n - 1, 1] = p[2::2]
    pairs[n - 1, 1] = p[0]
    return pairs


def _uniform_distinct_pairs(
    n: int, out: np.ndarray, rng: np.random.Generator
) -> None:
    """Fill ``out`` with uniform distinct pairs over ``n`` labels
    (complete-graph RAND draw), without rejection."""
    count = len(out)
    first = rng.integers(0, n, size=count)
    offset = rng.integers(0, n - 1, size=count)
    out[:, 0] = first
    out[:, 1] = offset + (offset >= first)


def pairs_pm(topology: Topology, rng: np.random.Generator) -> np.ndarray:
    """GETPAIR_PM (§3.3.1): two disjoint perfect matchings per cycle."""
    return two_disjoint_matchings(topology.n, rng)


def pairs_rand(topology: Topology, rng: np.random.Generator) -> np.ndarray:
    """GETPAIR_RAND (§3.3.2): each of the ``N`` calls returns a
    uniformly random edge of the overlay."""
    n = topology.n
    if isinstance(topology, CompleteTopology):
        pairs = np.empty((n, 2), dtype=np.int64)
        _uniform_distinct_pairs(n, pairs, rng)
        return pairs
    if isinstance(topology, AdjacencyTopology):
        edge_array = topology.edge_array()
        if len(edge_array) == 0:
            raise PairSelectionError("topology has no edges to sample")
        picks = rng.integers(0, len(edge_array), size=n)
        return edge_array[picks].copy()
    pairs = np.empty((n, 2), dtype=np.int64)
    for call in range(n):
        pairs[call] = topology.random_edge(rng)
    return pairs


def pairs_seq(topology: Topology, rng: np.random.Generator) -> np.ndarray:
    """GETPAIR_SEQ (§3.3.3): iterate nodes in a fixed order, each
    picking a uniformly random neighbor — the practical protocol."""
    n = topology.n
    pairs = np.empty((n, 2), dtype=np.int64)
    initiators = np.arange(n, dtype=np.int64)
    pairs[:, 0] = initiators
    pairs[:, 1] = topology.random_neighbor_array(initiators, rng)
    return pairs


def pairs_pmrand(topology: Topology, rng: np.random.Generator) -> np.ndarray:
    """GETPAIR_PMRAND (§3.3.3): a PM half-cycle followed by a RAND
    half-cycle — the analysis device sharing SEQ's φ distribution."""
    n = topology.n
    half = n // 2
    p = rng.permutation(n)
    pairs = np.empty((n, 2), dtype=np.int64)
    pairs[:half] = p.reshape(half, 2)  # N/2 PM calls
    _uniform_distinct_pairs(n, pairs[half:], rng)
    return pairs


_GENERATORS = {
    "pm": pairs_pm,
    "rand": pairs_rand,
    "seq": pairs_seq,
    "pmrand": pairs_pmrand,
}


def conflict_free_plan(selector: str, n: int):
    """Structural segmentation of one cycle's pair sequence.

    Returns ``((start, end, conflict_free), …)`` covering ``[0, N)``,
    or ``None`` when the selector has no known structure. PM's two
    matching halves are node-disjoint by construction, as is PMRAND's
    matching half; the vectorized backend applies such segments as
    single batches with no segmentation scan. RAND/SEQ sequences need
    the generic greedy segmentation throughout.
    """
    if selector == "pm":
        return ((0, n // 2, True), (n // 2, n, True))
    if selector == "pmrand":
        return ((0, n // 2, True), (n // 2, n, False))
    return None


def validate_pair_topology(selector: str, topology: Topology) -> None:
    """Check a selector's topology preconditions (PM/PMRAND need global
    knowledge — the complete overlay — and an even node count)."""
    if selector not in PAIR_SELECTOR_NAMES:
        raise ConfigurationError(
            f"unknown pair selector {selector!r}; expected one of "
            f"{PAIR_SELECTOR_NAMES}"
        )
    if selector in ("pm", "pmrand"):
        if not isinstance(topology, CompleteTopology):
            raise PairSelectionError(
                f"GETPAIR_{selector.upper()} requires the complete "
                "topology (global knowledge)"
            )
        if topology.n % 2 != 0:
            raise PairSelectionError(
                f"perfect matching needs an even node count, got "
                f"{topology.n}"
            )


@dataclass(frozen=True)
class PairProtocolSpec:
    """Declarative pair-mode configuration for a kernel scenario.

    Parameters
    ----------
    selector:
        GETPAIR strategy name: ``"pm"``, ``"rand"``, ``"seq"`` or
        ``"pmrand"``.
    track_phi:
        Record the per-node communication counts φ of every cycle in
        :attr:`~repro.kernel.engine.KernelRunResult.phi_counts`.
    track_s:
        Co-evolve Theorem 1's ``s`` vector as a second matrix column
        (instance id ``"s"``, seeded with the squared initial values).
    """

    selector: str = declare("choice", choices=PAIR_SELECTOR_NAMES)
    track_phi: bool = declare("flag", True)
    track_s: bool = declare("flag", False)

    __post_init__ = validate_fields

    def validate_topology(self, topology: Topology) -> None:
        """Raise if ``topology`` cannot host this selector."""
        validate_pair_topology(self.selector, topology)

    def bind(self, topology: Topology) -> PairDraw:
        """The pair generator for this selector over ``topology``."""
        self.validate_topology(topology)
        generator = _GENERATORS[self.selector]
        return lambda rng: generator(topology, rng)
