"""GETPAIR implementations (§3.3 of the paper).

Algorithm AVG (Figure 2) performs ``N`` elementary variance-reduction
steps per cycle, with pairs supplied by a selector:

* :class:`GetPairPerfectMatching` — §3.3.1, the optimal but artificial
  strategy: two disjoint perfect matchings per cycle, ``φ ≡ 2``,
  rate 1/4.
* :class:`GetPairRand` — §3.3.2, a uniformly random edge per call,
  ``φ ~ Poisson(2)``, rate 1/e.
* :class:`GetPairSeq` — §3.3.3, the practical protocol: iterate nodes in
  a fixed order, each picking a random neighbor, ``φ = 1 + Poisson(1)``
  (via the PMRAND argument), rate 1/(2√e).
* :class:`GetPairPMRand` — the analysis device of §3.3.3 that combines a
  PM half-cycle with a RAND half-cycle and has the same φ distribution
  as SEQ.

All selectors are *value-blind*: the pair sequence of a whole cycle can
be (and is) generated up front, which enables the vectorized draws used
at paper scale. Each selector exposes :meth:`cycle_pairs` returning an
``(N, 2)`` array of index pairs — one cycle's worth of GETPAIR calls.

Since the pair-mode kernel refactor the sequence generation itself is
hosted in :mod:`repro.kernel.pairs` — the same draws the
:class:`~repro.kernel.engine.GossipEngine` makes when a scenario
declares a :class:`~repro.kernel.pairs.PairProtocolSpec` — and these
classes are thin, API-stable shells binding a selector name to a
topology.
"""

from __future__ import annotations

from abc import ABC

import numpy as np

from ..kernel.pairs import (
    pairs_pm,
    pairs_pmrand,
    pairs_rand,
    pairs_seq,
    validate_pair_topology,
)
from ..topology.base import Topology


class PairSelector(ABC):
    """Produces the per-cycle pair sequence consumed by algorithm AVG.

    The subclasses set :attr:`name` (the kernel's selector id) and
    :attr:`_generator` and inherit everything else: construction
    validates the topology preconditions (an unknown name is a
    :class:`~repro.errors.ConfigurationError`) and :meth:`cycle_pairs`
    delegates to the kernel generator.
    """

    #: short identifier used in experiment reports, and the kernel's
    #: :attr:`~repro.kernel.pairs.PairProtocolSpec.selector`
    name: str = "abstract"

    def __init__(self, topology: Topology):
        validate_pair_topology(self.name, topology)
        self._topology = topology

    @property
    def topology(self) -> Topology:
        """The overlay the pairs are drawn from."""
        return self._topology

    @property
    def n(self) -> int:
        """Network size."""
        return self._topology.n

    def cycle_pairs(self, rng: np.random.Generator) -> np.ndarray:
        """The ``(calls, 2)`` pair sequence for one cycle of AVG.

        Every row is an ``(i, j)`` pair with ``i != j`` and, for sparse
        topologies, ``(i, j)`` an edge of the overlay. The number of
        calls per cycle is ``N`` for every selector in the paper.
        """
        return type(self)._generator(self._topology, rng)

    def phi_counts(self, pairs: np.ndarray) -> np.ndarray:
        """Per-node selection counts φ_k for a cycle's pair sequence."""
        counts = np.bincount(pairs.ravel(), minlength=self.n)
        return counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n})"


class GetPairPerfectMatching(PairSelector):
    """GETPAIR_PM (§3.3.1): two disjoint perfect matchings per cycle.

    Only supported on the complete topology: the strategy "requires
    global knowledge of the system" and serves purely as the optimal
    reference. ``N`` must be even so a perfect matching exists.
    """

    name = "pm"
    _generator = staticmethod(pairs_pm)


class GetPairRand(PairSelector):
    """GETPAIR_RAND (§3.3.2): each call returns a uniformly random edge.

    On the complete graph this is a uniform distinct pair; on sparse
    overlays a uniform draw from the edge list. φ is (approximately)
    Poisson with parameter 2.
    """

    name = "rand"
    _generator = staticmethod(pairs_rand)


class GetPairSeq(PairSelector):
    """GETPAIR_SEQ (§3.3.3): iterate the node set in a fixed order, each
    node picking a uniformly random neighbor.

    This is the selector that maps onto the practical distributed
    protocol of Figure 1: every node initiates exactly once per cycle,
    so ``φ = 1 + φ'`` with ``φ' ≈ Poisson(1)``.
    """

    name = "seq"
    _generator = staticmethod(pairs_seq)


class GetPairPMRand(PairSelector):
    """GETPAIR_PMRAND (§3.3.3): PM for the first N/2 calls of a cycle,
    RAND for the remaining N/2.

    A non-practical analysis device: it satisfies Theorem 1's
    assumptions while sharing SEQ's φ distribution (1 + Poisson(1)),
    which is how the paper derives SEQ's 1/(2√e) rate. Requires the
    complete topology and even N, like PM.
    """

    name = "pmrand"
    _generator = staticmethod(pairs_pmrand)
