"""Pluggable execution backends for the gossip kernel.

Three implementations behind one contract (see :mod:`.base`):

* :class:`ReferenceBackend` — the semantic oracle: a plain sequential
  Python loop in exchange order.
* :class:`VectorizedBackend` — the single-process scale path: numpy
  structure-of-arrays conflict-free batches.
* :class:`ShardedBackend` — the multi-process scale path: the value
  matrix in :mod:`multiprocessing.shared_memory`, a persistent worker
  pool applying parent-published schedules, pipelined so the parent
  plans cycle ``t+1`` while the workers apply cycle ``t``.

All three are **bitwise identical** on the same engine inputs; the
cross-backend equivalence suites assert it. Specs (``"sharded:4"``,
``"sharded:auto"``) are parsed by :func:`parse_backend_spec` / built
by :func:`make_backend` in :mod:`.registry`.
"""

from .base import (
    GREEDY_TAIL,
    PAIR_CHUNK,
    SEGMENT_BATCH,
    SEGMENT_SEQUENTIAL,
    VIEW_TAIL,
    ExecutionBackend,
    GreedyScratch,
    Moments,
    MomentScratch,
    apply_disjoint_batch,
    apply_one_sided,
    apply_sequential,
    column_moments,
    first_occurrence_ready,
    iter_greedy_segments,
)
from .reference import ReferenceBackend
from .registry import (
    BACKEND_FORMS,
    BACKEND_NAMES,
    make_backend,
    parse_backend_spec,
)
from .sharded import (
    POOL_FAILURE_MODES,
    SHARD_CHUNK,
    SHARD_INLINE,
    SHARD_TAIL,
    PoolHealthReport,
    ShardedBackend,
    default_workers,
)
from .vectorized import VectorizedBackend

__all__ = [
    "BACKEND_FORMS",
    "BACKEND_NAMES",
    "ExecutionBackend",
    "GREEDY_TAIL",
    "GreedyScratch",
    "MomentScratch",
    "Moments",
    "PAIR_CHUNK",
    "POOL_FAILURE_MODES",
    "PoolHealthReport",
    "ReferenceBackend",
    "SEGMENT_BATCH",
    "SEGMENT_SEQUENTIAL",
    "SHARD_CHUNK",
    "SHARD_INLINE",
    "SHARD_TAIL",
    "ShardedBackend",
    "VIEW_TAIL",
    "VectorizedBackend",
    "apply_disjoint_batch",
    "apply_one_sided",
    "apply_sequential",
    "column_moments",
    "default_workers",
    "first_occurrence_ready",
    "iter_greedy_segments",
    "make_backend",
    "parse_backend_spec",
]
