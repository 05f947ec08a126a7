"""Seeded random-number-stream management.

Every stochastic component in the library draws randomness from a
:class:`numpy.random.Generator`. This module centralizes how those
generators are created so that

* a single integer seed reproduces an entire experiment, and
* independent components (nodes, runs, churn model, transport) receive
  *independent* streams, via :meth:`numpy.random.SeedSequence.spawn`.

The paper reports averages over 50 independent runs;
:func:`spawn_streams` produces the per-run generators for exactly that
pattern.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

from .errors import ConfigurationError
from .fields import check_count, check_seed

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (OS entropy), an ``int``, a
    ``SeedSequence``, or an existing ``Generator`` (returned unchanged,
    which lets APIs accept either a seed or a ready-made stream).
    """
    if isinstance(check_seed(seed), np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_streams(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Spawn ``count`` statistically independent generators from ``seed``.

    Uses ``SeedSequence.spawn`` so the streams are independent even when
    ``seed`` is small or sequential.
    """
    check_count(count, "count", low=0)
    if isinstance(seed, np.random.Generator):
        # Derive a SeedSequence from the generator's own bit stream.
        children = np.random.SeedSequence(
            seed.integers(0, 2**63 - 1, size=4).tolist()
        ).spawn(count)
    elif isinstance(seed, np.random.SeedSequence):
        children = seed.spawn(count)
    else:
        children = np.random.SeedSequence(check_seed(seed)).spawn(count)
    return [np.random.default_rng(child) for child in children]


def derive_seed(seed: SeedLike, *path: int) -> np.random.SeedSequence:
    """Derive a child ``SeedSequence`` identified by an integer ``path``.

    Useful when a component needs a stable stream identity, e.g.
    ``derive_seed(seed, run_index, node_id)``.
    """
    for component in path:
        check_count(component, "seed path component", low=0)
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(
        seed if isinstance(check_seed(seed), (int, np.integer)) else None
    )
    return np.random.SeedSequence(
        entropy=base.entropy, spawn_key=tuple(base.spawn_key) + tuple(path)
    )


def random_permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    """A uniformly random permutation of ``range(n)`` as an int64 array."""
    check_count(n, "n", low=0)
    return rng.permutation(n)


def choice_excluding(
    rng: np.random.Generator, n: int, excluded: int
) -> int:
    """Uniform draw from ``range(n)`` excluding ``excluded``.

    Implemented without rejection: draw from ``n - 1`` values and shift.
    """
    if n < 2:
        raise ConfigurationError("need at least two values to exclude one")
    draw = int(rng.integers(0, n - 1))
    return draw + 1 if draw >= excluded else draw
