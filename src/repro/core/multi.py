"""Running several aggregation instances in one exchange.

§4 notes that "multiple nodes [may] start concurrent instances of the
averaging protocol", each tagged with a unique identifier. More
generally a deployment computes several aggregates at once (mean, max,
min, second moment …) by piggybacking all instance values on the same
push-pull exchange. :class:`MultiAggregateSpec` declares that bundle
network-wide, laid out the way the gossip kernel executes it: a fixed
column order over an ``(n, k)`` value matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .aggregates import AggregateFunction


@dataclass(frozen=True)
class MultiAggregateSpec:
    """Network-wide declaration of concurrent aggregation instances.

    The spec fixes the instance set and column order for the whole
    overlay, which is exactly what the kernel's ``(n, k)`` value matrix
    needs: column ``c`` of the matrix is instance ``names[c]`` on every
    node, combined with ``functions[c]`` on every exchange.
    """

    names: Tuple[Hashable, ...]
    functions: Tuple[AggregateFunction, ...]
    initial: Mapping[Hashable, np.ndarray]

    def __post_init__(self):
        if len(self.names) == 0:
            raise ConfigurationError("spec needs at least one instance")
        if len(self.names) != len(set(self.names)):
            raise ConfigurationError("instance ids must be unique")
        if len(self.functions) != len(self.names):
            raise ConfigurationError(
                f"{len(self.names)} instances but {len(self.functions)} "
                f"functions"
            )
        unknown = set(self.initial) - set(self.names)
        if unknown:
            raise ConfigurationError(
                f"initial vectors for unknown instances: "
                f"{sorted(map(str, unknown))}"
            )

    @classmethod
    def build(
        cls,
        instances: Mapping[Hashable, AggregateFunction],
        *,
        initial: Optional[Mapping[Hashable, Sequence[float]]] = None,
    ) -> "MultiAggregateSpec":
        """Spec from an ordered instance-id → function mapping, with
        optional per-instance initial vectors."""
        return cls(
            names=tuple(instances),
            functions=tuple(instances.values()),
            initial={
                name: np.asarray(column, dtype=np.float64)
                for name, column in (initial or {}).items()
            },
        )

    @property
    def aggregates(self) -> Dict[Hashable, AggregateFunction]:
        """The ordered instance-id → function mapping (the shape
        :class:`~repro.kernel.Scenario` consumes)."""
        return dict(zip(self.names, self.functions))

    def scenario(self, topology, values, **kwargs):
        """Build a kernel :class:`~repro.kernel.Scenario` running every
        instance of this spec in one pass over ``topology``.

        ``values`` seeds instances with no explicit initial vector;
        ``kwargs`` forward to the Scenario (loss, failures, seed,
        backend, cycles).
        """
        from ..kernel.scenario import Scenario

        return Scenario(
            topology,
            values,
            aggregates=self.aggregates,
            initial=self.initial or None,
            **kwargs,
        )
