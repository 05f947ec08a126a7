"""A test fake that observes the exchanges a run applies.

The engine draws every exchange and hands each backend the same
``(exch_i, exch_j)`` arrays, so recording them on the reference
backend shows what any backend applies. Run it with
``Scenario(..., backend=RecordingBackend())``.
"""

import numpy as np

from repro.kernel.backends import ReferenceBackend


class RecordingBackend(ReferenceBackend):
    """The reference backend, keeping every applied exchange."""

    def __init__(self):
        self.calls = []

    def apply_exchanges(self, matrix, functions, exch_i, exch_j):
        # the engine reuses its exchange buffers across cycles
        self.calls.append((exch_i.copy(), exch_j.copy()))
        super().apply_exchanges(matrix, functions, exch_i, exch_j)

    def exchanges(self) -> np.ndarray:
        """Every recorded exchange, in order, as ``(initiator,
        responder)`` rows."""
        return np.column_stack((
            np.concatenate([i for i, _ in self.calls]),
            np.concatenate([j for _, j in self.calls]),
        ))
