"""Exception hierarchy for the :mod:`repro` library.

All errors raised intentionally by the library derive from
:class:`ReproError` so that callers can catch library failures with a
single ``except`` clause while letting programming errors (``TypeError``
etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was configured with invalid or inconsistent parameters."""


class BackendSpecError(ConfigurationError):
    """An execution-backend spec could not be parsed or resolved.

    Raised for unknown backend names and malformed parameterized specs
    (e.g. ``"sharded:zero"``). Carries the offending ``spec`` and the
    tuple of ``valid_backends`` so user-facing layers can print the
    complete set of accepted forms.
    """

    def __init__(self, spec, *, valid=(), reason=None):
        self.spec = spec
        self.valid_backends = tuple(valid)
        detail = f" ({reason})" if reason else ""
        options = ", ".join(repr(form) for form in self.valid_backends)
        super().__init__(
            f"invalid execution backend {spec!r}{detail}; "
            f"valid backends: {options}"
        )


class TopologyError(ReproError):
    """An overlay topology is malformed or cannot be constructed.

    Examples: requesting a k-regular graph with ``n * k`` odd, asking for
    a neighbor of an isolated node, or referring to a node id outside the
    topology.
    """


class SimulationError(ReproError):
    """The simulator reached an inconsistent state.

    This indicates a bug in a protocol implementation (e.g. an event
    scheduled in the past) rather than a user mistake.
    """


def _rebuild_shard_pool_error(phase, worker, detail):
    """Unpickling hook for :class:`ShardPoolError` (module-level so the
    pickle payload names an importable callable)."""
    return ShardPoolError(phase, worker=worker, detail=detail)


class ShardPoolError(SimulationError):
    """The sharded backend's worker pool failed, stalled or died.

    Wraps the raw multiprocessing failures (a broken pipe to a dead
    worker, a :class:`threading.BrokenBarrierError` from a barrier
    timeout, a missing acknowledgement) in one typed error naming the
    ``phase`` of the shard protocol that failed (``"command"``,
    ``"remap"``, ``"apply"``, ``"moments"``, ``"barrier"``) and, where
    it is known, the index of the ``worker`` that stalled or exited.
    The full worker diagnostics (tracebacks drained from the command
    pipes) ride in ``detail``.
    """

    def __init__(self, phase, *, worker=None, detail=""):
        self.phase = phase
        self.worker = worker
        self.detail = detail
        culprit = (
            f"worker {worker} stalled or exited"
            if worker is not None
            else "a worker stalled or exited"
        )
        message = (
            f"sharded worker pool failed during {phase}: {culprit}"
        )
        if detail:
            message = f"{message}\n{detail}"
        super().__init__(message)

    def __reduce__(self):
        # the default reduce would re-call __init__ with the assembled
        # *message* as the positional phase argument; spell the real
        # constructor arguments out so the error crosses process
        # boundaries (worker -> parent pipes, CI subprocesses) intact
        return _rebuild_shard_pool_error, (
            self.phase, self.worker, self.detail,
        )

    def __repr__(self):
        # one greppable CI-log line: phase + worker + collapsed detail
        detail = " | ".join(
            line.strip() for line in self.detail.splitlines() if line.strip()
        )
        if len(detail) > 160:
            detail = detail[:157] + "..."
        return (
            f"ShardPoolError(phase={self.phase!r}, worker={self.worker!r}, "
            f"detail={detail!r})"
        )


class InvariantViolation(SimulationError):
    """A registered invariant monitor found a violated run invariant.

    Raised by :class:`~repro.kernel.engine.GossipEngine` at the end of
    the offending cycle when the violated monitor was registered in
    ``strict`` mode; carries the structured ``findings`` (a tuple of
    :class:`~repro.kernel.invariants.InvariantFinding`) so callers can
    attribute the failure without re-parsing the message.
    """

    def __init__(self, message, findings=()):
        self.findings = tuple(findings)
        super().__init__(message)


class CheckpointError(SimulationError):
    """A checkpoint could not be written, read or validated.

    Raised for missing or torn checkpoint files, checksum mismatches,
    format-version skew, and restore-time fingerprint mismatches (a
    checkpoint resumed against an incompatible scenario).
    """


class ProtocolError(ReproError):
    """A protocol message or state transition violated the protocol rules."""


class PairSelectionError(ReproError):
    """A GETPAIR implementation could not produce a valid pair.

    Raised, for instance, when a perfect matching is requested on a
    topology that admits none, or when a selector is exhausted.
    """


class EstimationError(ReproError):
    """An aggregate estimate could not be produced (e.g. no leader instance
    reached the node during the epoch)."""
