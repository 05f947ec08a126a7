"""Declarative fault injection for the fault-tolerance test harness.

A :class:`FaultSpec` names one failure to provoke at a precise point of
a sharded run — kill worker ``W`` right before apply call ``S`` is
published, delay a worker's acknowledgements past the pool timeout,
corrupt a scheduled step bank so the workers crash mid-segment — and
:meth:`ShardedBackend.inject_faults
<repro.kernel.backends.sharded.ShardedBackend.inject_faults>` arms a
backend with a batch of them. Injection is deliberately parent-side and
deterministic: faults fire at an exact apply-call index, never on a
timer, so a fault test is as reproducible as the trajectory it
disturbs.

The fourth kind, ``parent_kill``, cannot be injected *into* a backend
— it is the parent that dies. :func:`spawn_and_kill` orchestrates it
from outside: launch a checkpointing run as a subprocess, SIGKILL it
the moment its first checkpoint commits, and hand the surviving
checkpoint back so the caller can resume it and assert bitwise
equality with an undisturbed run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from ..errors import ConfigurationError, SimulationError
from ..fields import declare, validate_fields
from .checkpoint import latest_checkpoint

#: every fault kind the harness knows how to provoke
FAULT_KINDS = ("kill_worker", "delay_ack", "corrupt_bank", "parent_kill")

#: kinds a ShardedBackend can fire itself (``parent_kill`` is external)
BACKEND_FAULT_KINDS = ("kill_worker", "delay_ack", "corrupt_bank")

#: seconds :func:`spawn_and_kill` sleeps between checkpoint polls —
#: about how long the run goes on past its first commit before the kill
KILL_POLL = 0.05


@dataclass(frozen=True)
class FaultSpec:
    """One failure to provoke, pinned to an exact apply call.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`. ``kill_worker`` SIGKILLs worker
        ``worker`` right before apply call ``at_call`` publishes;
        ``delay_ack`` makes that worker sleep ``delay`` seconds before
        processing the call (exceeding the pool timeout turns it into
        a detected hang); ``corrupt_bank`` overwrites the call's
        scheduled step indices with out-of-range rows after they were
        journaled, so the workers crash but recovery replays clean
        state; ``parent_kill`` is orchestrated by
        :func:`spawn_and_kill`, never injected into a backend.
    worker:
        Pool index of the targeted worker (ignored by
        ``corrupt_bank``/``parent_kill``).
    at_call:
        0-based index of the backend apply call the fault fires at.
    delay:
        Sleep seconds for ``delay_ack``.
    """

    kind: str = declare("choice", choices=FAULT_KINDS)
    worker: int = declare("count", 0, low=0)
    at_call: int = declare("count", 0, low=0)
    delay: float = declare("real", 0.0, low=0)

    def __post_init__(self) -> None:
        validate_fields(self)
        if self.kind == "delay_ack" and self.delay == 0:
            raise ConfigurationError(
                "delay_ack needs a positive delay to have any effect"
            )


def spawn_and_kill(
    argv: Sequence[str],
    checkpoint_dir: Union[str, Path],
    *,
    timeout: float = 120.0,
    env: Optional[dict] = None,
) -> Path:
    """Launch ``argv``, SIGKILL it as soon as a checkpoint commits,
    return the newest valid checkpoint manifest.

    The harness for ``parent_kill``: the subprocess is a run writing
    periodic checkpoints into ``checkpoint_dir``; the moment
    :func:`~repro.kernel.checkpoint.latest_checkpoint` sees a valid
    one, the process is killed with no chance to clean up — the
    closest a test gets to pulling the plug. The returned manifest is
    what a resumed run continues from.

    ``argv`` beginning with ``"python"`` is rewritten to the running
    interpreter so the subprocess sees the same environment.
    """
    argv = list(argv)
    if argv and argv[0] == "python":
        argv[0] = sys.executable
    run_env = dict(os.environ)
    if env:
        run_env.update(env)
    checkpoint_dir = Path(checkpoint_dir)
    proc = subprocess.Popen(
        argv,
        env=run_env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + timeout
    try:
        while True:
            manifest = latest_checkpoint(checkpoint_dir)
            if manifest is not None:
                # no SIGTERM courtesy: the whole point is an abrupt end
                proc.send_signal(signal.SIGKILL)
                return manifest
            if proc.poll() is not None:
                stderr = (proc.stderr.read() or b"").decode(
                    "utf-8", "replace"
                )
                raise SimulationError(
                    f"spawn_and_kill: process exited with code "
                    f"{proc.returncode} before writing a checkpoint"
                    f"{chr(10) + stderr if stderr.strip() else ''}"
                )
            if time.monotonic() > deadline:
                raise SimulationError(
                    f"spawn_and_kill: no checkpoint appeared in "
                    f"{checkpoint_dir} within {timeout:g}s"
                )
            time.sleep(KILL_POLL)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        if proc.stderr is not None:
            proc.stderr.close()
