"""Checkpoint/resume of engine state: the fault-tolerant run format.

The paper's protocol survives node crashes by design; this module makes
the *executor* survive process crashes. A checkpoint captures the full
mutable state of a :class:`~repro.kernel.engine.GossipEngine` — value
matrix, alive/participant masks, RNG state, cycle counter, membership
views, lifecycle counters — so that a restored engine continues the run
**bitwise-identically** on any backend: the engine owns all randomness,
so the only thing resume has to reproduce is the state the next cycle
reads, and that is exactly what is serialized.

On-disk format (version 1), two files per checkpoint in one directory:

* ``ck-<cycle:010d>.npz`` — the arrays (uncompressed ``npz``: the
  matrix is random float64 and does not compress, and checkpoint write
  latency is a benchmarked recovery metric). RNG state and epoch
  results are Python objects and ride as pickled ``uint8`` payloads.
* ``ck-<cycle:010d>.json`` — the manifest: format name + version, a
  SHA-256 checksum of the payload file, and the scenario fingerprint
  (size, instance layout, membership, bit-generator type) validated on
  restore.

The payload is the file :func:`numpy.savez` would write, byte for byte
but for the zip timestamps, written without its copies: each ``.npy``
member is its :mod:`numpy.lib.format` header followed by the array's
own memory, handed to the zip writer as a buffer (``np.savez`` copies
every member through ``tobytes`` first). Only numeric and bool members
are written; anything that would need pickling is refused, because the
engine pickles its Python members itself (:func:`pickle_payload`).
Once the payload is flushed, one helper thread hashes the finished file
while the calling thread waits in :func:`os.fsync` for it to reach the
disk; both are done, and a hashing error is re-raised, before the
manifest is written. The checksum is therefore always that of the bytes
on disk, and the payload is durable before the manifest names it.

Both files are written to a temporary sibling and moved into place
with :func:`os.replace`, payload **before** manifest — the manifest is
the commit record, so a crash mid-checkpoint can never corrupt the
last good checkpoint: either the new manifest exists and its checksum
matches a fully written payload, or the previous checkpoint is still
the newest valid one. :func:`latest_checkpoint` skips anything else.

Reading verifies the checksum before anything is decoded and loads each
member into an array of its own. A manifest that is not a JSON object,
a payload that cannot be read and a checksum mismatch all end in
:class:`~repro.errors.CheckpointError`. :meth:`GossipEngine.restore
<repro.kernel.engine.GossipEngine.restore>` then checks it against the
scenario (:func:`check_restorable`), allocates the engine around the
loaded matrix — the backend adopts it like any initial matrix — and
loads and audits the rest: no initial state is built, nothing drawn.

:class:`CheckpointSpec` drives periodic auto-checkpointing from
:meth:`GossipEngine.run(..., checkpoint=...)
<repro.kernel.engine.GossipEngine.run>`: a checkpoint every
``every_cycles`` cycles, pruned to the ``keep`` newest (manifest
removed first, so a half-pruned checkpoint is simply not discovered,
never half-read).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import threading
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..errors import CheckpointError
from ..fields import declare, validate_fields
from ..rng import make_rng

#: manifest ``format`` field — rejects foreign json files outright
CHECKPOINT_FORMAT = "repro-checkpoint"

#: current on-disk format version; bump on incompatible layout changes
CHECKPOINT_VERSION = 1

#: checkpoint file stem: sortable by cycle lexicographically
_STEM_PATTERN = re.compile(r"^ck-(\d{10})$")

#: hashing block size for the payload checksum
_HASH_BLOCK = 1 << 20

#: dtype kinds a payload member may have: bool, integers, floats,
#: complex — the kinds whose memory is the member's content
_RAW_KINDS = "biufc"


@dataclass(frozen=True)
class CheckpointSpec:
    """Periodic auto-checkpoint policy for :meth:`GossipEngine.run`.

    Parameters
    ----------
    directory:
        Where checkpoints land (created on first write).
    every_cycles:
        Write a checkpoint after every this many completed cycles.
    keep:
        Keep only the newest ``keep`` checkpoints, pruning older ones
        after each write; ``None`` keeps everything.
    """

    directory: Union[str, Path] = declare("spec", type=(str, os.PathLike))
    every_cycles: int = declare("count", 1, low=1)
    keep: Optional[int] = declare("count", None, low=1)

    __post_init__ = validate_fields

    @property
    def path(self) -> Path:
        return Path(self.directory)


def _stem(cycle: int) -> str:
    return f"ck-{cycle:010d}"


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_HASH_BLOCK)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def _atomic_replace(tmp: Path, final: Path) -> None:
    """Publish ``tmp`` as ``final`` atomically (same directory, so the
    rename cannot cross filesystems)."""
    os.replace(tmp, final)


def _write_members(fh, arrays: Dict[str, np.ndarray]) -> None:
    """Write ``arrays`` to ``fh`` as the uncompressed zip of ``.npy``
    members that :func:`numpy.savez` writes, each member straight from
    the array's memory."""
    with zipfile.ZipFile(
        fh, mode="w", compression=zipfile.ZIP_STORED, allowZip64=True
    ) as bundle:
        for name, value in arrays.items():
            array = np.asanyarray(value)
            if array.dtype.kind not in _RAW_KINDS:
                raise CheckpointError(
                    f"checkpoint member {name!r} has dtype {array.dtype}; "
                    f"only numeric and bool arrays are written (pickle "
                    f"Python objects with pickle_payload)"
                )
            header = np.lib.format.header_data_from_array_1_0(array)
            # savez's member bytes: a Fortran-ordered array's data is
            # its transpose in C order, anything else C order
            data = (array.T if header["fortran_order"]
                    else np.ascontiguousarray(array))
            # savez forces zip64 on every member; so does the format
            with bundle.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, header)
                member.write(data)


def _fsync_while_hashing(fh, path: Path) -> str:
    """Flush ``fh`` (open on ``path``) to disk and return the SHA-256 of
    ``path``: a helper thread hashes the finished file while this one
    waits in :func:`os.fsync`. The thread is joined before this returns
    or raises, and an error it raised is re-raised here."""
    fh.flush()
    outcome: List[object] = []

    def hash_payload() -> None:
        try:
            outcome.append(_sha256_file(path))
        except BaseException as error:  # re-raised by the calling thread
            outcome.append(error)

    hasher = threading.Thread(target=hash_payload, name="checkpoint-sha256")
    hasher.start()
    try:
        os.fsync(fh.fileno())
    finally:
        hasher.join()
    (digest,) = outcome
    if isinstance(digest, BaseException):
        raise digest
    return digest


def write_checkpoint(
    directory: Union[str, Path],
    arrays: Dict[str, np.ndarray],
    manifest: Dict[str, object],
) -> Path:
    """Write one checkpoint (payload then manifest, each via
    write-to-temp + :func:`os.replace`) and return the manifest path.

    ``manifest`` must carry the ``cycle`` the checkpoint was taken at;
    format/version/checksum/payload fields are filled in here.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cycle = int(manifest["cycle"])
    stem = _stem(cycle)
    payload = directory / f"{stem}.npz"
    manifest_path = directory / f"{stem}.json"
    tmp_payload = directory / f".tmp-{stem}-{os.getpid()}.npz"
    tmp_manifest = directory / f".tmp-{stem}-{os.getpid()}.json"
    try:
        with open(tmp_payload, "wb") as fh:
            _write_members(fh, arrays)
            sha256 = _fsync_while_hashing(fh, tmp_payload)
        record = dict(manifest)
        record["format"] = CHECKPOINT_FORMAT
        record["version"] = CHECKPOINT_VERSION
        record["payload"] = payload.name
        record["sha256"] = sha256
        _atomic_replace(tmp_payload, payload)
        with open(tmp_manifest, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        # the commit point: once the manifest is in place the
        # checkpoint is discoverable; before it, the payload is an
        # invisible orphan a crashed writer leaves behind harmlessly
        _atomic_replace(tmp_manifest, manifest_path)
    finally:
        for tmp in (tmp_payload, tmp_manifest):
            try:
                tmp.unlink()
            except FileNotFoundError:
                pass
    return manifest_path


def read_manifest(manifest_path: Union[str, Path]) -> Dict[str, object]:
    """Load and structurally validate one manifest (no checksum yet)."""
    manifest_path = Path(manifest_path)
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint manifest at {manifest_path}")
    except (OSError, json.JSONDecodeError) as error:
        raise CheckpointError(
            f"unreadable checkpoint manifest {manifest_path}: {error}"
        ) from error
    if not isinstance(manifest, dict) or (
        manifest.get("format") != CHECKPOINT_FORMAT
    ):
        raise CheckpointError(
            f"{manifest_path} is not a {CHECKPOINT_FORMAT} manifest"
        )
    version = manifest.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {manifest_path} has format version {version}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    for key in ("payload", "sha256", "cycle"):
        if key not in manifest:
            raise CheckpointError(
                f"checkpoint manifest {manifest_path} is missing {key!r}"
            )
    return manifest


#: the payload members every checkpoint holds, whatever the scenario
_REQUIRED_MEMBERS = ("matrix", "free_slots", "rng_state", "epoch_results")


def check_restorable(scenario, manifest: Dict[str, object],
                     arrays: Dict[str, np.ndarray]) -> None:
    """Raise :class:`CheckpointError` unless ``scenario`` can resume
    the checkpoint ``(manifest, arrays)``: the configuration it was
    taken under (size, membership layer, pair mode, dynamic-overlay
    flag, bit generator), its instance layout, the members every
    checkpoint holds and a float64 ``(slots, instances)`` matrix. Needs
    no engine, so nothing is built for a checkpoint that fails it."""
    expected = {
        "n": scenario.n,
        "membership": "oracle" if scenario.membership is None else "newscast",
        "pair_mode": scenario.pair_protocol is not None,
        "dynamic": scenario.is_dynamic,
        "bit_generator": type(make_rng(scenario.seed).bit_generator).__name__,
    }
    for key, value in expected.items():
        if manifest.get(key) != value:
            raise CheckpointError(
                f"checkpoint was taken under {key}={manifest.get(key)!r}; "
                f"this scenario has {key}={value!r}"
            )
    names = [str(name) for name in scenario.instance_names]
    rebuilt = manifest.get("instances_rebuilt")
    if rebuilt and scenario.epochs is None:
        raise CheckpointError(
            "checkpoint holds an epoch-rebuilt instance layout but this "
            "scenario declares no epochs"
        )
    if not rebuilt and names != list(manifest.get("instances", ())):
        raise CheckpointError(
            f"checkpoint instances {manifest.get('instances')} do not "
            f"match the scenario's {names}"
        )
    missing = [key for key in _REQUIRED_MEMBERS if key not in arrays]
    if missing:
        raise CheckpointError(
            f"checkpoint payload holds no {', '.join(map(repr, missing))} "
            f"member; every checkpoint has one"
        )
    # an epoch restart may have rebuilt the instances to any number
    matrix = arrays["matrix"]
    if matrix.dtype != np.float64 or matrix.ndim != 2 or not (
        rebuilt or matrix.shape[1] == len(names)
    ):
        raise CheckpointError(
            f"checkpoint matrix is {matrix.dtype} {matrix.shape}, not "
            f"float64 with a column per instance"
        )


def resolve_checkpoint(path: Union[str, Path]) -> Path:
    """Normalize a user-supplied checkpoint reference to its manifest
    path: a directory resolves to its newest valid checkpoint, a
    payload (``.npz``) to its sibling manifest, a manifest passes
    through."""
    path = Path(path)
    if path.is_dir():
        latest = latest_checkpoint(path)
        if latest is None:
            raise CheckpointError(f"no valid checkpoint found in {path}")
        return latest
    if path.suffix == ".npz":
        return path.with_suffix(".json")
    return path


def read_checkpoint(
    path: Union[str, Path]
) -> tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Load one checkpoint and verify its checksum.

    ``path`` may be the manifest (``.json``), the payload (``.npz``),
    or a directory (resolved through :func:`latest_checkpoint`).
    Returns ``(manifest, arrays)`` with the payload fully materialized
    on the heap (no open file handles survive the call). Every failure
    — no manifest, no payload, an unreadable or corrupt file — raises
    :class:`~repro.errors.CheckpointError`.
    """
    path = resolve_checkpoint(path)
    manifest = read_manifest(path)
    payload = path.parent / str(manifest["payload"])
    if not payload.exists():
        raise CheckpointError(
            f"checkpoint payload {payload} is missing (manifest {path})"
        )
    try:
        digest = _sha256_file(payload)
        if digest != manifest["sha256"]:
            raise CheckpointError(
                f"checkpoint payload {payload} fails its checksum "
                f"(expected {manifest['sha256']}, got {digest}); the "
                f"file is corrupt or was tampered with"
            )
        # the pickled members (RNG state, epoch results) are loaded
        # explicitly by the engine; everything here is a plain array,
        # and np.load reads each member into a fresh, writable array
        with np.load(payload, allow_pickle=False) as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
    except (OSError, ValueError, zipfile.BadZipFile) as error:
        raise CheckpointError(
            f"unreadable checkpoint payload {payload}: {error}"
        ) from error
    return manifest, arrays


def unpickle_payload(array: np.ndarray):
    """Deserialize a pickled member written by the engine (RNG state,
    epoch results). Only reachable after the checksum passed, so the
    pickle is as trustworthy as the checkpoint directory itself."""
    return pickle.loads(np.ascontiguousarray(array, dtype=np.uint8).tobytes())


def pickle_payload(obj) -> np.ndarray:
    """Serialize an arbitrary Python member for the payload bundle."""
    return np.frombuffer(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL), dtype=np.uint8
    )


def list_checkpoints(directory: Union[str, Path]) -> List[Path]:
    """Manifest paths in ``directory`` with well-formed names, oldest
    first. No checksum validation (see :func:`latest_checkpoint`)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        if entry.suffix != ".json":
            continue
        if _STEM_PATTERN.match(entry.stem):
            found.append(entry)
    return sorted(found)


def latest_checkpoint(directory: Union[str, Path]) -> Optional[Path]:
    """The newest *valid* checkpoint manifest in ``directory`` (or
    ``None``): invalid or torn checkpoints — a manifest without its
    payload, a checksum mismatch — are skipped, so a crash during a
    checkpoint write silently falls back to the previous good one."""
    for manifest_path in reversed(list_checkpoints(directory)):
        try:
            manifest = read_manifest(manifest_path)
            payload = manifest_path.parent / str(manifest["payload"])
            if _sha256_file(payload) == manifest["sha256"]:
                return manifest_path
        except (CheckpointError, OSError):
            continue
    return None


def prune_checkpoints(directory: Union[str, Path], keep: int) -> int:
    """Remove all but the ``keep`` newest checkpoints; returns how many
    were pruned. The manifest goes first — without it the payload is
    never discovered, so a crash mid-prune leaves no torn state."""
    manifests = list_checkpoints(directory)
    doomed = manifests[:-keep] if keep > 0 else manifests
    for manifest_path in doomed:
        payload = manifest_path.with_suffix(".npz")
        try:
            manifest_path.unlink()
        except FileNotFoundError:
            pass
        try:
            payload.unlink()
        except FileNotFoundError:
            pass
    return len(doomed)
