"""Durable, crash-safe run state for the multilevel placer.

This module persists each completed level's placement snapshot to a
*run directory* so that a killed run (SIGKILL, OOM, machine fault) can
be resumed from the last durable level and reproduce the uninterrupted
result bit-for-bit.  It also owns the record format every durable file
of the package shares — :func:`atomic_write`, the sealed-JSON envelope
(:func:`seal` / :func:`unseal`), :func:`quarantine`,
:func:`flip_bytes` and :func:`read_snapshot`; see "Sealed records" in
docs/resilience.md for its five users.

Layout of a run directory::

    <run_dir>/
        manifest.json            # versioned run manifest, sealed
        snapshots/
            level_0000.ckpt      # placement after the initial QP
            level_0001.ckpt      # placement after level 1
            ...
        quarantine/              # corrupt files moved aside, never read

Durability contract — every write is *atomic and fsynced*:

1. encode payload with an embedded SHA-256 checksum,
2. write to ``<name>.tmp.<pid>`` in the same directory,
3. ``flush`` + ``os.fsync`` the file,
4. ``os.replace`` onto the final name (atomic on POSIX),
5. ``os.fsync`` the directory so the rename itself is durable.

A reader therefore sees either the previous complete version or the
new complete version, never a torn write.  Any file whose checksum,
magic, or structure does not verify is *quarantined* (moved into
``quarantine/``) and treated as absent; resume falls back to the next
older durable level instead of crashing.

Snapshot encoding is exact: cell centers are stored as raw
little-endian float64 bytes, so ``encode → decode`` is bit-identical
to :meth:`Netlist.snapshot`/``restore`` for every placement, including
degenerate ones (0 cells, all-fixed, NaN-free guarantees are *not*
assumed).

Fault-injection sites (see :mod:`repro.resilience.faultinject`):

* ``ckpt.write``   — hit before every snapshot write; ``kill`` rules
  here simulate SIGKILL landing mid-checkpoint.
* ``ckpt.corrupt`` — a ``corrupt`` rule makes the writer flip payload
  bytes *after* checksumming, so the next read must detect and
  quarantine the file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.netlist import Netlist, PlacementSnapshot
from repro.obs import incr, span
from repro.resilience.errors import PipelineStageError
from repro.resilience.faultinject import corruption, inject

__all__ = [
    "SNAPSHOT_MAGIC",
    "MANIFEST_VERSION",
    "CorruptRunStateError",
    "LevelRecord",
    "RunManifest",
    "RunStateStore",
    "atomic_write",
    "config_hash",
    "encode_snapshot",
    "decode_snapshot",
    "flip_bytes",
    "quarantine",
    "read_snapshot",
    "seal",
    "unseal",
]

SNAPSHOT_MAGIC = "repro-snap-v1"
MANIFEST_VERSION = 1
_FLOAT = "<f8"  # little-endian float64, the netlist's native dtype


class CorruptRunStateError(PipelineStageError):
    """A run-state file failed its checksum / structure verification.

    Raised by the low-level codec; the store catches it, quarantines
    the offending file, and degrades to the next older level — callers
    of the store never see it for snapshot files.
    """


def config_hash(payload: Dict) -> str:
    """Stable hash of a run configuration (options + instance shape).

    Resume refuses to mix checkpoints produced under one configuration
    with a continuation under another — the results would silently
    diverge from the uninterrupted run.
    """
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# snapshot codec
# ----------------------------------------------------------------------
def encode_snapshot(snap: PlacementSnapshot, level: int) -> bytes:
    """Serialize a placement snapshot: one JSON header line + raw
    float64 payload, checksum embedded in the header."""
    x = np.ascontiguousarray(snap.x, dtype=np.float64)
    y = np.ascontiguousarray(snap.y, dtype=np.float64)
    payload = x.astype(_FLOAT, copy=False).tobytes() + y.astype(
        _FLOAT, copy=False
    ).tobytes()
    header = {
        "magic": SNAPSHOT_MAGIC,
        "level": int(level),
        "num_cells": int(len(x)),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    return json.dumps(header, sort_keys=True).encode() + b"\n" + payload


def decode_snapshot(data: bytes) -> Tuple[PlacementSnapshot, int]:
    """Inverse of :func:`encode_snapshot`; verifies magic, structure,
    and checksum.  Raises :class:`CorruptRunStateError` on any
    mismatch."""
    try:
        head_raw, payload = data.split(b"\n", 1)
        header = json.loads(head_raw)
        magic = header["magic"]
        level = int(header["level"])
        n = int(header["num_cells"])
        digest = header["sha256"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptRunStateError(
            f"snapshot header unreadable: {exc}", stage="runstate.decode"
        ) from exc
    if magic != SNAPSHOT_MAGIC:
        raise CorruptRunStateError(
            f"snapshot magic {magic!r} != {SNAPSHOT_MAGIC!r}",
            stage="runstate.decode",
        )
    if len(payload) != 2 * 8 * n:
        raise CorruptRunStateError(
            f"snapshot payload is {len(payload)} bytes, "
            f"expected {2 * 8 * n} for {n} cells",
            stage="runstate.decode",
        )
    if hashlib.sha256(payload).hexdigest() != digest:
        raise CorruptRunStateError(
            "snapshot checksum mismatch", stage="runstate.decode"
        )
    x = np.frombuffer(payload[: 8 * n], dtype=_FLOAT).astype(np.float64)
    y = np.frombuffer(payload[8 * n :], dtype=_FLOAT).astype(np.float64)
    return PlacementSnapshot(x, y), level


def read_snapshot(path: str, sha256: str) -> Tuple[PlacementSnapshot, int]:
    """Read the snapshot file at ``path``, check its bytes against the
    ``sha256`` its referencing record holds, and decode it.  Raises
    :class:`CorruptRunStateError` (caused by the ``OSError`` when the
    file cannot be read) on any failure."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise CorruptRunStateError(
            f"snapshot unreadable: {exc}", stage="runstate.decode"
        ) from exc
    if hashlib.sha256(data).hexdigest() != sha256:
        raise CorruptRunStateError(
            "snapshot file hash != its record", stage="runstate.decode"
        )
    return decode_snapshot(data)


def flip_bytes(data: bytes, start: int = 0) -> bytes:
    """Simulated media corruption for the ``corrupt`` fault sites:
    invert 8 bytes at the middle of ``data[start:]`` (byte 0 when that
    part is empty).  Applied after sealing, so the reader must refuse
    the file."""
    mangled = bytearray(data)
    mid = start + (len(data) - start) // 2
    for i in range(mid, min(mid + 8, len(mangled))):
        mangled[i] ^= 0xFF
    if mid >= len(mangled):
        mangled[0] ^= 0xFF
    return bytes(mangled)


# ----------------------------------------------------------------------
# sealed records: the one JSON envelope of every durable record
# ----------------------------------------------------------------------
def _digest(body: Any) -> str:
    canonical = json.dumps(body, sort_keys=True).encode()
    return hashlib.sha256(canonical).hexdigest()


def seal(key: str, body: Any) -> bytes:
    """``{key: body, "sha256": <SHA-256 of the canonical body>}``, the
    bytes every durable JSON record is written as."""
    return json.dumps(
        {key: body, "sha256": _digest(body)}, sort_keys=True, indent=1
    ).encode()


def unseal(key: str, raw: bytes, parse: Callable[[Any], Any]) -> Any:
    """Inverse of :func:`seal`: verify the checksum and return
    ``parse(body)``.  An undecodable envelope, a body that does not
    match its checksum and a verified body that ``parse`` rejects all
    raise :class:`CorruptRunStateError`."""
    try:
        outer = json.loads(raw)
        body = outer[key]
        digest = outer["sha256"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CorruptRunStateError(
            f"{key} unreadable: {exc}", stage="runstate.unseal"
        ) from exc
    if _digest(body) != digest:
        raise CorruptRunStateError(
            f"{key} checksum mismatch (body != embedded sha256)",
            stage="runstate.unseal",
        )
    try:
        return parse(body)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CorruptRunStateError(
            f"{key} malformed: {exc}", stage="runstate.unseal"
        ) from exc


def quarantine(path: str, dest: str, reason: str, counter: str) -> None:
    """Move a refused file to ``dest`` (never read again), leave a
    ``<dest>.reason`` note for a human, and count it in ``counter``."""
    os.makedirs(os.path.dirname(dest) or ".", exist_ok=True)
    try:
        os.replace(path, dest)
    except OSError:
        pass  # already gone — absence is what quarantine ensures
    incr(counter)
    try:
        with open(dest + ".reason", "w") as f:
            f.write(reason + "\n")
    except OSError:
        pass


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
@dataclass
class LevelRecord:
    """One durable level in the manifest."""

    level: int
    file: str
    sha256: str
    hpwl: float
    num_cells: int

    def to_dict(self) -> Dict:
        return {
            "level": self.level,
            "file": self.file,
            "sha256": self.sha256,
            "hpwl": self.hpwl,
            "num_cells": self.num_cells,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "LevelRecord":
        return cls(
            level=int(d["level"]),
            file=str(d["file"]),
            sha256=str(d["sha256"]),
            hpwl=float(d["hpwl"]),
            num_cells=int(d["num_cells"]),
        )


@dataclass
class RunManifest:
    """The versioned description of one placement run."""

    instance: str
    config_hash: str
    levels: int
    seed: Optional[int] = None
    version: int = MANIFEST_VERSION
    completed: List[LevelRecord] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "version": self.version,
            "instance": self.instance,
            "config_hash": self.config_hash,
            "levels": self.levels,
            "seed": self.seed,
            "completed": [r.to_dict() for r in self.completed],
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "RunManifest":
        if int(d.get("version", -1)) != MANIFEST_VERSION:
            raise PipelineStageError(
                f"run manifest version {d.get('version')!r} unsupported "
                f"(expected {MANIFEST_VERSION})",
                stage="runstate.manifest",
            )
        m = cls(
            instance=str(d["instance"]),
            config_hash=str(d["config_hash"]),
            levels=int(d["levels"]),
            seed=d.get("seed"),
            version=int(d["version"]),
        )
        m.completed = [LevelRecord.from_dict(r) for r in d["completed"]]
        return m

    @property
    def last_level(self) -> Optional[int]:
        return self.completed[-1].level if self.completed else None


# ----------------------------------------------------------------------
# atomic I/O
# ----------------------------------------------------------------------
def atomic_write(path: str, data: bytes) -> None:
    """write → flush → fsync → rename → fsync(dir)."""
    directory = os.path.dirname(path) or "."
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        # never leave a stray tmp file behind on ANY failure, then
        # re-raise (a kill-type fault bypasses this by design)
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class RunStateStore:
    """Durable checkpoint store rooted at one run directory."""

    MANIFEST = "manifest.json"
    SNAPSHOT_DIR = "snapshots"
    QUARANTINE_DIR = "quarantine"

    def __init__(self, run_dir: str) -> None:
        self.run_dir = run_dir
        self.manifest: Optional[RunManifest] = None
        os.makedirs(os.path.join(run_dir, self.SNAPSHOT_DIR), exist_ok=True)

    # -- paths ----------------------------------------------------------
    def _manifest_path(self) -> str:
        return os.path.join(self.run_dir, self.MANIFEST)

    def _snapshot_path(self, level: int) -> str:
        return os.path.join(
            self.run_dir, self.SNAPSHOT_DIR, f"level_{level:04d}.ckpt"
        )

    def _quarantine_path(self, path: str) -> str:
        return os.path.join(
            self.run_dir, self.QUARANTINE_DIR, os.path.basename(path)
        )

    # -- manifest -------------------------------------------------------
    def has_manifest(self) -> bool:
        return os.path.exists(self._manifest_path())

    def begin_run(
        self,
        instance: str,
        cfg_hash: str,
        levels: int,
        seed: Optional[int] = None,
    ) -> RunManifest:
        """Start a fresh run: write an empty manifest (discarding any
        previous run's records in this directory)."""
        self.manifest = RunManifest(
            instance=instance, config_hash=cfg_hash, levels=levels, seed=seed
        )
        self._write_manifest()
        incr("runstate.runs_started")
        return self.manifest

    def load_manifest(self) -> RunManifest:
        """Read and verify the manifest.

        The manifest is the root of trust for the run directory; if it
        does not verify, resume is impossible and the caller gets a
        structured error (exit code 4, not a traceback).
        """
        path = self._manifest_path()
        try:
            with open(path, "rb") as f:
                raw = f.read()
        except OSError as exc:
            # absent: nothing to quarantine, resume is just impossible
            raise PipelineStageError(
                f"run manifest unreadable at {path}: {exc}",
                stage="runstate.manifest",
            ) from exc
        try:
            self.manifest = unseal("manifest", raw, RunManifest.from_dict)
        except CorruptRunStateError as exc:
            # quarantine before refusing, so the next attempt in this
            # directory starts fresh instead of tripping over the same
            # bad bytes forever
            quarantine(
                path, self._quarantine_path(path), str(exc),
                "runstate.quarantined",
            )
            raise PipelineStageError(
                f"run manifest refused at {path}: {exc} (quarantined)",
                stage="runstate.manifest",
            ) from exc
        return self.manifest

    def _write_manifest(self) -> None:
        assert self.manifest is not None
        data = seal("manifest", self.manifest.to_dict())
        with span("runstate.write_manifest"):
            atomic_write(self._manifest_path(), data)

    # -- snapshots ------------------------------------------------------
    def save_level(self, level: int, netlist: Netlist) -> LevelRecord:
        """Persist the placement after ``level``: atomic snapshot file
        first, then the manifest record pointing at it.  The manifest
        update is the commit point — a kill between the two leaves an
        unreferenced (harmless) snapshot file."""
        inject("ckpt.write")
        data = encode_snapshot(netlist.snapshot(), level)
        if corruption("ckpt.corrupt"):
            # flip payload bytes *after* checksumming: simulates
            # media/DMA corruption the reader must catch
            data = flip_bytes(data, start=data.index(b"\n") + 1)
        path = self._snapshot_path(level)
        with span("runstate.write_snapshot"):
            atomic_write(path, data)
        incr("runstate.snapshots_written")
        incr("runstate.bytes_written", len(data))

        if self.manifest is None:
            raise PipelineStageError(
                "save_level before begin_run/load_manifest",
                stage="runstate.manifest",
            )
        record = LevelRecord(
            level=level,
            file=os.path.join(self.SNAPSHOT_DIR, os.path.basename(path)),
            sha256=hashlib.sha256(data).hexdigest(),
            hpwl=netlist.hpwl(),
            num_cells=netlist.num_cells,
        )
        # idempotent on re-run of a level after resume
        self.manifest.completed = [
            r for r in self.manifest.completed if r.level < level
        ] + [record]
        self._write_manifest()
        return record

    def load_level(self, record: LevelRecord) -> Optional[PlacementSnapshot]:
        """Load + verify one level's snapshot; quarantine on any
        corruption and return None."""
        path = os.path.join(self.run_dir, record.file)
        try:
            snap, level = read_snapshot(path, record.sha256)
            if level != record.level or len(snap.x) != record.num_cells:
                raise CorruptRunStateError(
                    f"snapshot says level={level} n={len(snap.x)}, "
                    f"manifest says level={record.level} "
                    f"n={record.num_cells}",
                    stage="runstate.decode",
                )
        except CorruptRunStateError as exc:
            if isinstance(exc.__cause__, OSError):
                incr("runstate.snapshot_missing")
            quarantine(
                path, self._quarantine_path(path), str(exc),
                "runstate.quarantined",
            )
            return None
        return snap

    def latest_valid_level(
        self,
    ) -> Optional[Tuple[LevelRecord, PlacementSnapshot]]:
        """Newest durable level whose snapshot verifies, scanning
        backwards past quarantined files."""
        if self.manifest is None:
            self.load_manifest()
        assert self.manifest is not None
        for record in reversed(self.manifest.completed):
            with span("runstate.load_snapshot"):
                snap = self.load_level(record)
            if snap is not None:
                return record, snap
            # drop the bad record so a subsequent save/commit does not
            # resurrect it
            self.manifest.completed = [
                r
                for r in self.manifest.completed
                if r.level != record.level
            ]
        return None
