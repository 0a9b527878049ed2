"""The atomic checksummed delta journal of the ECO engine.

One journal lives inside a ``runstate`` run directory and records the
committed transactions of the incremental re-place engine::

    <run_dir>/
        eco/
            txn_000001.ckpt    # post-delta placement (snapshot codec)
            txn_000001.json    # checksummed journal entry (commit point)
            txn_000002.ckpt
            txn_000002.json
            quarantine/        # corrupt files moved aside, never read

Commit protocol (two atomic writes, strictly ordered):

1. the post-delta placement snapshot (``.ckpt``, the run-state
   snapshot codec: embedded SHA-256, magic, exact float64 round-trip);
2. the journal entry (``.json``, a sealed record) that *references*
   the snapshot by file name and hash — this write is the commit
   point.

A SIGKILL between the two leaves an unreferenced snapshot (harmless:
recovery ignores it), so at every instant the journal describes either
the pre-delta or the post-delta placement, never a torn hybrid.  Both
writes go through :func:`repro.runstate.store.atomic_write`
(write → flush → fsync → rename → fsync(dir)).

Every entry carries the delta's canonical digest and the SHA-256 of
the *pre*-delta placement: a crashed-and-retried transaction finds its
own committed entry by ``(delta_digest, base_sha)`` and replays the
stored placement bit-identically instead of re-solving.  The journal
keeps that key's index in memory — built by its first full scan,
extended by every commit — so a lookup reads only the matching entry
and its snapshot, whatever the session's length.

Corruption (a ``corrupt`` rule at ``eco.commit``, media faults) is
detected on read: the offending entry and its snapshot are moved into
``quarantine/`` and recovery falls back to the next older committed
transaction — or the pre-delta base when none survive.  The record
format, the verification and the quarantine are the shared ones of
:mod:`repro.runstate.store` ("Sealed records" in docs/resilience.md).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.netlist import Netlist, PlacementSnapshot
from repro.obs import incr
from repro.resilience.faultinject import inject
from repro.runstate.store import (
    CorruptRunStateError,
    atomic_write,
    encode_snapshot,
    flip_bytes,
    quarantine,
    read_snapshot,
    seal,
    unseal,
)

__all__ = ["JOURNAL_DIR", "JournalEntry", "DeltaJournal", "placement_sha"]

JOURNAL_DIR = "eco"
#: the counter every quarantined journal file increments
_COUNTER = "eco.journal_quarantined"
_FLOAT = "<f8"


def placement_sha(netlist: Netlist) -> str:
    """Bit-exact identity of the current placement: SHA-256 of the
    little-endian float64 x||y payload (the snapshot codec's payload,
    so it matches what the journal stores)."""
    x = np.ascontiguousarray(netlist.x, dtype=np.float64)
    y = np.ascontiguousarray(netlist.y, dtype=np.float64)
    payload = (
        x.astype(_FLOAT, copy=False).tobytes()
        + y.astype(_FLOAT, copy=False).tobytes()
    )
    return hashlib.sha256(payload).hexdigest()


@dataclass
class JournalEntry:
    """One committed delta transaction."""

    seq: int
    delta_digest: str
    delta: Dict[str, Any]
    base_sha: str  # pre-delta placement payload hash
    post_sha: str  # post-delta placement payload hash
    snapshot_file: str
    snapshot_sha: str  # hash of the snapshot *file* bytes
    mode: str  # "eco" | "fallback" | "noop"
    hpwl_pre: float = 0.0
    hpwl_post: float = 0.0
    frontier_windows: int = 0
    context: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "delta_digest": self.delta_digest,
            "delta": self.delta,
            "base_sha": self.base_sha,
            "post_sha": self.post_sha,
            "snapshot_file": self.snapshot_file,
            "snapshot_sha": self.snapshot_sha,
            "mode": self.mode,
            "hpwl_pre": self.hpwl_pre,
            "hpwl_post": self.hpwl_post,
            "frontier_windows": self.frontier_windows,
            "context": self.context,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "JournalEntry":
        return cls(
            seq=int(d["seq"]),
            delta_digest=str(d["delta_digest"]),
            delta=dict(d["delta"]),
            base_sha=str(d["base_sha"]),
            post_sha=str(d["post_sha"]),
            snapshot_file=str(d["snapshot_file"]),
            snapshot_sha=str(d["snapshot_sha"]),
            mode=str(d["mode"]),
            hpwl_pre=float(d.get("hpwl_pre", 0.0)),
            hpwl_post=float(d.get("hpwl_post", 0.0)),
            frontier_windows=int(d.get("frontier_windows", 0)),
            context=dict(d.get("context", {})),
        )


class DeltaJournal:
    """Durable, checksummed, crash-recoverable transaction log."""

    QUARANTINE_DIR = "quarantine"

    def __init__(self, run_dir: str) -> None:
        self.dir = os.path.join(run_dir, JOURNAL_DIR)
        os.makedirs(self.dir, exist_ok=True)
        #: (delta_digest, base_sha) -> committed seqs, oldest first;
        #: None until the first full scan
        self._index: Optional[Dict[Tuple[str, str], List[int]]] = None

    # -- paths ----------------------------------------------------------
    def _entry_path(self, seq: int) -> str:
        return os.path.join(self.dir, f"txn_{seq:06d}.json")

    def _snapshot_path(self, seq: int) -> str:
        return os.path.join(self.dir, f"txn_{seq:06d}.ckpt")

    def _quarantine_path(self, path: str) -> str:
        return os.path.join(
            self.dir, self.QUARANTINE_DIR, os.path.basename(path)
        )

    # -- write ----------------------------------------------------------
    def commit(
        self,
        entry: JournalEntry,
        snapshot: PlacementSnapshot,
        corrupt: bool = False,
    ) -> None:
        """Two-phase commit: snapshot file first, entry second (the
        commit point).  ``corrupt=True`` flips entry bytes *after*
        checksumming (fault injection: the reader must quarantine)."""
        snap_data = encode_snapshot(snapshot, entry.seq)
        entry.snapshot_file = os.path.basename(self._snapshot_path(entry.seq))
        entry.snapshot_sha = hashlib.sha256(snap_data).hexdigest()
        atomic_write(self._snapshot_path(entry.seq), snap_data)

        # the boundary between the two writes: a `kill` rule here
        # leaves an unreferenced snapshot and no entry — the retried
        # transaction re-solves and next_seq() skips the dirty slot
        inject("eco.commit.entry")

        data = seal("entry", entry.to_dict())
        if corrupt:
            data = flip_bytes(data)
        atomic_write(self._entry_path(entry.seq), data)
        if self._index is not None:
            self._index.setdefault(
                (entry.delta_digest, entry.base_sha), []
            ).append(entry.seq)
        incr("eco.journal_commits")

    # -- read -----------------------------------------------------------
    def next_seq(self) -> int:
        """1 + the highest transaction number any file in the journal
        dir mentions — committed, torn, or quarantine-bound alike, so
        a new transaction never reuses a dirty slot."""
        high = 0
        try:
            names = os.listdir(self.dir)
        except OSError:
            return 1
        for name in names:
            if name.startswith("txn_") and (
                name.endswith(".json") or name.endswith(".ckpt")
            ):
                try:
                    high = max(high, int(name[4:10]))
                except ValueError:
                    continue
        return high + 1

    def _read_entry(self, path: str) -> Optional[JournalEntry]:
        try:
            with open(path, "rb") as f:
                raw = f.read()
            return unseal("entry", raw, JournalEntry.from_dict)
        except (OSError, CorruptRunStateError) as exc:
            quarantine(path, self._quarantine_path(path), str(exc), _COUNTER)
            return None

    def _load_snapshot(self, entry: JournalEntry) -> Optional[PlacementSnapshot]:
        path = os.path.join(self.dir, entry.snapshot_file)
        try:
            return read_snapshot(path, entry.snapshot_sha)[0]
        except CorruptRunStateError as exc:
            quarantine(path, self._quarantine_path(path), str(exc), _COUNTER)
            return None

    def entries(self) -> List[JournalEntry]:
        """Every committed entry that verifies, in transaction order;
        corrupt entries are quarantined as they are met.  The scan
        (re)builds the replay index."""
        out: List[JournalEntry] = []
        try:
            names = sorted(
                n
                for n in os.listdir(self.dir)
                if n.startswith("txn_") and n.endswith(".json")
            )
        except OSError:
            names = []
        for name in names:
            entry = self._read_entry(os.path.join(self.dir, name))
            if entry is not None:
                out.append(entry)
        self._index = {}
        for entry in out:
            self._index.setdefault(
                (entry.delta_digest, entry.base_sha), []
            ).append(entry.seq)
        return out

    def latest(
        self,
    ) -> Optional[Tuple[JournalEntry, PlacementSnapshot]]:
        """Newest committed transaction whose entry *and* snapshot
        verify, scanning backwards past quarantined ones."""
        for entry in reversed(self.entries()):
            snap = self._load_snapshot(entry)
            if snap is not None:
                return entry, snap
            # entry verified but its snapshot did not: pull the entry
            # too, or recovery would keep trusting a headless commit
            path = self._entry_path(entry.seq)
            quarantine(
                path,
                self._quarantine_path(path),
                "snapshot lost; entry retired",
                _COUNTER,
            )
        return None

    def find_replay(
        self, delta_digest: str, base_sha: str
    ) -> Optional[Tuple[JournalEntry, PlacementSnapshot]]:
        """The committed transaction applying ``delta_digest`` on top
        of the placement ``base_sha``, if one exists — the idempotent
        replay path of a crashed-and-retried apply.  Reads the index's
        candidates only, newest first; one that no longer verifies is
        quarantined and dropped from the index."""
        if self._index is None:
            self.entries()
        seqs = self._index.get((delta_digest, base_sha), [])
        for seq in reversed(list(seqs)):
            path = self._entry_path(seq)
            entry = self._read_entry(path) if os.path.exists(path) else None
            if (
                entry is not None
                and entry.delta_digest == delta_digest
                and entry.base_sha == base_sha
            ):
                snap = self._load_snapshot(entry)
                if snap is not None:
                    return entry, snap
            seqs.remove(seq)
        return None
