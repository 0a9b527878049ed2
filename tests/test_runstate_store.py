"""Durable run-state store: codec, manifest, corruption, atomicity.

The codec contract is *bit-identity*: ``encode → decode → restore``
must reproduce every placement exactly, including degenerate netlists
(0 cells, fixed-only, overlapping movebounds) and adversarial float
values (-0.0, subnormals, huge magnitudes).
"""

import glob
import hashlib
import json
import os

import numpy as np
import pytest

from repro.geometry import Rect
from repro.movebounds import MoveBoundSet
from repro.netlist import Netlist, PlacementSnapshot
from repro.resilience.errors import PipelineStageError
from repro.runstate import (
    CorruptRunStateError,
    RunManifest,
    RunStateStore,
    config_hash,
    decode_snapshot,
    encode_snapshot,
)

DIE = Rect(0, 0, 100, 100)


def _netlist(num_cells, *, fixed=False, movebound=None, name="rt"):
    nl = Netlist(DIE, name=name)
    for i in range(num_cells):
        nl.add_cell(
            f"c{i}", 1.0, 1.0, fixed=fixed, movebound=movebound,
            x=float(i), y=float(2 * i),
        )
    return nl


# ----------------------------------------------------------------------
# codec round-trip (property-style: many placements, exact equality)
# ----------------------------------------------------------------------
class TestSnapshotCodec:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_roundtrip_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        snap = PlacementSnapshot(
            rng.uniform(-1e9, 1e9, n), rng.uniform(-1e9, 1e9, n)
        )
        out, level = decode_snapshot(encode_snapshot(snap, seed))
        assert level == seed
        # tobytes equality == bit-for-bit, stricter than allclose
        assert out.x.tobytes() == snap.x.tobytes()
        assert out.y.tobytes() == snap.y.tobytes()

    def test_adversarial_floats_roundtrip(self):
        x = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
                      np.pi, 1 / 3])
        snap = PlacementSnapshot(x, x[::-1].copy())
        out, _ = decode_snapshot(encode_snapshot(snap, 0))
        assert out.x.tobytes() == snap.x.tobytes()
        assert out.y.tobytes() == snap.y.tobytes()

    def test_zero_cells_roundtrip(self):
        snap = PlacementSnapshot(np.zeros(0), np.zeros(0))
        out, level = decode_snapshot(encode_snapshot(snap, 3))
        assert level == 3 and len(out.x) == 0 and len(out.y) == 0

    def test_bad_magic_rejected(self):
        data = encode_snapshot(PlacementSnapshot(np.ones(2), np.ones(2)), 0)
        head, payload = data.split(b"\n", 1)
        header = json.loads(head)
        header["magic"] = "not-a-snapshot"
        bad = json.dumps(header).encode() + b"\n" + payload
        with pytest.raises(CorruptRunStateError, match="magic"):
            decode_snapshot(bad)

    def test_flipped_payload_byte_rejected(self):
        data = bytearray(
            encode_snapshot(PlacementSnapshot(np.ones(4), np.ones(4)), 0)
        )
        data[-5] ^= 0x01
        with pytest.raises(CorruptRunStateError, match="checksum"):
            decode_snapshot(bytes(data))

    def test_truncated_payload_rejected(self):
        data = encode_snapshot(PlacementSnapshot(np.ones(4), np.ones(4)), 0)
        with pytest.raises(CorruptRunStateError, match="payload"):
            decode_snapshot(data[:-8])

    def test_garbage_rejected(self):
        with pytest.raises(CorruptRunStateError):
            decode_snapshot(b"\x00\x01\x02 definitely not a snapshot")


# ----------------------------------------------------------------------
# degenerate netlists through the full store
# ----------------------------------------------------------------------
class TestDegenerateNetlists:
    def _roundtrip(self, nl, tmp_path):
        store = RunStateStore(str(tmp_path))
        store.begin_run(nl.name, "cfg", levels=1)
        before_x, before_y = nl.x.tobytes(), nl.y.tobytes()
        record = store.save_level(0, nl)
        nl.x[:] = -123.0  # clobber, then restore from disk
        snap = store.load_level(record)
        assert snap is not None
        nl.restore(snap)
        assert nl.x.tobytes() == before_x
        assert nl.y.tobytes() == before_y

    def test_empty_netlist(self, tmp_path):
        self._roundtrip(_netlist(0, name="empty"), tmp_path)

    def test_fixed_only_netlist(self, tmp_path):
        self._roundtrip(_netlist(5, fixed=True, name="allfixed"), tmp_path)

    def test_overlapping_movebounds_netlist(self, tmp_path):
        nl = Netlist(DIE, name="overlap")
        for i in range(6):
            nl.add_cell(f"a{i}", 1.0, 1.0, movebound="mbA",
                        x=10.0 + i, y=10.0)
        for i in range(6):
            nl.add_cell(f"b{i}", 1.0, 1.0, movebound="mbB",
                        x=30.0 + i, y=30.0)
        mbs = MoveBoundSet(DIE)
        # inclusive bounds are allowed to overlap (paper §II)
        mbs.add_rects("mbA", [Rect(0, 0, 60, 60)])
        mbs.add_rects("mbB", [Rect(20, 20, 80, 80)])
        mbs.normalize()
        self._roundtrip(nl, tmp_path)


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
class TestManifest:
    def test_roundtrip(self, tmp_path):
        nl = _netlist(7)
        store = RunStateStore(str(tmp_path))
        store.begin_run("rt", "cafe0123", levels=4, seed=11)
        store.save_level(0, nl)
        store.save_level(1, nl)

        fresh = RunStateStore(str(tmp_path))
        m = fresh.load_manifest()
        assert m.instance == "rt"
        assert m.config_hash == "cafe0123"
        assert m.levels == 4 and m.seed == 11
        assert [r.level for r in m.completed] == [0, 1]
        assert m.last_level == 1
        for r in m.completed:
            assert r.num_cells == 7
            assert r.hpwl == nl.hpwl()

    def test_rerun_of_level_is_idempotent(self, tmp_path):
        nl = _netlist(3)
        store = RunStateStore(str(tmp_path))
        store.begin_run("rt", "cfg", levels=3)
        for level in (0, 1, 2):
            store.save_level(level, nl)
        # resume semantics: re-running level 1 drops levels >= 1
        nl.x[:] = 42.0
        store.save_level(1, nl)
        m = RunStateStore(str(tmp_path)).load_manifest()
        assert [r.level for r in m.completed] == [0, 1]

    def test_tampered_manifest_rejected(self, tmp_path):
        store = RunStateStore(str(tmp_path))
        store.begin_run("rt", "cfg", levels=2)
        path = os.path.join(str(tmp_path), "manifest.json")
        outer = json.load(open(path))
        outer["manifest"]["levels"] = 99  # body no longer matches digest
        json.dump(outer, open(path, "w"))
        with pytest.raises(PipelineStageError, match="checksum"):
            RunStateStore(str(tmp_path)).load_manifest()

    def test_tampered_manifest_is_quarantined(self, tmp_path):
        store = RunStateStore(str(tmp_path))
        store.begin_run("rt", "cfg", levels=2)
        path = os.path.join(str(tmp_path), "manifest.json")
        raw = bytearray(open(path, "rb").read())
        raw[len(raw) // 2] ^= 0xFF
        open(path, "wb").write(bytes(raw))
        with pytest.raises(PipelineStageError):
            RunStateStore(str(tmp_path)).load_manifest()
        # refused AND pulled aside: the next run in this directory
        # starts fresh instead of hitting the same bad bytes forever
        assert not os.path.exists(path)
        qfile = os.path.join(str(tmp_path), "quarantine", "manifest.json")
        assert os.path.exists(qfile)
        assert os.path.exists(qfile + ".reason")

    def test_verified_but_malformed_manifest_quarantined(self, tmp_path):
        # a body whose checksum verifies but which is not a manifest
        # (no "completed") is refused like a corrupt one: a structured
        # error and a quarantined file, not a raw KeyError
        body = RunManifest("rt", "cfg", levels=2).to_dict()
        del body["completed"]
        digest = hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()
        ).hexdigest()
        path = os.path.join(str(tmp_path), "manifest.json")
        with open(path, "w") as f:
            json.dump({"manifest": body, "sha256": digest}, f)
        with pytest.raises(PipelineStageError, match="malformed"):
            RunStateStore(str(tmp_path)).load_manifest()
        assert not os.path.exists(path)
        qfile = os.path.join(str(tmp_path), "quarantine", "manifest.json")
        assert os.path.exists(qfile + ".reason")

    def test_missing_manifest_is_error(self, tmp_path):
        with pytest.raises(PipelineStageError, match="unreadable"):
            RunStateStore(str(tmp_path)).load_manifest()

    def test_config_hash_stable_and_sensitive(self):
        a = {"density": 0.97, "levels": 4}
        assert config_hash(a) == config_hash(dict(reversed(list(a.items()))))
        assert config_hash(a) != config_hash({**a, "levels": 5})

    def test_default_placer_config_hash_is_pinned(self):
        """Run directories written by earlier versions resume only while
        the default options hash the same: a change to this literal
        makes every existing run directory refuse ``--resume``, so it
        may change only on purpose."""
        from types import SimpleNamespace

        from repro.place import BonnPlaceFBP

        shape = SimpleNamespace(num_cells=50, num_nets=60)
        payload = BonnPlaceFBP()._config_payload(shape, 0.97, 3)
        assert config_hash(payload) == "91f32e0b14372d54"


# ----------------------------------------------------------------------
# corruption -> quarantine -> fallback
# ----------------------------------------------------------------------
class TestCorruptionQuarantine:
    def _store_with_levels(self, tmp_path, levels=3):
        nl = _netlist(10)
        store = RunStateStore(str(tmp_path))
        store.begin_run(nl.name, "cfg", levels=levels)
        for level in range(levels):
            nl.x[:] = float(level)
            store.save_level(level, nl)
        return store, nl

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        store, _nl = self._store_with_levels(tmp_path)
        newest = store._snapshot_path(2)
        raw = bytearray(open(newest, "rb").read())
        raw[len(raw) // 2] ^= 0xFF
        open(newest, "wb").write(bytes(raw))

        fresh = RunStateStore(str(tmp_path))
        found = fresh.latest_valid_level()
        assert found is not None
        record, snap = found
        assert record.level == 1
        assert np.all(snap.x == 1.0)
        # the corrupt file is quarantined with a reason sidecar
        qfile = os.path.join(str(tmp_path), "quarantine", "level_0002.ckpt")
        assert os.path.exists(qfile)
        assert os.path.exists(qfile + ".reason")
        assert not os.path.exists(newest)

    def test_deleted_snapshot_falls_back(self, tmp_path):
        store, _nl = self._store_with_levels(tmp_path)
        os.unlink(store._snapshot_path(2))
        found = RunStateStore(str(tmp_path)).latest_valid_level()
        assert found is not None and found[0].level == 1

    def test_all_corrupt_returns_none(self, tmp_path):
        store, _nl = self._store_with_levels(tmp_path, levels=2)
        for level in (0, 1):
            path = store._snapshot_path(level)
            open(path, "wb").write(b"garbage")
        assert RunStateStore(str(tmp_path)).latest_valid_level() is None


# ----------------------------------------------------------------------
# atomicity hygiene
# ----------------------------------------------------------------------
class TestAtomicity:
    def test_no_tmp_files_left_behind(self, tmp_path):
        store, _nl = TestCorruptionQuarantine()._store_with_levels(tmp_path)
        strays = glob.glob(os.path.join(str(tmp_path), "**", "*.tmp.*"),
                           recursive=True)
        assert strays == []

    def test_rewrite_replaces_content_atomically(self, tmp_path):
        nl = _netlist(4)
        store = RunStateStore(str(tmp_path))
        store.begin_run(nl.name, "cfg", levels=1)
        nl.x[:] = 1.0
        store.save_level(0, nl)
        first = open(store._snapshot_path(0), "rb").read()
        nl.x[:] = 2.0
        record = store.save_level(0, nl)
        second = open(store._snapshot_path(0), "rb").read()
        assert first != second
        assert hashlib.sha256(second).hexdigest() == record.sha256


# ----------------------------------------------------------------------
# torn writes (property: every truncation, every byte flip)
# ----------------------------------------------------------------------
class TestTornManifest:
    """A torn or bit-flipped manifest must *never* yield a wrong
    resume.  For every mutation, loading either raises the structured
    refusal (and quarantines the bad file) or — when the mutation
    lands in JSON formatting the canonical re-encoding ignores —
    decodes to exactly the original manifest.  There is no third
    outcome."""

    def _manifest_bytes(self, tmp_path):
        nl = _netlist(5)
        store = RunStateStore(str(tmp_path))
        store.begin_run("rt", "cfg", levels=3, seed=7)
        store.save_level(0, nl)
        store.save_level(1, nl)
        path = os.path.join(str(tmp_path), "manifest.json")
        return path, open(path, "rb").read()

    def _check_mutation(self, tmp_path, path, mutated, want_dict):
        open(path, "wb").write(mutated)
        store = RunStateStore(str(tmp_path))
        try:
            got = store.load_manifest()
        except PipelineStageError:
            # refusal must come with quarantine (file pulled aside)
            # unless the loader never got past reading it
            assert not os.path.exists(path) or mutated == b""
            return
        assert got.to_dict() == want_dict

    def test_truncation_at_every_offset(self, tmp_path):
        path, raw = self._manifest_bytes(tmp_path)
        want = RunStateStore(str(tmp_path)).load_manifest().to_dict()
        qdir = os.path.join(str(tmp_path), "quarantine")
        for cut in range(len(raw)):
            self._check_mutation(tmp_path, path, raw[:cut], want)
            # reset for the next mutation
            if os.path.isdir(qdir):
                for f in os.listdir(qdir):
                    os.unlink(os.path.join(qdir, f))
            open(path, "wb").write(raw)

    def test_flip_every_byte(self, tmp_path):
        path, raw = self._manifest_bytes(tmp_path)
        want = RunStateStore(str(tmp_path)).load_manifest().to_dict()
        qdir = os.path.join(str(tmp_path), "quarantine")
        for i in range(len(raw)):
            mutated = bytearray(raw)
            mutated[i] ^= 0xFF
            self._check_mutation(tmp_path, path, bytes(mutated), want)
            if os.path.isdir(qdir):
                for f in os.listdir(qdir):
                    os.unlink(os.path.join(qdir, f))
            open(path, "wb").write(raw)

    def test_resume_never_uses_torn_manifest(self, tmp_path):
        """End to end through DurableRunState: a torn manifest refuses
        resume (structured error), and the retry after quarantine
        starts fresh — it never continues from wrong state."""
        from repro.runstate import DurableRunState

        nl = _netlist(6)
        state = DurableRunState(str(tmp_path))
        state.begin(nl, "cfg", levels=2)
        nl.x[:] = 1.0
        state.save_level(0, nl)

        path = os.path.join(str(tmp_path), "manifest.json")
        raw = bytearray(open(path, "rb").read())
        raw = raw[: len(raw) // 2]  # torn mid-write
        open(path, "wb").write(bytes(raw))

        resumer = DurableRunState(str(tmp_path), resume=True)
        with pytest.raises(PipelineStageError):
            resumer.begin(nl, "cfg", levels=2)
        # the bad manifest is quarantined: the retry starts fresh
        level = DurableRunState(str(tmp_path), resume=True).begin(
            nl, "cfg", levels=2
        )
        assert level is None
