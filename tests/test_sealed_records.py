"""The one record format of every durable JSON file.

The run manifest, the ECO journal entries, the service job records,
the job ``result.json`` and the tenant quota ledger are all written by
:func:`repro.runstate.store.seal` and read back through
:func:`repro.runstate.store.unseal`.  For each of the five this module
checks that

* the writer produces exactly the bytes of the literal envelope
  ``{key: body, "sha256": sha256(canonical body)}`` (``indent=1``), so
  files written before the codec was shared still load;
* a flipped byte and a truncation are both refused, each by the
  reader's own policy (raise, skip, ``None`` or an empty meter);
* the refused file ends up where that reader puts it, and the
  reader's quarantine counter moves by one.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.netlist import PlacementSnapshot
from repro.obs import get_tracer
from repro.resilience.errors import PipelineStageError
from repro.runstate.store import (
    CorruptRunStateError,
    RunStateStore,
    flip_bytes,
    seal,
    unseal,
)


def _literal(key, body):
    """The envelope as every writer spelled it out before the codec
    was shared."""
    canonical = json.dumps(body, sort_keys=True).encode()
    outer = {key: body, "sha256": hashlib.sha256(canonical).hexdigest()}
    return json.dumps(outer, sort_keys=True, indent=1).encode()


# ----------------------------------------------------------------------
# one adapter per record kind: write, read, where a refusal lands
# ----------------------------------------------------------------------
class _Manifest:
    key, counter = "manifest", "runstate.quarantined"

    def write(self, d):
        store = RunStateStore(d)
        store.begin_run("rt", "cfg", levels=3, seed=7)
        return os.path.join(d, "manifest.json"), store.manifest.to_dict()

    def refused(self, d):
        try:
            RunStateStore(d).load_manifest()
        except PipelineStageError:
            return True
        return False

    def dest(self, d, path):
        return os.path.join(d, "quarantine", os.path.basename(path))


class _Journal:
    key, counter = "entry", "eco.journal_quarantined"

    def write(self, d):
        from repro.eco.journal import DeltaJournal, JournalEntry

        entry = JournalEntry(
            seq=1,
            delta_digest="d" * 64,
            delta={"ops": [{"op": "move", "cell": "c1"}]},
            base_sha="b" * 64,
            post_sha="p" * 64,
            snapshot_file="",
            snapshot_sha="",
            mode="eco",
            hpwl_pre=10.5,
            hpwl_post=9.25,
            frontier_windows=3,
        )
        snap = PlacementSnapshot(np.arange(4.0), np.arange(4.0) * 2.0)
        DeltaJournal(d).commit(entry, snap)
        return os.path.join(d, "eco", "txn_000001.json"), entry.to_dict()

    def refused(self, d):
        from repro.eco.journal import DeltaJournal

        return DeltaJournal(d).entries() == []

    def dest(self, d, path):
        return os.path.join(d, "eco", "quarantine", os.path.basename(path))


class _Job:
    key, counter = "job", "svc.records_quarantined"

    def write(self, d):
        from repro.service.jobs import JobRecord, JobStore
        from repro.service.protocol import JobSpec

        store = JobStore(d)
        record = JobRecord(
            job_id=store.next_job_id(),
            spec=JobSpec(kind="check", instance="x", dir="/x"),
            seq=4,
            submitted_at=1.25,
        )
        store.save(record)
        return store.record_path(record.job_id), record.to_dict()

    def refused(self, d):
        from repro.service.jobs import JobStore

        return JobStore(d).load_all() == []

    def dest(self, d, path):
        return os.path.join(d, "quarantine", os.path.basename(path))


class _Result:
    key, counter = "result", None

    def write(self, d):
        from repro.service.worker import RESULT_FILE, write_result

        payload = {"kind": "check", "feasible": True, "routed_area": 2.5}
        write_result(d, payload=payload)
        return (
            os.path.join(d, RESULT_FILE),
            {"payload": payload, "error": None},
        )

    def refused(self, d):
        from repro.service.worker import read_result

        return read_result(d) is None

    def dest(self, d, path):
        return path  # never moved: the daemon re-runs the attempt


class _Quota:
    key, counter = "used", "svc.quota_quarantined"

    def write(self, d):
        from repro.service.quota import QuotaLedger

        ledger = QuotaLedger(d)
        ledger.save({"acme": 12.5, "bravo": 3})
        return ledger.path, {"acme": 12.5, "bravo": 3.0}

    def refused(self, d):
        from repro.service.quota import QuotaLedger

        return QuotaLedger(d).load() == {}

    def dest(self, d, path):
        return path + ".corrupt"


KINDS = {
    "manifest": _Manifest(),
    "journal": _Journal(),
    "job": _Job(),
    "result": _Result(),
    "quota": _Quota(),
}


def _count(name):
    return get_tracer().counters.get(name, 0) if name else 0


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return KINDS[request.param]


def test_writer_bytes_are_the_literal_envelope(kind, tmp_path):
    path, body = kind.write(str(tmp_path))
    with open(path, "rb") as f:
        raw = f.read()
    assert raw == _literal(kind.key, body)
    assert not kind.refused(str(tmp_path))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw[: len(raw) // 2],
        lambda raw: raw[: len(raw) // 2]
        + bytes([raw[len(raw) // 2] ^ 0xFF])
        + raw[len(raw) // 2 + 1 :],
    ],
    ids=["truncated", "flipped"],
)
def test_mutated_record_refused_and_put_aside(kind, tmp_path, mutate):
    d = str(tmp_path)
    path, _body = kind.write(d)
    with open(path, "rb") as f:
        bad = mutate(f.read())
    with open(path, "wb") as f:
        f.write(bad)
    before = _count(kind.counter)

    assert kind.refused(d)

    dest = kind.dest(d, path)
    with open(dest, "rb") as f:
        assert f.read() == bad
    if dest == path:
        assert not os.path.exists(path + ".reason")
    else:
        assert not os.path.exists(path)
        assert os.path.exists(dest + ".reason")
    if kind.counter:
        assert _count(kind.counter) == before + 1


# ----------------------------------------------------------------------
# the codec itself
# ----------------------------------------------------------------------
class TestCodec:
    def test_round_trip_and_parse(self):
        body = {"b": [1, 2.5, None], "a": {"z": "s"}}
        raw = seal("rec", body)
        assert raw == _literal("rec", body)
        assert unseal("rec", raw, dict) == body
        assert unseal("rec", raw, sorted) == ["a", "b"]

    @pytest.mark.parametrize(
        "raw",
        [b"", b"[]", b'{"rec": 1}', b'{"other": 1, "sha256": "x"}'],
    )
    def test_undecodable_refused(self, raw):
        with pytest.raises(CorruptRunStateError, match="unreadable"):
            unseal("rec", raw, dict)

    def test_mismatch_refused(self):
        outer = json.loads(seal("rec", {"n": 1}))
        outer["rec"]["n"] = 2
        with pytest.raises(CorruptRunStateError, match="checksum"):
            unseal("rec", json.dumps(outer).encode(), dict)

    def test_verified_but_unparseable_refused(self):
        def parse(body):
            return int(body["n"])

        with pytest.raises(CorruptRunStateError, match="malformed"):
            unseal("rec", seal("rec", {"n": "x"}), parse)
        with pytest.raises(CorruptRunStateError, match="malformed"):
            unseal("rec", seal("rec", {}), parse)

    def test_flip_bytes_is_the_eight_byte_flip(self):
        data = bytes(range(40))
        mid = len(data) // 2
        want = bytearray(data)
        for i in range(mid, mid + 8):
            want[i] ^= 0xFF
        assert flip_bytes(data) == bytes(want)
        # from ``start``: the middle of data[start:]
        at = 10 + (len(data) - 10) // 2
        want = bytearray(data)
        for i in range(at, at + 8):
            want[i] ^= 0xFF
        assert flip_bytes(data, start=10) == bytes(want)
        # nothing after ``start``: the first byte is broken instead
        assert flip_bytes(b"abc", start=3) == bytes([ord("a") ^ 0xFF]) + b"bc"
