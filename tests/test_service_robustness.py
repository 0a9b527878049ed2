"""Service robustness satellites: durable quota metering, client
connect retry, deterministic shed tie-breaks, and no-op replace
byte-identity (fast lane)."""

import hashlib
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.bookshelf import save_instance
from repro.geometry import Rect
from repro.movebounds import MoveBoundSet
from repro.netlist import Netlist, Pin
from repro.resilience import PipelineStageError
from repro.service import JobSpec, ServiceClient
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.jobs import JobRecord
from repro.service.quota import QuotaLedger
from repro.service.worker import read_result, run_job_to_file

DIE = Rect(0, 0, 100, 100)


# ----------------------------------------------------------------------
# satellite: durable per-tenant quota metering
# ----------------------------------------------------------------------
class TestQuotaLedger:
    def test_round_trip(self, tmp_path):
        ledger = QuotaLedger(str(tmp_path))
        ledger.save({"acme": 12.5, "bravo": 0.25})
        assert QuotaLedger(str(tmp_path)).load() == {
            "acme": 12.5,
            "bravo": 0.25,
        }

    def test_absent_is_empty(self, tmp_path):
        assert QuotaLedger(str(tmp_path)).load() == {}

    def test_corrupt_ledger_quarantined_not_trusted(self, tmp_path):
        ledger = QuotaLedger(str(tmp_path))
        ledger.save({"acme": 99.0})
        with open(ledger.path, "r+b") as f:
            data = bytearray(f.read())
            data[len(data) // 2] ^= 0xFF
            f.seek(0)
            f.write(data)
        assert QuotaLedger(str(tmp_path)).load() == {}
        assert os.path.exists(ledger.path + ".corrupt")

    def test_controller_meter_survives_reconstruction(self, tmp_path):
        """The in-memory daemon-restart story: a fresh controller on
        the same state dir starts from the persisted meter."""
        policy = AdmissionPolicy(tenant_quota_seconds=10.0)
        first = AdmissionController(
            policy, ledger=QuotaLedger(str(tmp_path))
        )
        first.charge("acme", 9.5)
        assert first.quota_remaining("acme") == pytest.approx(0.5)

        reborn = AdmissionController(
            policy, ledger=QuotaLedger(str(tmp_path))
        )
        assert reborn.quota_remaining("acme") == pytest.approx(0.5)
        reborn.charge("acme", 1.0)
        third = AdmissionController(
            policy, ledger=QuotaLedger(str(tmp_path))
        )
        assert third.quota_remaining("acme") < 0.0

    def test_no_ledger_keeps_old_behavior(self):
        ctl = AdmissionController(
            AdmissionPolicy(tenant_quota_seconds=10.0)
        )
        ctl.charge("acme", 5.0)
        assert ctl.quota_remaining("acme") == pytest.approx(5.0)


# ----------------------------------------------------------------------
# satellite: deterministic shed tie-break
# ----------------------------------------------------------------------
def _record(job_id, priority=0, seq=0, tenant="t"):
    return JobRecord(
        job_id=job_id,
        spec=JobSpec(
            kind="check", instance="x", dir=".", tenant=tenant,
            priority=priority,
        ),
        seq=seq,
    )


class TestShedOrdering:
    def test_lowest_priority_then_oldest(self):
        jobs = [
            _record("j3", priority=1, seq=1),
            _record("j1", priority=0, seq=5),
            _record("j2", priority=0, seq=2),
        ]
        assert AdmissionController.shed_victim(jobs).job_id == "j2"

    def test_equal_priority_and_seq_breaks_on_job_id(self):
        """Recovered queues can carry equal (priority, seq); the
        victim must not depend on input order."""
        a = _record("job-a", priority=0, seq=3)
        b = _record("job-b", priority=0, seq=3)
        assert AdmissionController.shed_victim([a, b]).job_id == "job-a"
        assert AdmissionController.shed_victim([b, a]).job_id == "job-a"

    def test_admit_sheds_deterministically_under_full_tie(self):
        policy = AdmissionPolicy(max_queue=2, tenant_max_queued=32)
        ctl = AdmissionController(policy)
        queued = [
            _record("job-b", priority=0, seq=7),
            _record("job-a", priority=0, seq=7),
        ]
        incoming = _record("job-hi", priority=5, seq=8)
        victim = ctl.admit(incoming, queued, running=[])
        assert victim.job_id == "job-a"


# ----------------------------------------------------------------------
# satellite: client connect retry with backoff
# ----------------------------------------------------------------------
class TestClientConnectRetry:
    def test_exhaustion_is_classified_not_oserror(self, tmp_path):
        client = ServiceClient(
            str(tmp_path / "never.sock"),
            connect_retries=2,
            connect_backoff=0.01,
        )
        with pytest.raises(PipelineStageError, match="3 attempts"):
            client.ping()

    def test_connects_once_daemon_binds_late(self, tmp_path):
        """The daemon-still-starting race: the socket file appears a
        beat after the client's first attempt."""
        path = str(tmp_path / "late.sock")

        def bind_late():
            time.sleep(0.15)
            srv = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            srv.bind(path)
            srv.listen(1)
            conn, _ = srv.accept()
            conn.close()
            srv.close()

        t = threading.Thread(target=bind_late, daemon=True)
        t.start()
        client = ServiceClient(
            path, connect_retries=8, connect_backoff=0.05
        )
        sock = client._connect_with_retry(timeout=2.0)
        sock.close()
        t.join(timeout=5)

    def test_zero_retries_single_attempt(self, tmp_path):
        client = ServiceClient(
            str(tmp_path / "never.sock"),
            connect_retries=0,
            connect_backoff=0.01,
        )
        with pytest.raises(PipelineStageError, match="1 attempts"):
            client.ping()


# ----------------------------------------------------------------------
# satellite: no-op replace returns the prior placement byte-identically
# ----------------------------------------------------------------------
def _write_instance(path, name, cells=30, seed=0):
    rng = np.random.default_rng(seed)
    nl = Netlist(DIE, name=name)
    for i in range(cells):
        nl.add_cell(f"c{i}", 2.0, 1.0)
    for i in range(0, cells - 2, 2):
        nl.add_net(f"n{i}", [Pin(i), Pin(i + 1), Pin((i + 7) % cells)])
    nl.x[:] = rng.uniform(5, 95, nl.num_cells)
    nl.y[:] = rng.uniform(5, 95, nl.num_cells)
    os.makedirs(str(path), exist_ok=True)
    save_instance(str(path), nl, MoveBoundSet(DIE))


def _sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class TestNoopReplace:
    def test_empty_patch_byte_identical(self, tmp_path):
        inst = tmp_path / "inst"
        _write_instance(inst, "noop1")
        in_sha = _sha(str(inst / "noop1.pl"))

        job_dir = str(tmp_path / "job")
        spec = JobSpec(
            kind="replace", instance="noop1", dir=str(inst),
            movebound_patch=[],
        )
        run_job_to_file(spec, job_dir, allow_faults=False)
        payload, error = read_result(job_dir)
        assert error is None, error
        assert payload["eco"]["mode"] == "noop"
        assert payload["pl_sha256"] == in_sha
        assert _sha(payload["pl_file"]) == in_sha

    def test_missing_patch_field_byte_identical(self, tmp_path):
        inst = tmp_path / "inst2"
        _write_instance(inst, "noop2", seed=3)
        in_sha = _sha(str(inst / "noop2.pl"))

        job_dir = str(tmp_path / "job2")
        spec = JobSpec(kind="replace", instance="noop2", dir=str(inst))
        run_job_to_file(spec, job_dir, allow_faults=False)
        payload, error = read_result(job_dir)
        assert error is None, error
        assert payload["pl_sha256"] == in_sha
