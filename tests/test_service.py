"""Placement service: protocol, admission control, job store, and a
fast daemon smoke lane.

Chaos testing (SIGKILL anywhere, crash loops, corrupted results) lives
in ``test_service_chaos.py`` behind the ``slow`` marker; this module
must stay quick enough for the default test lane.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.bookshelf import save_instance
from repro.cli import main
from repro.geometry import Rect
from repro.movebounds import MoveBoundSet
from repro.netlist import Netlist, Pin
from repro.resilience import (
    EXIT_SERVICE,
    JobCancelledError,
    PipelineStageError,
    ReproError,
    ServiceOverloadError,
)
from repro.service import (
    AdmissionController,
    AdmissionPolicy,
    JobSpec,
    ServiceClient,
)
from repro.service.jobs import JobRecord, JobStore
from repro.service.protocol import (
    decode_line,
    encode_message,
    error_from_payload,
    error_payload,
)
from repro.service.worker import (
    read_result,
    run_job_to_file,
    write_result,
)

DIE = Rect(0, 0, 100, 100)


def _write_instance(path, name="svc", cells=40, seed=0):
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
    return name


def _spec(inst_dir, name="svc", kind="check", **kw):
    return JobSpec(kind=kind, instance=name, dir=str(inst_dir), **kw)


def _record(job_id, seq, tenant="default", priority=0, state="queued"):
    return JobRecord(
        job_id=job_id,
        spec=JobSpec(kind="check", instance="x", dir="/x",
                     tenant=tenant, priority=priority),
        state=state,
        seq=seq,
    )


# ----------------------------------------------------------------------
# wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_spec_roundtrip(self):
        spec = JobSpec(
            kind="replace", instance="ibm01", dir="/data", tenant="t1",
            priority=3, options={"density": 0.9},
            movebound_patch=[{"name": "m", "rects": [[0, 0, 1, 1]]}],
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_validate_rejects_bad_kind(self):
        with pytest.raises(PipelineStageError, match="kind"):
            JobSpec(kind="explode", instance="x", dir="/x").validate()

    def test_validate_rejects_unknown_option(self):
        # unknown keys and out-of-range values alike are refused at
        # admission, before any child attempt could fail on them
        for options in (
            {"warp_speed": True},
            {"warm_start": False},
            {"region_cache": False},
            {"placer": "foo"},
            {"transport_method": "ns"},
            {"density": -3.0},
            {"density": 0},
            {"density": 1.5},
            {"max_hpwl_drift": float("nan")},
            {"max_hpwl_drift": float("inf")},
            {"max_hpwl_drift": 0.0},
            # an int may stand in for a float, a JSON boolean may not
            {"density": True},
            {"max_hpwl_drift": True},
            # an option the chosen placer never reads
            {"placer": "rql", "relax_infeasible": True},
        ):
            spec = JobSpec(kind="place", instance="x", dir="/x",
                           options=options)
            key = list(options)[-1]
            with pytest.raises(PipelineStageError, match=key) as ei:
                spec.validate()
            assert ei.value.stage == "svc.accept"
        JobSpec(
            kind="place", instance="x", dir="/x",
            options={"placer": "rql", "density": 1, "max_hpwl_drift": 2.5},
        ).validate()

    def test_message_roundtrip(self):
        msg = {"op": "submit", "spec": {"kind": "check"}}
        assert decode_line(encode_message(msg)) == msg

    def test_oversized_line_rejected(self):
        with pytest.raises(PipelineStageError, match="line"):
            decode_line(b"x" * (2 << 20))

    def test_error_payload_roundtrip(self):
        exc = ServiceOverloadError("full", tenant="t9", stage="svc.accept")
        back = error_from_payload(error_payload(exc))
        assert isinstance(back, ServiceOverloadError)
        assert back.exit_code == EXIT_SERVICE
        assert "full" in str(back)

    def test_unknown_error_type_degrades_with_exit_code(self):
        back = error_from_payload(
            {"type": "FutureError", "exit_code": 7, "message": "?"}
        )
        assert isinstance(back, ReproError)
        assert back.exit_code == 7


# ----------------------------------------------------------------------
# admission control (pure decisions, no daemon)
# ----------------------------------------------------------------------
class TestAdmission:
    def _ctl(self, **kw):
        return AdmissionController(AdmissionPolicy(**kw))

    def test_admits_with_capacity(self):
        ctl = self._ctl(max_queue=4)
        assert ctl.admit(_record("j1", 0), [], []) is None

    def test_refuses_full_queue_of_equal_priority(self):
        ctl = self._ctl(max_queue=2)
        queued = [_record("j1", 0), _record("j2", 1)]
        with pytest.raises(ServiceOverloadError, match="queue full"):
            ctl.admit(_record("j3", 2), queued, [])

    def test_sheds_oldest_lowest_priority_for_higher(self):
        ctl = self._ctl(max_queue=2)
        queued = [
            _record("j1", 0, priority=1),
            _record("j2", 1, priority=0),
            ]
        victim = ctl.admit(_record("j3", 2, priority=5), queued, [])
        assert victim is not None and victim.job_id == "j2"

    def test_shed_choice_is_deterministic(self):
        # lowest priority first, then oldest admission seq
        queued = [
            _record("a", 3, priority=0),
            _record("b", 1, priority=0),
            _record("c", 0, priority=2),
        ]
        victim = AdmissionController.shed_victim(queued)
        assert victim.job_id == "b"

    def test_tenant_queue_cap(self):
        ctl = self._ctl(tenant_max_queued=1, max_queue=10)
        queued = [_record("j1", 0, tenant="acme")]
        with pytest.raises(ServiceOverloadError, match="acme"):
            ctl.admit(_record("j2", 1, tenant="acme"), queued, [])
        # other tenants are unaffected
        assert ctl.admit(_record("j3", 2, tenant="zen"), queued, []) is None

    def test_quota_refusal_and_budget_derivation(self):
        ctl = self._ctl(tenant_quota_seconds=10.0, job_timeout=300.0)
        assert ctl.job_budget_seconds("t") == 10.0
        ctl.charge("t", 9.0)
        assert ctl.job_budget_seconds("t") == 1.0
        ctl.charge("t", 2.0)
        with pytest.raises(ServiceOverloadError, match="quota"):
            ctl.admit(_record("j1", 0, tenant="t"), [], [])

    def test_backoff_doubles_and_caps(self):
        ctl = self._ctl(backoff_base=0.25, backoff_cap=1.0)
        assert ctl.backoff_delay(1) == 0.25
        assert ctl.backoff_delay(2) == 0.5
        assert ctl.backoff_delay(3) == 1.0
        assert ctl.backoff_delay(9) == 1.0

    def test_respawn_rate_cap(self):
        ctl = self._ctl(respawn_cap=2, respawn_window=100.0)
        assert ctl.may_spawn(now=0.0)
        ctl.note_spawn(now=0.0)
        ctl.note_spawn(now=1.0)
        assert not ctl.may_spawn(now=2.0)
        # tokens free up once spawns age out of the window
        assert ctl.may_spawn(now=200.0)


# ----------------------------------------------------------------------
# durable job store
# ----------------------------------------------------------------------
class TestJobStore:
    def test_roundtrip_and_ordering(self, tmp_path):
        store = JobStore(str(tmp_path))
        for seq in range(3):
            rec = _record(store.next_job_id(), seq)
            store.save(rec)
        loaded = store.load_all()
        assert [r.job_id for r in loaded] == ["j000001", "j000002", "j000003"]
        assert all(r.state == "queued" for r in loaded)

    def test_corrupt_record_quarantined_not_fatal(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.save(_record(store.next_job_id(), 0))
        bad = store.record_path("j000002")
        with open(bad, "w") as f:
            f.write('{"job": {"half a reco')
        loaded = store.load_all()
        assert [r.job_id for r in loaded] == ["j000001"]
        qdir = os.path.join(str(tmp_path), "quarantine")
        assert os.listdir(qdir)

    def test_verified_but_malformed_record_quarantined(self, tmp_path):
        # the checksum verifies, the body does not parse ("seq" is not
        # an int): quarantined and skipped like a corrupt record, not a
        # raw ValueError out of load_all (and daemon recovery)
        store = JobStore(str(tmp_path))
        store.save(_record(store.next_job_id(), 0))
        body = _record("j000002", 1).to_dict()
        body["seq"] = "x"
        digest = hashlib.sha256(
            json.dumps(body, sort_keys=True).encode()
        ).hexdigest()
        with open(store.record_path("j000002"), "w") as f:
            json.dump({"job": body, "sha256": digest}, f)
        assert [r.job_id for r in store.load_all()] == ["j000001"]
        qfile = os.path.join(str(tmp_path), "quarantine", "j000002.json")
        assert os.path.exists(qfile + ".reason")

    def test_tampered_record_rejected(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.save(_record(store.next_job_id(), 0))
        path = store.record_path("j000001")
        outer = json.load(open(path))
        outer["job"]["state"] = "done"  # body no longer matches digest
        json.dump(outer, open(path, "w"))
        with pytest.raises(PipelineStageError, match="checksum"):
            store.load("j000001")


# ----------------------------------------------------------------------
# worker result commit point
# ----------------------------------------------------------------------
class TestWorkerResults:
    def test_check_job_to_result_file(self, tmp_path):
        inst = tmp_path / "inst"
        _write_instance(inst)
        job_dir = str(tmp_path / "job")
        run_job_to_file(_spec(inst), job_dir, allow_faults=False)
        payload, error = read_result(job_dir)
        assert error is None
        assert payload["feasible"] is True

    def test_error_outcome_is_committed_not_raised(self, tmp_path):
        job_dir = str(tmp_path / "job")
        spec = JobSpec(kind="check", instance="ghost",
                       dir=str(tmp_path / "nowhere"))
        run_job_to_file(spec, job_dir, allow_faults=False)
        payload, error = read_result(job_dir)
        assert payload is None
        assert error["exit_code"] >= 2

    def test_flipped_result_byte_detected(self, tmp_path):
        job_dir = str(tmp_path / "job")
        os.makedirs(job_dir)
        write_result(job_dir, payload={"ok": 1}, allow_faults=False)
        path = os.path.join(job_dir, "result.json")
        raw = bytearray(open(path, "rb").read())
        raw[len(raw) // 2] ^= 0x01
        open(path, "wb").write(bytes(raw))
        assert read_result(job_dir) is None

    def test_missing_result_is_none(self, tmp_path):
        assert read_result(str(tmp_path)) is None

    @pytest.mark.parametrize(
        "kind, extra", [("place", {}), ("replace", {"eco": False})]
    )
    def test_density_option_reaches_the_placer(self, tmp_path, kind, extra):
        """A job's ``density`` places exactly as an in-process placer
        with that ``density_target`` does, on every full-place path."""
        from repro.bookshelf import load_instance
        from repro.place import BonnPlaceFBP, BonnPlaceOptions
        from repro.workloads import NetlistSpec, generate_netlist

        # dense enough that 0.8 and the default 0.97 place differently
        inst = tmp_path / "inst"
        netlist, _logical = generate_netlist(
            NetlistSpec(name="svc", num_cells=200, utilization=0.5), seed=3
        )
        save_instance(str(inst), netlist, MoveBoundSet(netlist.die))
        job_dir = str(tmp_path / "job")
        spec = _spec(inst, kind=kind, options={"density": 0.8, **extra})
        run_job_to_file(spec, job_dir, allow_faults=False)
        payload, error = read_result(job_dir)
        assert error is None

        netlist, bounds = load_instance(str(inst), "svc")
        BonnPlaceFBP(BonnPlaceOptions(density_target=0.8)).place(
            netlist, bounds
        )
        save_instance(str(tmp_path / "ref"), netlist, bounds)
        with open(tmp_path / "ref" / "svc.pl", "rb") as f:
            assert payload["pl_sha256"] == hashlib.sha256(f.read()).hexdigest()


# ----------------------------------------------------------------------
# daemon smoke (real daemon subprocess, tiny jobs)
# ----------------------------------------------------------------------
@contextmanager
def _daemon(state_dir, *flags):
    """A live ``repro serve`` subprocess on a Unix socket."""
    sock = os.path.join(str(state_dir), "svc.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", str(state_dir), "--socket", sock, *flags],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    line = proc.stdout.readline()
    assert "listening" in line, f"daemon failed to start: {line!r}"
    client = ServiceClient(sock, timeout=30.0)
    try:
        yield client, proc
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


@pytest.fixture
def inst_dir(tmp_path):
    path = tmp_path / "inst"
    _write_instance(path)
    return path


class TestDaemonSmoke:
    def test_ping_submit_result_lifecycle(self, tmp_path, inst_dir):
        state = tmp_path / "state"
        with _daemon(state) as (client, _proc):
            assert client.ping()["protocol"] == 1
            jid = client.submit(_spec(inst_dir))
            job = client.wait_for(jid, timeout=60)
            assert job["state"] == "done"
            assert job["result"]["feasible"] is True
            # the result op agrees with the status view
            assert client.result(jid)["result"]["feasible"] is True

    def test_place_job_produces_durable_placement(self, tmp_path, inst_dir):
        state = tmp_path / "state"
        with _daemon(state) as (client, _proc):
            jid = client.submit(_spec(inst_dir, kind="place"))
            job = client.wait_for(jid, timeout=120)
            assert job["state"] == "done"
            out = job["result"]
            assert out["legal"] is True
            assert os.path.exists(out["pl_file"])
            import hashlib

            got = hashlib.sha256(
                open(out["pl_file"], "rb").read()
            ).hexdigest()
            assert got == out["pl_sha256"]

    def test_cancel_job(self, tmp_path, inst_dir):
        state = tmp_path / "state"
        # single slot + a queued second job: cancel hits either a
        # queued or a running job, both must land in "cancelled"
        with _daemon(state, "--max-running", "1") as (client, _proc):
            client.submit(_spec(inst_dir, kind="place"))
            jid2 = client.submit(_spec(inst_dir, kind="place"))
            client.cancel(jid2)
            job = client.wait_for(jid2, timeout=30)
            assert job["state"] == "cancelled"
            with pytest.raises(JobCancelledError):
                client.result(jid2)

    def test_overload_is_structured_exit_5(self, tmp_path, inst_dir,
                                           capsys):
        state = tmp_path / "state"
        # a zero-length tenant queue refuses every submit immediately:
        # deterministic overload without timing games
        with _daemon(state, "--tenant-max-queued", "0") as (client, _proc):
            with pytest.raises(ServiceOverloadError):
                client.submit(_spec(inst_dir))
            rc = main([
                "submit", "svc", "--dir", str(inst_dir),
                "--socket", client.socket_path,
            ])
            assert rc == EXIT_SERVICE == 5
            assert "error:" in capsys.readouterr().err

    def test_unknown_op_is_structured_error(self, tmp_path):
        state = tmp_path / "state"
        with _daemon(state) as (client, _proc):
            with pytest.raises(ReproError):
                client.request({"op": "frobnicate"})
            # daemon survives the bad request
            assert client.ping()["ok"]

    def test_status_of_unknown_job_errors(self, tmp_path):
        state = tmp_path / "state"
        with _daemon(state) as (client, _proc):
            with pytest.raises(ReproError, match="j999999"):
                client.status("j999999")
