"""Chaos tests of the placement service (slow lane).

The contract under test: with faults injected anywhere — child
attempts SIGKILLed or stalled, result files corrupted, the daemon
itself SIGKILLed mid-run — every accepted job still completes after
restart with a placement bit-identical to an uninterrupted run, and
overload surfaces as a structured refusal, never a crash or a lost
job.
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.bookshelf import save_instance
from repro.geometry import Rect
from repro.movebounds import MoveBoundSet
from repro.netlist import Netlist, Pin
from repro.resilience import PipelineStageError
from repro.service import JobSpec, ServiceClient
from repro.service.worker import read_result, run_job_to_file

pytestmark = pytest.mark.slow

DIE = Rect(0, 0, 100, 100)
_SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _write_instance(path, name, cells, seed):
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


def _start_daemon(state_dir, *flags, fault_plan=None):
    sock = os.path.join(str(state_dir), "svc.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    if fault_plan is not None:
        env["REPRO_FAULT_PLAN"] = fault_plan
    else:
        env.pop("REPRO_FAULT_PLAN", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", str(state_dir), "--socket", sock, *flags],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    line = proc.stdout.readline()
    assert "listening" in line, f"daemon failed to start: {line!r}"
    return proc, ServiceClient(sock, timeout=30.0)


def _stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _reference_sha(tmp_path, inst_dir, name):
    """The uninterrupted-run answer, computed without any daemon."""
    ref_dir = str(tmp_path / f"ref_{name}")
    spec = JobSpec(kind="place", instance=name, dir=str(inst_dir))
    run_job_to_file(spec, ref_dir, allow_faults=False)
    payload, error = read_result(ref_dir)
    assert error is None, error
    return payload["pl_sha256"]


class TestDaemonKillRecovery:
    def test_sigkill_mid_jobs_then_bit_identical_results(self, tmp_path):
        """Three concurrent place jobs; the daemon is SIGKILLed while
        they run; a restarted daemon on the same state dir finishes
        every accepted job with the bit-identical placement."""
        instances = {}
        for i in range(3):
            name = f"chaos{i}"
            inst = tmp_path / f"inst{i}"
            _write_instance(inst, name, cells=40 + 10 * i, seed=i)
            instances[name] = inst
        want = {
            name: _reference_sha(tmp_path, inst, name)
            for name, inst in instances.items()
        }

        state = tmp_path / "state"
        proc, client = _start_daemon(state, "--max-running", "3")
        try:
            jids = {
                name: client.submit(
                    JobSpec(kind="place", instance=name, dir=str(inst))
                )
                for name, inst in instances.items()
            }
            # let work actually start before pulling the plug
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                states = [client.status(j)["state"] for j in jids.values()]
                if "running" in states:
                    break
                time.sleep(0.05)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()

            proc, client = _start_daemon(state, "--max-running", "3")
            for name, jid in jids.items():
                job = client.wait_for(jid, timeout=180)
                assert job["state"] == "done", (name, job)
                assert job["result"]["pl_sha256"] == want[name], name
        finally:
            _stop(proc)

    def test_double_kill_and_restart_still_completes(self, tmp_path):
        """Two successive daemon SIGKILLs on the same state dir: the
        job still lands, still bit-identical."""
        name = _write_instance(tmp_path / "inst", "twice", 50, seed=9)
        want = _reference_sha(tmp_path, tmp_path / "inst", "twice")
        state = tmp_path / "state"

        proc, client = _start_daemon(state)
        try:
            jid = client.submit(
                JobSpec(kind="place", instance=name,
                        dir=str(tmp_path / "inst"))
            )
            for _ in range(2):
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    try:
                        if client.status(jid)["state"] in (
                            "running", "done",
                        ):
                            break
                    except PipelineStageError:
                        pass
                    time.sleep(0.05)
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait()
                proc, client = _start_daemon(state)
            job = client.wait_for(jid, timeout=180)
            assert job["state"] == "done"
            assert job["result"]["pl_sha256"] == want
        finally:
            _stop(proc)


class TestChildFaults:
    def test_child_kill_crash_loop_degrades_to_fallback(self, tmp_path):
        """Every child attempt dies at pickup (fork inheritance arms
        the plan in each child); after max_attempts the in-daemon
        fallback — which bypasses fault sites by design — completes
        the job with the bit-identical placement."""
        name = _write_instance(tmp_path / "inst", "killed", 40, seed=3)
        want = _reference_sha(tmp_path, tmp_path / "inst", "killed")
        state = tmp_path / "state"
        proc, client = _start_daemon(
            state,
            "--max-attempts", "2",
            "--backoff-base", "0.05",
            fault_plan="svc.child.kill=kill",
        )
        try:
            jid = client.submit(
                JobSpec(kind="place", instance=name,
                        dir=str(tmp_path / "inst"))
            )
            job = client.wait_for(jid, timeout=180)
            assert job["state"] == "done"
            assert job["attempts"] >= 2
            assert job["result"]["pl_sha256"] == want
            stats = client.stats()["counters"]
            assert stats.get("svc.child_crashes", 0) >= 2
            assert stats.get("svc.fallbacks", 0) >= 1
        finally:
            _stop(proc)

    def test_child_stall_reaped_by_deadline(self, tmp_path):
        """A wedged child is killed at the per-attempt deadline and the
        job is retried; the terminal fallback still lands it."""
        name = _write_instance(tmp_path / "inst", "stalled", 40, seed=4)
        want = _reference_sha(tmp_path, tmp_path / "inst", "stalled")
        state = tmp_path / "state"
        proc, client = _start_daemon(
            state,
            "--job-timeout", "1.5",
            "--max-attempts", "2",
            "--backoff-base", "0.05",
            fault_plan="svc.child.stall=stall:60",
        )
        try:
            jid = client.submit(
                JobSpec(kind="place", instance=name,
                        dir=str(tmp_path / "inst"))
            )
            job = client.wait_for(jid, timeout=180)
            assert job["state"] == "done"
            assert job["result"]["pl_sha256"] == want
            stats = client.stats()["counters"]
            assert stats.get("svc.job_timeouts", 0) >= 1
        finally:
            _stop(proc)

    def test_corrupted_result_detected_and_retried(self, tmp_path):
        """The first attempt's result file is bit-flipped after
        checksumming; the daemon must reject it (checksum mismatch)
        and re-run instead of reporting garbage."""
        name = _write_instance(tmp_path / "inst", "corrupt", 40, seed=5)
        want = _reference_sha(tmp_path, tmp_path / "inst", "corrupt")
        state = tmp_path / "state"
        proc, client = _start_daemon(
            state,
            "--max-attempts", "2",
            "--backoff-base", "0.05",
            fault_plan="svc.result.corrupt=corrupt",
        )
        try:
            jid = client.submit(
                JobSpec(kind="place", instance=name,
                        dir=str(tmp_path / "inst"))
            )
            job = client.wait_for(jid, timeout=180)
            assert job["state"] == "done"
            assert job["result"]["pl_sha256"] == want
            # at least one attempt's commit failed verification
            assert job["attempts"] >= 2
        finally:
            _stop(proc)
