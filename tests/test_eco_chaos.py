"""ECO transaction chaos (slow lane): SIGKILL and corruption at every
commit-point boundary.

The contract under test: the delta journal's commit point is one
atomic checksummed write, so a process killed at *any* instrumented
instant — before validation, mid-solve, between the journal's snapshot
and entry writes, at the commit itself, or mid-rollback — leaves a
state from which a plain re-run produces a placement byte-identical
(``cmp``-level, on the Bookshelf ``.pl``) to an uninterrupted run.
Corrupted journal entries are quarantined and re-solved, never
trusted; a re-run after a *successful* commit replays the journal
instead of re-solving.
"""

import filecmp
import json
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
from repro.resilience import ServiceOverloadError
from repro.service import JobSpec, ServiceClient
from repro.service.worker import read_result, run_job_to_file

pytestmark = pytest.mark.slow

DIE = Rect(0, 0, 100, 100)
_SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _env(fault_plan=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    if fault_plan is not None:
        env["REPRO_FAULT_PLAN"] = fault_plan
    else:
        env.pop("REPRO_FAULT_PLAN", None)
    return env


def _cli(args, fault_plan=None):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_env(fault_plan),
        capture_output=True,
        text=True,
        timeout=300,
    )


def _write_instance(path, name, cells=40, seed=0):
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


_PATCH = [
    {
        "name": "eco_a",
        "rects": [[5.0, 5.0, 60.0, 60.0]],
        "cells": [f"c{i}" for i in range(6)],
    }
]


def _setup(tmp_path, seed=0):
    inst = tmp_path / "inst"
    name = _write_instance(inst, "chaos", seed=seed)
    delta = tmp_path / "delta.json"
    delta.write_text(json.dumps(_PATCH))

    ref_out = tmp_path / "ref_out"
    ref = _cli(
        ["replace", name, "--dir", str(inst), "--out", str(ref_out),
         "--run-dir", str(tmp_path / "ref_run"),
         "--delta-file", str(delta)]
    )
    assert ref.returncode == 0, ref.stdout + ref.stderr
    return inst, name, delta, ref_out / f"{name}.pl"


def _replace_args(inst, name, delta, out, run_dir):
    return [
        "replace", name, "--dir", str(inst), "--out", str(out),
        "--run-dir", str(run_dir), "--delta-file", str(delta),
    ]


class TestKillAtEveryBoundary:
    @pytest.mark.parametrize(
        "site",
        ["eco.validate", "eco.apply", "eco.commit", "eco.commit.entry"],
    )
    def test_kill_then_plain_rerun_bit_identical(self, tmp_path, site):
        inst, name, delta, ref_pl = _setup(tmp_path)
        out, run = tmp_path / "out", tmp_path / "run"
        args = _replace_args(inst, name, delta, out, run)

        killed = _cli(args, fault_plan=f"{site}=kill")
        assert killed.returncode == 1  # os._exit(1): SIGKILL semantics
        # no torn journal entry: either nothing committed, or (never
        # for these pre-commit-point sites) a fully verified one
        eco_dir = run / "eco"
        if eco_dir.exists():
            assert not list(eco_dir.glob("*.json")), site

        rerun = _cli(args)
        assert rerun.returncode == 0, rerun.stdout + rerun.stderr
        assert filecmp.cmp(
            str(out / f"{name}.pl"), str(ref_pl), shallow=False
        ), f"placement diverged after kill at {site}"

    def test_kill_mid_rollback_then_rerun_bit_identical(self, tmp_path):
        """A solver fault forces rollback (fallback disabled) and the
        process dies *inside* the rollback: the journal is untouched by
        construction, so recovery is the pre-delta placement and a
        plain re-run matches the uninterrupted answer."""
        inst, name, delta, ref_pl = _setup(tmp_path)
        out, run = tmp_path / "out", tmp_path / "run"
        args = _replace_args(inst, name, delta, out, run) + [
            "--no-fallback"
        ]

        killed = _cli(
            args, fault_plan="eco.apply=stage;eco.rollback=kill"
        )
        assert killed.returncode == 1
        eco_dir = run / "eco"
        if eco_dir.exists():
            assert not list(eco_dir.glob("*.json"))

        rerun = _cli(_replace_args(inst, name, delta, out, run))
        assert rerun.returncode == 0, rerun.stdout + rerun.stderr
        assert filecmp.cmp(
            str(out / f"{name}.pl"), str(ref_pl), shallow=False
        )


class TestCorruptCommit:
    def test_corrupt_entry_quarantined_rerun_bit_identical(self, tmp_path):
        inst, name, delta, ref_pl = _setup(tmp_path)
        out, run = tmp_path / "out", tmp_path / "run"
        args = _replace_args(inst, name, delta, out, run)

        first = _cli(args, fault_plan="eco.commit=corrupt")
        assert first.returncode == 0, first.stdout + first.stderr
        assert filecmp.cmp(
            str(out / f"{name}.pl"), str(ref_pl), shallow=False
        )

        # the re-run must detect the mangled entry, quarantine it, and
        # re-solve to the same bytes — never trust a bad checksum
        rerun = _cli(args)
        assert rerun.returncode == 0, rerun.stdout + rerun.stderr
        assert "replayed" not in rerun.stdout
        qdir = run / "eco" / "quarantine"
        assert qdir.is_dir() and list(qdir.iterdir())
        assert filecmp.cmp(
            str(out / f"{name}.pl"), str(ref_pl), shallow=False
        )


class TestReplayAfterCommit:
    def test_rerun_after_success_replays_without_resolving(self, tmp_path):
        inst, name, delta, ref_pl = _setup(tmp_path)
        out, run = tmp_path / "out", tmp_path / "run"
        args = _replace_args(inst, name, delta, out, run)

        assert _cli(args).returncode == 0
        rerun = _cli(args)
        assert rerun.returncode == 0
        assert "eco replayed" in rerun.stdout, rerun.stdout
        assert len(list((run / "eco").glob("*.json"))) == 1
        assert filecmp.cmp(
            str(out / f"{name}.pl"), str(ref_pl), shallow=False
        )


class TestServiceReplaceChaos:
    def _start_daemon(self, state_dir, *flags, fault_plan=None):
        sock = os.path.join(str(state_dir), "svc.sock")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", str(state_dir), "--socket", sock, *flags],
            env=_env(fault_plan),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        line = proc.stdout.readline()
        assert "listening" in line, f"daemon failed to start: {line!r}"
        return proc, ServiceClient(sock, timeout=30.0)

    def _stop(self, proc):
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def test_daemon_sigkill_mid_replace_bit_identical(self, tmp_path):
        """A replace job routed through the ECO engine survives a
        daemon SIGKILL: the restarted daemon re-runs or replays the
        delta transaction to the bit-identical placement."""
        inst = tmp_path / "inst"
        name = _write_instance(inst, "svceco", seed=11)
        spec = JobSpec(
            kind="replace", instance=name, dir=str(inst),
            movebound_patch=_PATCH,
        )
        ref_dir = str(tmp_path / "ref_job")
        run_job_to_file(spec, ref_dir, allow_faults=False)
        payload, error = read_result(ref_dir)
        assert error is None, error
        assert payload["eco"]["mode"] in ("eco", "fallback")
        want = payload["pl_sha256"]

        state = tmp_path / "state"
        proc, client = self._start_daemon(state)
        try:
            jid = client.submit(spec)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if client.status(jid)["state"] in ("running", "done"):
                    break
                time.sleep(0.05)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()

            proc, client = self._start_daemon(state)
            job = client.wait_for(jid, timeout=180)
            assert job["state"] == "done", job
            assert job["result"]["pl_sha256"] == want
        finally:
            self._stop(proc)

    def test_tenant_quota_survives_daemon_sigkill(self, tmp_path):
        """The quota meter is durable: burning a tenant's quota, then
        SIGKILLing and restarting the daemon, must NOT refill it — the
        next submit is refused.  Without the ledger the restarted
        daemon would happily admit the job."""
        inst = tmp_path / "inst"
        name = _write_instance(inst, "quotaeco", seed=5)
        spec = JobSpec(kind="place", instance=name, dir=str(inst))

        state = tmp_path / "state"
        proc, client = self._start_daemon(
            state, "--tenant-quota", "0.05"
        )
        try:
            jid = client.submit(spec)
            job = client.wait_for(jid, timeout=180)
            assert job["state"] == "done", job

            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            proc, client = self._start_daemon(
                state, "--tenant-quota", "0.05"
            )
            with pytest.raises(ServiceOverloadError, match="quota"):
                client.submit(spec)
        finally:
            self._stop(proc)
