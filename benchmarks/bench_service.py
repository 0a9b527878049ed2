"""Placement-service latency and overload benchmark.

Two measurements against a live ``repro serve`` daemon (spawned as a
subprocess on a Unix socket, torn down afterwards):

* **submit-to-result latency** — N sequential ``check`` jobs, each
  timed from the submit call to the blocking ``result`` reply
  (p50/p99/mean, full protocol + dispatch + child-process round
  trip);
* **overload shedding** — a burst of mixed-priority submits against
  a deliberately tiny queue (``--max-queue 4 --max-running 1``);
  every submit must resolve *deterministically* into accepted, shed,
  or a structured ``ServiceOverloadError`` refusal — never a hang or
  a daemon crash — and the daemon must still answer ``ping``
  afterwards.

The record is emitted as ``BENCH_service.json`` (results dir + repo
root) via :func:`harness.emit_perf`.  ``--smoke`` shrinks both phases
for CI.
"""

import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.bookshelf import save_instance
from repro.geometry import Rect
from repro.metrics import Table
from repro.movebounds import MoveBoundSet
from repro.netlist import Netlist, Pin
from repro.resilience import ServiceOverloadError
from repro.service import JobSpec, ServiceClient

from harness import emit, emit_perf

_SRC = os.path.join(os.path.dirname(__file__), "..", "src")
DIE = Rect(0, 0, 100, 100)


def _write_instance(path, name="bench", cells=60, seed=0):
    rng = np.random.default_rng(seed)
    nl = Netlist(DIE, name=name)
    for i in range(cells):
        nl.add_cell(f"c{i}", 2.0, 1.0)
    for i in range(0, cells - 2, 2):
        nl.add_net(f"n{i}", [Pin(i), Pin(i + 1), Pin((i + 7) % cells)])
    nl.x[:] = rng.uniform(5, 95, nl.num_cells)
    nl.y[:] = rng.uniform(5, 95, nl.num_cells)
    os.makedirs(path, exist_ok=True)
    save_instance(path, nl, MoveBoundSet(DIE))
    return name


def _start_daemon(state_dir, *flags):
    sock = os.path.join(state_dir, "svc.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--state-dir", state_dir, "--socket", sock, *flags],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    line = proc.stdout.readline()
    assert "listening" in line, f"daemon failed to start: {line!r}"
    return proc, ServiceClient(sock, timeout=60.0)


def _stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _latency_phase(workdir, jobs):
    """Sequential check jobs; submit-to-result wall seconds each."""
    inst_dir = os.path.join(workdir, "inst")
    name = _write_instance(inst_dir)
    state = os.path.join(workdir, "state_latency")
    proc, client = _start_daemon(state)
    latencies = []
    try:
        spec = JobSpec(kind="check", instance=name, dir=inst_dir)
        for _ in range(jobs):
            t0 = time.perf_counter()
            jid = client.submit(spec)
            client.result(jid, wait=True, timeout=120.0)
            latencies.append(time.perf_counter() - t0)
    finally:
        _stop(proc)
    latencies.sort()
    return {
        "jobs": jobs,
        "p50_seconds": statistics.median(latencies),
        "p99_seconds": latencies[min(len(latencies) - 1,
                                     int(0.99 * len(latencies)))],
        "mean_seconds": statistics.fmean(latencies),
        "max_seconds": latencies[-1],
    }


def _overload_phase(workdir, burst):
    """Burst submits against a tiny queue; count the three outcomes."""
    inst_dir = os.path.join(workdir, "inst")
    name = _write_instance(inst_dir)
    state = os.path.join(workdir, "state_overload")
    proc, client = _start_daemon(
        state, "--max-queue", "4", "--max-running", "1",
        "--tenant-max-queued", "64",
    )
    accepted, refused = [], 0
    try:
        for i in range(burst):
            spec = JobSpec(kind="check", instance=name, dir=inst_dir,
                           priority=i % 3)
            try:
                accepted.append(client.submit(spec))
            except ServiceOverloadError:
                refused += 1
        # the daemon must still be responsive under the burst
        assert client.ping()["ok"]
        # drain: every accepted job must reach a terminal state
        terminal = {}
        deadline = time.monotonic() + 300
        for jid in accepted:
            job = client.wait_for(
                jid, timeout=max(1.0, deadline - time.monotonic())
            )
            terminal[jid] = job["state"]
        stats = client.stats()["counters"]
    finally:
        _stop(proc)
    shed = sum(1 for s in terminal.values() if s == "shed")
    done = sum(1 for s in terminal.values() if s == "done")
    lost = sum(
        1 for s in terminal.values()
        if s not in ("done", "failed", "shed", "cancelled")
    )
    return {
        "burst": burst,
        "accepted": len(accepted),
        "refused": refused,
        "shed": shed,
        "done": done,
        "lost": lost,
        "shed_rate": (refused + shed) / burst,
        "svc_shed_counter": stats.get("svc.shed", 0),
        "svc_refused_counter": stats.get("svc.refused_queue_full", 0),
    }


def run_bench(smoke=False):
    workdir = tempfile.mkdtemp(prefix="bench_service_")
    try:
        record = {
            "smoke": smoke,
            "latency": _latency_phase(workdir, jobs=8 if smoke else 30),
            "overload": _overload_phase(workdir, burst=12 if smoke else 40),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return record


def render(record):
    lat, ovl = record["latency"], record["overload"]
    table = Table(
        ["metric", "value"],
        title="service daemon: submit-to-result latency and overload "
        "shedding",
    )
    table.add_row("latency p50 (s)", f"{lat['p50_seconds']:.3f}")
    table.add_row("latency p99 (s)", f"{lat['p99_seconds']:.3f}")
    table.add_row("latency mean (s)", f"{lat['mean_seconds']:.3f}")
    table.add_row("burst size", str(ovl["burst"]))
    table.add_row("accepted / refused / shed",
                  f"{ovl['accepted']} / {ovl['refused']} / {ovl['shed']}")
    table.add_row("shed rate", f"{ovl['shed_rate']:.2f}")
    table.add_row("jobs lost", str(ovl["lost"]))
    return table


def _check(record):
    ovl = record["overload"]
    # the hard contract: every submit resolved, nothing lost, and the
    # tiny queue actually pushed back
    assert ovl["lost"] == 0
    assert ovl["accepted"] + ovl["refused"] == ovl["burst"]
    assert ovl["refused"] + ovl["shed"] > 0
    assert ovl["done"] > 0
    assert record["latency"]["p50_seconds"] < 30.0


def test_service_latency_and_overload():
    record = run_bench(smoke=True)
    emit("service", render(record))
    emit_perf("service", record)
    _check(record)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    record = run_bench(smoke=smoke)
    emit("service", render(record))
    emit_perf("service", record)
    _check(record)
    print("service bench OK")
