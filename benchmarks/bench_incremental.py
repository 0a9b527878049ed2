"""Incremental re-place (ECO) latency benchmark.

Measures the tentpole claim of the transactional ECO engine: applying
a validated :class:`PlacementDelta` through the frontier-scoped
incremental solve is several times cheaper than re-running the full
multilevel placer on the patched instance.

Three phases on one synthetic instance:

* **delta-solve** — N distinct movebound deltas applied sequentially
  through :class:`EcoEngine` (journal commits included in the timing;
  every transaction must commit in ``eco`` mode and stay legal);
* **full re-run** — for each of the same deltas, the patched instance
  solved from scratch by a fresh :class:`BonnPlaceFBP` (the
  non-incremental baseline an ECO engine replaces);
* **fallback** — one apply with an injected solver fault
  (``eco.apply=stage``), proving the graceful-degradation rung is
  exercised and counted (``eco.fallbacks``).

The perf gate (`_check`): delta p50 must be at least 3x faster than
the full re-run p50, nothing may fall back in the timed phase, and the
fault phase must produce exactly the counted fallback.  The record is
emitted as ``BENCH_incremental.json`` (results dir + repo root) via
:func:`harness.emit_perf`.  ``--smoke`` shrinks the instance and trial
count for CI.
"""

import copy
import statistics
import sys
import tempfile
import time

from repro.eco import EcoEngine, PlacementDelta, build_patched_bounds
from repro.metrics import Table
from repro.movebounds import MoveBoundSet
from repro.obs import get_tracer
from repro.place.bonnplace import BonnPlaceFBP
from repro.resilience.faultinject import install_fault_plan, reset_faults
from repro.workloads.generator import NetlistSpec, generate_netlist

from harness import emit, emit_perf


def _mk_delta(i, die, movable, cells_per_delta=5):
    """A distinct, modest movebound delta per trial: one new bound in
    a rotating quadrant-ish rectangle, a handful of cells moved in."""
    w = die.x_hi - die.x_lo
    h = die.y_hi - die.y_lo
    fx = 0.05 + 0.10 * (i % 4)
    fy = 0.05 + 0.10 * ((i // 4) % 4)
    rect = [
        die.x_lo + fx * w,
        die.y_lo + fy * h,
        die.x_lo + (fx + 0.40) * w,
        die.y_lo + (fy + 0.40) * h,
    ]
    names = movable[cells_per_delta * i : cells_per_delta * (i + 1)]
    return PlacementDelta.from_dict(
        {"movebounds": [{"name": f"eco_mb{i}", "rects": [rect],
                         "cells": names}]}
    )


def _pctl(sorted_vals, q):
    return sorted_vals[min(len(sorted_vals) - 1,
                           int(q * len(sorted_vals)))]


def run_bench(smoke=False):
    cells = 400 if smoke else 1000
    trials = 4 if smoke else 10
    spec = NetlistSpec(
        name="ecobench", num_cells=cells, utilization=0.5, num_pads=16
    )
    netlist, _ = generate_netlist(spec, seed=3)
    placer = BonnPlaceFBP()
    t0 = time.perf_counter()
    placer.place(netlist, None)
    base_seconds = time.perf_counter() - t0
    die = netlist.die
    movable = [c.name for c in netlist.cells if not c.fixed]
    # pristine placed copy for the full re-run baseline — the engine
    # phase below accumulates movebound assignments on `netlist`
    pristine = copy.deepcopy(netlist)

    # -- phase 1: timed delta solves through the engine ----------------
    deltas = [_mk_delta(i, die, movable) for i in range(trials)]
    delta_times = []
    with tempfile.TemporaryDirectory(prefix="bench_eco_") as run_dir:
        engine = EcoEngine(netlist, placer=placer, run_dir=run_dir)
        for delta in deltas:
            t0 = time.perf_counter()
            eco = engine.apply(delta)
            delta_times.append(time.perf_counter() - t0)
            assert eco.mode == "eco", (eco.mode, eco.fallback_reason)
            assert eco.placement.legality.is_legal

        # -- phase 3: injected solver fault exercises the fallback rung
        tracer = get_tracer()
        fallbacks_before = tracer.counters.get("eco.fallbacks", 0)
        install_fault_plan("eco.apply=stage")
        try:
            t0 = time.perf_counter()
            degraded = engine.apply(_mk_delta(trials, die, movable))
            fallback_seconds = time.perf_counter() - t0
        finally:
            reset_faults()
        assert degraded.mode == "fallback", degraded.mode
        fallbacks = tracer.counters.get("eco.fallbacks", 0) - fallbacks_before

    # -- phase 2: the same deltas solved as full re-runs ---------------
    full_times = []
    for delta in deltas:
        nl = copy.deepcopy(pristine)
        for m in delta.movebounds:
            nl.set_cells(
                [nl.cell_index(name) for name in m.cells], movebound=m.name
            )
        bounds = build_patched_bounds(MoveBoundSet(die), delta, die)
        t0 = time.perf_counter()
        BonnPlaceFBP().place(nl, bounds)
        full_times.append(time.perf_counter() - t0)

    delta_sorted = sorted(delta_times)
    full_sorted = sorted(full_times)
    delta_p50 = statistics.median(delta_sorted)
    full_p50 = statistics.median(full_sorted)
    return {
        "smoke": smoke,
        "cells": cells,
        "trials": trials,
        "base_place_seconds": base_seconds,
        "delta": {
            "p50_seconds": delta_p50,
            "p99_seconds": _pctl(delta_sorted, 0.99),
            "mean_seconds": statistics.fmean(delta_sorted),
        },
        "full": {
            "p50_seconds": full_p50,
            "p99_seconds": _pctl(full_sorted, 0.99),
            "mean_seconds": statistics.fmean(full_sorted),
        },
        "speedup_p50": full_p50 / delta_p50,
        "fallback": {
            "exercised": fallbacks,
            "mode": degraded.mode,
            "reason": degraded.fallback_reason,
            "seconds": fallback_seconds,
        },
    }


def render(record):
    table = Table(
        ["metric", "value"],
        title="incremental re-place: delta-solve vs full re-run "
        f"({record['cells']} cells, {record['trials']} deltas)",
    )
    table.add_row("delta p50 (s)", f"{record['delta']['p50_seconds']:.3f}")
    table.add_row("delta p99 (s)", f"{record['delta']['p99_seconds']:.3f}")
    table.add_row("full p50 (s)", f"{record['full']['p50_seconds']:.3f}")
    table.add_row("full p99 (s)", f"{record['full']['p99_seconds']:.3f}")
    table.add_row("speedup p50", f"{record['speedup_p50']:.2f}x")
    table.add_row("fallbacks exercised",
                  str(record["fallback"]["exercised"]))
    table.add_row("fallback solve (s)",
                  f"{record['fallback']['seconds']:.3f}")
    return table


def _check(record):
    assert record["speedup_p50"] >= 3.0, (
        f"delta p50 only {record['speedup_p50']:.2f}x faster than the "
        f"full re-run (gate: 3x)"
    )
    assert record["fallback"]["exercised"] >= 1
    assert record["fallback"]["mode"] == "fallback"


def test_incremental_latency():
    record = run_bench(smoke=True)
    emit("incremental", render(record))
    emit_perf("incremental", record)
    _check(record)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    record = run_bench(smoke=smoke)
    emit("incremental", render(record))
    emit_perf("incremental", record)
    _check(record)
    print("incremental bench OK")
