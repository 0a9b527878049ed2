"""§IV.B parallelism claim: deterministic parallel realization.

Paper: realizations of independent external edges (disjoint coarse
windows) run in parallel with speedups up to 7.9x on 8 CPUs on large
grids, deterministically.

Two measurements:

1. *Schedule structure* — the realization scheduler computes the same
   independence graph as the paper; reported is the achievable speedup
   (sequential arc count over parallel rounds weighted by CPU count).
2. *Real worker pool* — the full FBP placer runs serially and on the
   supervised ``WindowSolverPool`` (2 and 4 workers); positions must be
   bit-identical across all configurations, and the measured wall time
   per configuration is emitted as ``results/BENCH_parallel.json``.
"""

import time

import numpy as np
import pytest

from repro.fbp import build_fbp_model, compute_schedule
from repro.grid import Grid
from repro.metrics import Table
from repro.movebounds import MoveBoundSet, decompose_regions
from repro.place import BonnPlaceFBP
from repro.runstate import WindowSolverPool, activated
from repro.workloads import NetlistSpec, generate_netlist

from harness import emit, emit_perf, full_run


def _clustered_instance(num_cells, seed):
    """Cells piled into one corner: lots of external flow to realize."""
    spec = NetlistSpec("sched", num_cells, utilization=0.6, num_pads=8)
    nl, _logical = generate_netlist(spec, seed=seed)
    rng = np.random.default_rng(seed)
    movable = [c.index for c in nl.cells if not c.fixed]
    die = nl.die
    nl.x[movable] = rng.uniform(die.x_lo, die.x_lo + die.width * 0.35,
                                len(movable))
    nl.y[movable] = rng.uniform(die.y_lo, die.y_lo + die.height * 0.35,
                                len(movable))
    return nl


def compute_rows(seed=1):
    grids = [4, 8, 16] if not full_run() else [4, 8, 16, 24]
    nl = _clustered_instance(1500, seed)
    mbs = MoveBoundSet(nl.die)
    decomposition = decompose_regions(nl.die, mbs, nl.blockages)
    rows = []
    for n in grids:
        grid = Grid(nl.die, n, n)
        grid.build_regions(decomposition)
        model = build_fbp_model(nl, mbs, grid, density_target=0.8)
        result = model.solve()
        assert result.feasible
        schedule = compute_schedule(model, model.external_flows(result))
        rows.append((n, schedule))
    return rows


def render(rows):
    table = Table(
        ["grid", "ext. arcs", "rounds", "max ||",
         "speedup(2)", "speedup(4)", "speedup(8)"],
        title="Parallel realization schedule (deterministic)",
    )
    for n, schedule in rows:
        table.add_row(
            f"{n}x{n}", schedule.num_arcs, schedule.num_rounds,
            schedule.max_parallelism,
            f"{schedule.speedup(2):.2f}",
            f"{schedule.speedup(4):.2f}",
            f"{schedule.speedup(8):.2f}",
        )
    return table


def _pool_placement(num_cells, seed, workers):
    """Place a fresh copy of the instance with the given pool size.

    Returns ``(x, y, hpwl, seconds)``; ``workers == 0`` is the serial
    in-process path the pool must match bit-for-bit.
    """
    spec = NetlistSpec("poolbench", num_cells, utilization=0.5, num_pads=8)
    nl, _logical = generate_netlist(spec, seed=seed)
    placer = BonnPlaceFBP()
    placer.options.legalize = False
    t0 = time.perf_counter()
    if workers:
        with WindowSolverPool(workers) as pool, activated(pool):
            result = placer.place(nl, MoveBoundSet(nl.die))
    else:
        result = placer.place(nl, MoveBoundSet(nl.die))
    seconds = time.perf_counter() - t0
    return nl.x.copy(), nl.y.copy(), result.hpwl, seconds


def run_pool_bench(seed=3):
    num_cells = 600 if not full_run() else 1500
    pool_sizes = [0, 2, 4]
    rows = []
    ref = None
    for workers in pool_sizes:
        x, y, hpwl, seconds = _pool_placement(num_cells, seed, workers)
        if ref is None:
            ref = (x, y)
        identical = bool(
            np.array_equal(ref[0], x) and np.array_equal(ref[1], y)
        )
        rows.append({
            "workers": workers,
            "seconds": round(seconds, 4),
            "hpwl": hpwl,
            "identical_to_serial": identical,
        })
    record = {
        "bench": "parallel_pool",
        "num_cells": num_cells,
        "seed": seed,
        "rows": rows,
        "serial_seconds": rows[0]["seconds"],
    }
    return record


def render_pool(record):
    table = Table(
        ["pool", "seconds", "HPWL", "identical"],
        title="Supervised window-solver pool (real processes)",
    )
    serial = record["serial_seconds"]
    for row in record["rows"]:
        label = "serial" if row["workers"] == 0 else f"{row['workers']}w"
        table.add_row(
            label,
            f"{row['seconds']:.2f}",
            f"{row['hpwl']:.1f}",
            "yes" if row["identical_to_serial"] else "NO",
        )
    table.add_row("speedup(4w)", f"{serial / record['rows'][-1]['seconds']:.2f}x",
                  "", "")
    return table


def test_parallel_schedule(benchmark):
    rows = compute_rows()
    emit("parallel_schedule", render(rows))

    small = rows[0][1]
    large = rows[-1][1]
    assert large.num_arcs > 0
    # speedup grows with the grid (paper: "good parallel speed-ups ...
    # on large grids")
    assert large.speedup(8) >= small.speedup(8)
    assert large.speedup(8) > 1.5
    assert large.speedup(8) <= 8.0 + 1e-9

    def kernel():
        return compute_rows(seed=2)[-1][1].speedup(8)

    assert benchmark.pedantic(kernel, rounds=1, iterations=1) > 0


def test_parallel_pool_real_workers():
    record = run_pool_bench()
    emit("parallel_pool", render_pool(record))
    emit_perf("parallel", record)
    # determinism is the hard requirement: every pool size must place
    # bit-identically to the serial run
    assert all(row["identical_to_serial"] for row in record["rows"])


if __name__ == "__main__":
    emit("parallel_schedule", render(compute_rows()))
    record = run_pool_bench()
    emit("parallel_pool", render_pool(record))
    emit_perf("parallel", record)
