"""Scale sweep: sharded FBP from 10k to one million cells.

Each *arm* (one instance size x one solve mode) runs in a forked child
process so its peak RSS is measured in isolation
(``resource.getrusage`` of the child, not of the accumulated parent).
Per arm the child:

1. generates the synthetic instance (vectorized generator),
2. builds the window grid at the placer's natural depth for that size
   (``target_cells_per_window`` = 14, capped at 128 x 128),
3. runs one full FBP pass — model build, flow solve (monolithic or
   sharded), realization — and
4. reports wall seconds per phase, cells/second over the whole pass,
   RSS checkpoints after every phase, model sizes, and a position hash.

Modes:

* ``mono``  — monolithic MinCostFlow solve (small/medium sizes only;
  the flat solve is exactly what stops scaling past ~100k cells),
* ``shard`` — tile-sharded solve (``repro.fbp.sharding``), all sizes,
* ``pool``  — sharded solve through a 2-worker supervised pool,
* ``mono-pN`` — monolithic solve with an N-worker pool and the pool's
  min-work threshold at 0, forcing the pooled realization dispatch;
  the serial ``mono`` arm is its pool-0 counterpart.

Contracts asserted before the record is written:

* every arm completes feasibly with no monolithic fallback;
* sharded runs are byte-identical across pool sizes (hash compare);
* realization is byte-identical at pool sizes 0/1/4 (``mono`` vs the
  ``mono-pN`` arms);
* the realization phase of the reference row stays >= 2.5x faster
  than the pre-vectorization baseline (the tentpole gate);
* when the sharded arm reports zero cut flow, its placement is
  byte-identical to the monolithic arm of the same size;
* otherwise its HPWL stays within 1.5x of the monolithic arm.

The machine-readable record lands as ``BENCH_scale.json`` (results
dir + repo root).  ``--smoke`` shrinks the sweep to one 5k-cell size
(keeping the realization identity arms and a loose absolute
realization cap) so the CI job ``bench-scale-smoke`` can upload the
record as an artifact in a couple of minutes; the full sweep
(default) includes the one- and two-million-cell arms.  Note the
container pins one CPU core, so the pool arms measure dispatch
overhead honestly rather than showing a wall-clock win — the
realization speedup comes from the closed-form fast path and
vectorization, not parallelism.
"""

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))
from harness import emit_perf  # noqa: E402

FULL_SIZES = (10_000, 100_000, 1_000_000, 2_000_000)
#: the monolithic arm is the baseline the contract compares against;
#: past this size the flat solve is too slow to serve as one
MONO_LIMIT = 100_000
POOL_LIMIT = 100_000
SEED = 0
DENSITY = 0.9
SHARD_TILES = 8
#: pool sizes of the realization identity arms (``mono`` is pool-0)
REALIZE_POOLS = (1, 4)
#: realization seconds of the 100k monolithic row before the
#: tile-parallel/vectorized realization landed (the committed
#: BENCH_scale.json baseline); the tentpole gate is >= 2.5x on it
REALIZE_BASELINE_100K = 11.889
REALIZE_SPEEDUP_GATE = 2.5
#: loose absolute tripwire for the smoke row (5k cells)
REALIZE_SMOKE_CAP_S = 2.0


def natural_grid(num_cells: int) -> int:
    """Power-of-two grid matching ~14 cells per window, capped like the
    placer's level schedule at 128."""
    target = math.sqrt(max(num_cells, 1) / 14.0)
    return int(min(128, max(4, 2 ** round(math.log2(target)))))


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_arm(size: int, mode: str) -> dict:
    """One child-process arm; returns its metrics dict."""
    from repro.fbp.partitioner import fbp_partition
    from repro.grid import Grid
    from repro.movebounds import MoveBoundSet, decompose_regions
    from repro.workloads.generator import NetlistSpec, generate_netlist

    out = {"size": size, "mode": mode, "rss_mb": {}}
    t0 = time.perf_counter()
    spec = NetlistSpec(f"scale{size}", num_cells=size, utilization=0.5)
    netlist, _ = generate_netlist(spec, seed=SEED)
    out["seconds_generate"] = time.perf_counter() - t0
    out["num_nets"] = netlist.num_nets
    out["rss_mb"]["generate"] = _rss_mb()

    t1 = time.perf_counter()
    bounds = MoveBoundSet(netlist.die)
    n = natural_grid(size)
    grid = Grid(netlist.die, n, n)
    grid.build_regions(
        decompose_regions(netlist.die, bounds, netlist.blockages)
    )
    out["grid_n"] = n
    out["seconds_regions"] = time.perf_counter() - t1
    out["rss_mb"]["regions"] = _rss_mb()

    shard = SHARD_TILES if mode in ("shard", "pool") else None

    def partition():
        return fbp_partition(
            netlist,
            bounds,
            grid,
            density_target=DENSITY,
            run_local_qp=False,
            shard_tiles=shard,
        )

    pool_workers = 0
    if mode == "pool":
        pool_workers = 2
    elif mode.startswith("mono-p"):
        pool_workers = int(mode[len("mono-p"):])
        # force realize dispatch through the pool even though the
        # batch is below the min-work threshold — the arm exists to
        # prove pooled realization identity, not to win wall-clock
        # (each arm runs in its own child process)
        from repro.runstate import pool as pool_mod

        pool_mod._POOL_MIN_WORK = 0

    t2 = time.perf_counter()
    if pool_workers:
        from repro.runstate import WindowSolverPool, activated

        with WindowSolverPool(pool_workers) as pool, activated(pool):
            report = partition()
    else:
        report = partition()
    out["seconds_fbp_pass"] = time.perf_counter() - t2
    out["rss_mb"]["fbp_pass"] = _rss_mb()

    out["feasible"] = report.feasible
    out["flow_seconds"] = report.flow_seconds
    out["realization_seconds"] = report.realization_seconds
    out["model_nodes"] = report.stats.num_nodes
    out["model_arcs"] = report.stats.num_arcs
    #: the flow-array working set of one solve: one float64 per arc
    out["arc_array_mb"] = report.stats.num_arcs * 8 / 1e6
    #: the coordinate snapshot realization mutates: x + y float64
    out["snapshot_mb"] = netlist.num_cells * 16 / 1e6
    if report.shard is not None:
        out["shard_tiles"] = report.shard.num_tiles
        out["cut_flow_area"] = report.shard.cut_flow_area
        out["nonlocal_flow_area"] = report.shard.nonlocal_flow_area
        out["reconciled"] = report.shard.reconciled
        out["fallback"] = report.shard.fallback
        out["relaxed_tiles"] = len(report.shard.relaxed_tiles)
    total = time.perf_counter() - t0
    out["seconds_total"] = total
    out["cells_per_sec"] = size / total
    out["peak_rss_mb"] = _rss_mb()
    out["hpwl"] = netlist.hpwl()
    h = hashlib.sha256()
    h.update(netlist.x.tobytes())
    h.update(netlist.y.tobytes())
    out["position_hash"] = h.hexdigest()
    return out


def _spawn(size: int, mode: str) -> dict:
    """Run one arm in a child process for isolated peak-RSS."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--arm", mode, str(size)],
        capture_output=True,
        text=True,
        env=os.environ,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"arm {mode}/{size} failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check(arms: dict, smoke: bool = False) -> list:
    """Assert the sweep's contracts; returns human-readable notes."""
    notes = []
    for key, arm in arms.items():
        assert arm["feasible"], f"arm {key} infeasible"
        assert arm.get("fallback") is None, (
            f"arm {key} fell back to monolithic: {arm['fallback']}"
        )
    for size in sorted({a["size"] for a in arms.values()}):
        mono = arms.get(f"mono/{size}")
        shard = arms.get(f"shard/{size}")
        pool = arms.get(f"pool/{size}")
        pooled_realize = [
            (p, arms[f"mono-p{p}/{size}"])
            for p in REALIZE_POOLS
            if f"mono-p{p}/{size}" in arms
        ]
        if mono and pooled_realize:
            for p, arm in pooled_realize:
                assert mono["position_hash"] == arm["position_hash"], (
                    f"pool-{p} realization diverged from serial at {size}"
                )
            ps = "/".join(str(p) for p, _ in pooled_realize)
            notes.append(
                f"{size}: realization byte-identical at pool sizes 0/{ps}"
            )
        if shard and pool:
            assert shard["position_hash"] == pool["position_hash"], (
                f"pool arm diverged from serial shard at {size}"
            )
            notes.append(f"{size}: serial and pool-2 shard byte-identical")
        if mono and shard:
            if shard["cut_flow_area"] == 0.0 and shard[
                "nonlocal_flow_area"
            ] == 0.0:
                assert mono["position_hash"] == shard["position_hash"], (
                    f"zero-cut shard not byte-identical to mono at {size}"
                )
                notes.append(
                    f"{size}: zero-cut regime, shard == mono bit-for-bit"
                )
            else:
                ratio = shard["hpwl"] / mono["hpwl"]
                assert ratio <= 1.5, (
                    f"shard HPWL degraded {ratio:.3f}x at {size}"
                )
                notes.append(
                    f"{size}: cut flow {shard['cut_flow_area']:.1f}, "
                    f"HPWL ratio {ratio:.3f}"
                )
    ref = arms.get(f"mono/{MONO_LIMIT}")
    if ref is not None:
        speedup = REALIZE_BASELINE_100K / max(
            ref["realization_seconds"], 1e-9
        )
        assert speedup >= REALIZE_SPEEDUP_GATE, (
            f"realization speedup {speedup:.2f}x below the "
            f"{REALIZE_SPEEDUP_GATE}x gate "
            f"({ref['realization_seconds']:.3f}s vs "
            f"{REALIZE_BASELINE_100K}s baseline)"
        )
        notes.append(
            f"{MONO_LIMIT}: realization {ref['realization_seconds']:.3f}s, "
            f"{speedup:.1f}x over the {REALIZE_BASELINE_100K}s baseline "
            f"(gate >= {REALIZE_SPEEDUP_GATE}x)"
        )
    if smoke:
        for key, arm in arms.items():
            if key.startswith("mono"):
                assert arm["realization_seconds"] <= REALIZE_SMOKE_CAP_S, (
                    f"smoke realization {arm['realization_seconds']:.2f}s "
                    f"over the {REALIZE_SMOKE_CAP_S}s tripwire ({key})"
                )
        notes.append(
            f"smoke: realization under the {REALIZE_SMOKE_CAP_S}s tripwire"
        )
    return notes


def run_bench(smoke: bool = False) -> dict:
    sizes = (5_000,) if smoke else FULL_SIZES
    identity_size = max(s for s in sizes if s <= MONO_LIMIT)
    arms = {}
    for size in sizes:
        modes = ["shard"]
        if size <= MONO_LIMIT:
            modes.insert(0, "mono")
        if size <= POOL_LIMIT:
            modes.append("pool")
        if size == identity_size:
            modes.extend(f"mono-p{p}" for p in REALIZE_POOLS)
        for mode in modes:
            t = time.perf_counter()
            arm = _spawn(size, mode)
            arms[f"{mode}/{size}"] = arm
            print(
                f"[{mode:>5}/{size:>9}] grid {arm['grid_n']}x"
                f"{arm['grid_n']}  total {arm['seconds_total']:.1f}s "
                f"({arm['cells_per_sec']:.0f} cells/s)  "
                f"peak RSS {arm['peak_rss_mb']:.0f} MB  "
                f"(spawn overhead {time.perf_counter()-t-arm['seconds_total']:.1f}s)",
                flush=True,
            )
    notes = _check(arms, smoke=smoke)
    record = {
        "bench": "scale",
        "smoke": smoke,
        "seed": SEED,
        "density_target": DENSITY,
        "shard_tiles": SHARD_TILES,
        "sizes": list(sizes),
        "arms": arms,
        "contracts": notes,
    }
    return record


if __name__ == "__main__":
    argv = sys.argv[1:]
    if argv and argv[0] == "--arm":
        print(json.dumps(run_arm(int(argv[2]), argv[1])))
        sys.exit(0)
    smoke = "--smoke" in argv
    record = run_bench(smoke=smoke)
    emit_perf("scale", record)
    for note in record["contracts"]:
        print("  " + note)
    print("bench_scale OK" + (" (smoke)" if smoke else ""))
