"""The only file of the benchmark that imports ``repro``.

It is both a library (``install_tracing``) and the entry point of
every child process the benchmark starts except the plain CLI op:

``setup``   generate a workload's instances from its seeds, write them
            as Bookshelf files, place a small warm-up instance, and for
            the ECO workload place the base design and write its deltas
``cli``     ``repro.cli.main`` with the outside tracer installed (the
            traced twin of ``python -m repro place``)
``global``  load -> ``BonnPlaceFBP(legalize=False).place`` -> save
``eco``     one resident ``EcoEngine`` applying a file of deltas

A refactor of ``src/repro`` that moves or renames an entry point shows
up as ``trace.unbound`` > 0 and null metrics for that layer; the fix
belongs in ``layers.py``, never in the program.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import spans  # noqa: E402


# ----------------------------------------------------------------------
# outside tracer
# ----------------------------------------------------------------------
def resolve(spec: str) -> Optional[Tuple[object, str, Callable]]:
    """``module:qualname`` -> (owner, attribute, function) or None."""
    module_name, _, qualname = spec.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        target = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    except (ImportError, AttributeError, KeyError):
        return None
    if not callable(target):
        return None
    return owner, attr, target


class Tracing:
    """The installed wrappers; ``restore()`` puts the originals back."""

    def __init__(self) -> None:
        self.unbound: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []

    def bind(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install_tracing(
    recorder: spans.SpanRecorder,
    entry_points: Optional[Dict[str, List[str]]] = None,
    prefix: str = "repro",
) -> Tracing:
    """Wrap every entry point and rebind every module attribute under
    ``prefix`` that *is* the original function, so ``from x import f``
    call sites are covered without being listed."""
    tracing = Tracing()
    resolved = []
    for layer, specs in (entry_points or layers.ENTRY_POINTS).items():
        for spec in specs:
            hit = resolve(spec)
            if hit is None:
                tracing.unbound.append(spec)
            else:
                resolved.append((layer, *hit))
    modules = [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == prefix or name.startswith(prefix + "."))
    ]
    functions = {}
    for layer, owner, attr, original in resolved:
        wrapped = recorder.wrap(layer, original)
        if isinstance(owner, type):
            tracing.bind(owner, attr, wrapped)
        else:
            functions[id(original)] = (original, wrapped)
    for module in modules:
        for name, value in list(vars(module).items()):
            original, wrapped = functions.get(id(value), (None, None))
            if value is original:
                tracing.bind(module, name, wrapped)
    return tracing


# ----------------------------------------------------------------------
# set-up: instances from seeds
# ----------------------------------------------------------------------
def _generate(workload: dict, name: str, cells: int, seed: int):
    from repro.movebounds import MoveBoundSet
    from repro.workloads.generator import NetlistSpec, generate_netlist
    from repro.workloads.movebound_gen import MoveBoundSpec, attach_movebounds

    count = workload["movebounds"]
    # an unlucky seed may admit no feasible movebound layout; the
    # generator then moves on to the next seed, deterministically
    for attempt in range(16):
        netlist, logical = generate_netlist(
            NetlistSpec(name=name, num_cells=cells, utilization=0.5),
            seed=seed + attempt,
        )
        if not count:
            return netlist, MoveBoundSet(netlist.die)
        density = workload["movebound_density"]
        specs = [
            MoveBoundSpec(
                name=f"mb{i}",
                cell_fraction=workload["movebound_share"] / count,
                density=density if i == 0 else 0.8 * density,
                shape="L" if i % 3 == 2 else "rect",
                from_flattening=False,
            )
            for i in range(count)
        ]
        try:
            return netlist, attach_movebounds(
                netlist, logical, specs, seed=seed + attempt + 77
            )
        except ValueError:
            continue
    raise SystemExit(f"no feasible movebound layout for {name} (seed {seed})")


def _make_deltas(netlist, workload: dict, seed: int) -> List[dict]:
    """Seeded movebound deltas on the placed base design: disjoint
    row-aligned rectangles on a jittered lattice, each claiming the
    nearest movable cells nobody has claimed yet."""
    import numpy as np

    rng = np.random.default_rng(seed)
    die = netlist.die
    row, site = netlist.row_height, netlist.site_width
    movable = np.array([c.index for c in netlist.cells if not c.fixed])
    claim = workload["delta_cells"]
    mean_area = float(np.mean([netlist.cells[i].size for i in movable]))
    extent = min(die.width, die.height)
    side = max(0.10 * extent, math.sqrt(claim * mean_area / 0.4))
    n = max(1, int(extent // (1.2 * side + 2 * row)))
    count = min(workload["deltas"], n * n, len(movable) // (3 * claim))
    pitch_x, pitch_y = die.width / n, die.height / n
    free = np.ones(len(movable), dtype=bool)
    deltas = []
    for j, pick in enumerate(rng.choice(n * n, size=count, replace=False).tolist()):
        jx, jy = rng.random(2)
        x0 = die.x_lo + (pick % n) * pitch_x + row + jx * (pitch_x - side - 2 * row)
        y0 = die.y_lo + (pick // n) * pitch_y + row + jy * (pitch_y - side - 2 * row)
        rect = [
            die.x_lo + math.floor((x0 - die.x_lo) / site) * site,
            die.y_lo + math.floor((y0 - die.y_lo) / row) * row,
            min(die.x_lo + math.ceil((x0 + side - die.x_lo) / site) * site, die.x_hi),
            min(die.y_lo + math.ceil((y0 + side - die.y_lo) / row) * row, die.y_hi),
        ]
        cx, cy = (rect[0] + rect[2]) / 2, (rect[1] + rect[3]) / 2
        dist = np.abs(netlist.x[movable] - cx) + np.abs(netlist.y[movable] - cy)
        dist[~free] = np.inf
        nearest = np.argsort(dist, kind="stable")[:claim]
        free[nearest] = False
        deltas.append(
            {
                "movebounds": [
                    {
                        "name": f"eco{j}",
                        "rects": [rect],
                        "cells": [netlist.cells[int(movable[k])].name for k in nearest],
                    }
                ]
            }
        )
    return deltas


def run_setup(spec_path: str, out_dir: str) -> int:
    from repro.bookshelf import save_instance
    from repro.cli import main as cli_main
    from repro.place.bonnplace import BonnPlaceFBP

    with open(spec_path) as f:
        spec = json.load(f)
    workload = spec["workload"]
    for name, seed in zip(spec["names"], spec["seeds"]):
        netlist, bounds = _generate(workload, name, workload["cells"], seed)
        save_instance(os.path.join(out_dir, "input"), netlist, bounds)
        if workload["op"] == "eco":
            result = BonnPlaceFBP().place(netlist, bounds)
            if not (result.legality and result.legality.is_legal):
                raise SystemExit(f"base placement of {name} is not legal")
            save_instance(os.path.join(out_dir, "base"), netlist, bounds)
            with open(os.path.join(out_dir, f"{name}.deltas.json"), "w") as f:
                json.dump(_make_deltas(netlist, workload, seed), f)
    # warm-up: compiles bytecode and fills the page cache before any op
    flat = dict(workload, movebounds=0)
    netlist, bounds = _generate(flat, "warmup", spec["warmup_cells"], 0)
    warm = os.path.join(out_dir, "warmup")
    save_instance(warm, netlist, bounds)
    return cli_main(["place", "warmup", "--dir", warm, "--out", os.path.join(warm, "out")])


# ----------------------------------------------------------------------
# measured ops
# ----------------------------------------------------------------------
def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_cli(argv: List[str]) -> Tuple[int, dict]:
    from repro.cli import main as cli_main

    return cli_main(argv), {}


def run_global(directory: str, name: str, out: str) -> Tuple[int, dict]:
    from repro.bookshelf import load_instance, save_instance
    from repro.place.bonnplace import BonnPlaceFBP, BonnPlaceOptions

    netlist, bounds = load_instance(directory, name)
    result = BonnPlaceFBP(BonnPlaceOptions(legalize=False)).place(netlist, bounds)
    save_instance(out, netlist, bounds)
    return 0, {"ops": [{"ok": True, "hpwl": result.hpwl, "legal": None}]}


def run_eco(
    directory: str, name: str, deltas_path: str, run_dir: str, out: str
) -> Tuple[int, dict]:
    from repro.bookshelf import load_instance, save_instance
    from repro.eco import EcoEngine
    from repro.place.bonnplace import BonnPlaceFBP
    from repro.resilience.errors import ReproError

    with open(deltas_path) as f:
        deltas = json.load(f)
    netlist, bounds = load_instance(directory, name)
    engine = EcoEngine(netlist, bounds, placer=BonnPlaceFBP(), run_dir=run_dir)
    ops = []
    for j, delta in enumerate(deltas):
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            result = engine.apply(delta)
        except ReproError as exc:
            ops.append({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
            continue
        t1, cpu1 = time.perf_counter(), _cpu_seconds()
        # written outside the timed window, for the parent's audit
        save_instance(os.path.join(out, f"op{j}"), netlist, engine.bounds)
        legality = result.placement.legality if result.placement else None
        ops.append(
            {
                "ok": True,
                "window": [t0, t1],
                "wall_s": t1 - t0,
                "cpu_s": cpu1 - cpu0,
                "hpwl": result.hpwl_post,
                "legal": None if legality is None else legality.is_legal,
                "mode": result.mode,
            }
        )
    levels = engine.placer.num_levels(netlist)
    return 0, {"ops": ops, "finest_windows": len(ops) * 4**levels}


#: the module whose import ends the ``startup`` span of each mode
_PROGRAM_MODULE = {
    "setup": "repro.cli",
    "cli": "repro.cli",
    "global": "repro.place.bonnplace",
    "eco": "repro.eco",
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=sorted(_PROGRAM_MODULE))
    parser.add_argument("--spec")
    parser.add_argument("--dir")
    parser.add_argument("--name")
    parser.add_argument("--out")
    parser.add_argument("--deltas")
    parser.add_argument("--run-dir")
    parser.add_argument("--report", help="write the op report (JSON) here")
    parser.add_argument("--spans", help="trace the op and write spans here")
    parser.add_argument("--t-spawn", type=float, help="parent clock at spawn")
    parser.add_argument("--argv", help="cli mode: the CLI's arguments, as JSON")
    args = parser.parse_args(argv)

    importlib.import_module(_PROGRAM_MODULE[args.mode])
    imported = time.perf_counter()
    recorder = tracing = None
    if args.spans:
        recorder = spans.SpanRecorder()
        recorder.add(layers.STARTUP, args.t_spawn, imported)
        tracing = install_tracing(recorder)
    try:
        if args.mode == "setup":
            return run_setup(args.spec, args.out)
        if args.mode == "cli":
            rc, report = run_cli(json.loads(args.argv))
        elif args.mode == "global":
            rc, report = run_global(args.dir, args.name, args.out)
        else:
            rc, report = run_eco(args.dir, args.name, args.deltas, args.run_dir, args.out)
        if args.report:
            with open(args.report, "w") as f:
                json.dump(report, f)
        return rc
    finally:
        if recorder is not None:
            from repro.obs import get_tracer

            spans.dump(
                args.spans,
                recorder,
                counters=dict(get_tracer().counters),
                unbound=tracing.unbound,
            )


if __name__ == "__main__":
    sys.exit(main())
