"""The layer table: which public entry points make up which layer,
which program counters are read, and how every metric is named.

A layer is a module of ``src/repro`` measured from outside: the tracer
(``adapter.install_tracing``) wraps each ``module:qualname`` below and
``spans.py`` turns the recorded spans into ``<layer>.self_s`` and
``<layer>.calls``.  Nothing here imports ``repro``; a name that stops
resolving after a refactor is reported in ``trace.unbound``, it never
crashes the benchmark.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: the layer whose span is synthesized by the child itself: process
#: spawn until the program's modules are imported
STARTUP = "startup"

ENTRY_POINTS: Dict[str, List[str]] = {
    "bookshelf.load": ["repro.bookshelf.io:load_instance"],
    "bookshelf.save": ["repro.bookshelf.io:save_instance"],
    "validate": ["repro.resilience.validate:validate_instance"],
    "movebounds.regions": [
        "repro.movebounds.regions:decompose_regions",
        "repro.movebounds.bounds:MoveBoundSet.normalize",
    ],
    "feasibility": ["repro.feasibility.check:check_feasibility"],
    "grid": [
        "repro.grid.grid:Grid.build_regions",
        "repro.grid.grid:Grid.assign_cells",
    ],
    "qp": ["repro.qp.solver:solve_qp"],
    "fbp.model": ["repro.fbp.model:build_fbp_model"],
    "fbp.solve": [
        "repro.fbp.model:FBPModel.solve",
        "repro.fbp.sharding:solve_sharded",
    ],
    "fbp.realize": ["repro.fbp.realization:realize_flow"],
    # the placer reaches the kernels through the problem object; the
    # one-shot ``solve_min_cost_flow`` wrapper alone would read 0 calls
    "flows.mcf": [
        "repro.flows.mincostflow:MinCostFlowProblem.solve",
        "repro.flows.mincostflow:solve_min_cost_flow",
    ],
    "flows.transport": [
        "repro.flows.transportation:solve_transportation",
        "repro.flows.transportation:solve_transportation_with_relaxation",
    ],
    "partitioning.repartition": [
        "repro.partitioning.repartition:repartition_pass",
        "repro.partitioning.repartition:enforce_blocks",
    ],
    "partitioning.cells": ["repro.partitioning.transport:partition_cells"],
    "legalize.region": ["repro.legalize.region:legalize_with_movebounds"],
    "legalize.abacus": ["repro.legalize.abacus:abacus_legalize"],
    "legalize.detailed": ["repro.legalize.detailed:detailed_place"],
    "legalize.checks": ["repro.legalize.checks:check_legality"],
    "netlist.hpwl": ["repro.netlist.netlist:Netlist.hpwl"],
    "eco.apply": ["repro.eco.engine:EcoEngine.apply"],
    "runstate.pool": [
        "repro.runstate.pool:WindowSolverPool.solve_batch",
        "repro.runstate.pool:WindowSolverPool.solve_realize_units",
    ],
}

LAYERS: List[str] = [STARTUP] + list(ENTRY_POINTS)

#: program counters read once after the op from ``get_tracer().counters``
#: (metric ``n.<counter>``); no new instrumentation
COUNTERS: List[str] = [
    "place.levels",
    "fbp.model.nodes",
    "fbp.model.arcs",
    "mcf.solves",
    "mcf.pivots",
    "kernel.pricing_arcs",
    "transport.solves",
    "transport.pivots",
    "transport.infeasible",
    "realize.windows",
    "realize.trivial_windows",
    "realize.local_qp_calls",
    "qp.cg_iters",
    "repartition.blocks_enforced",
    "legalize.region_runs",
    "cache.hit",
    "cache.miss",
    "warmstart.hits",
    "warmstart.misses",
    "resilience.fallbacks",
    "eco.frontier_windows",
    "eco.fallbacks",
    "shard.solves",
    "pool.tasks",
]

#: useful-over-attempted ratios: name -> (numerator counters,
#: denominator counters).  ``ops`` and ``finest_windows`` are supplied
#: by the measured child, not by the program's tracer.
RATIOS: Dict[str, Tuple[List[str], List[str]]] = {
    "realize.trivial_frac": (["realize.trivial_windows"], ["realize.windows"]),
    "transport.infeasible_frac": (["transport.infeasible"], ["transport.solves"]),
    "cache.hit_frac": (["cache.hit"], ["cache.hit", "cache.miss"]),
    "warmstart.hit_frac": (
        ["warmstart.hits"],
        ["warmstart.hits", "warmstart.misses"],
    ),
    "eco.scoped_frac": (["eco.commits.eco"], ["ops"]),
    "eco.frontier_frac": (["eco.frontier_windows"], ["finest_windows"]),
}

#: per-layer times are means per op, hence the unit
PER_OP_SECONDS = "s/op"

TRACE_METRICS: Dict[str, str] = {
    "trace.unattributed_s": PER_OP_SECONDS,
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.unbound": "count",
}

#: end-to-end metrics: name -> (unit, regression bound).  All are
#: "lower is better".  ``hpwl`` is the audited HPWL of an op's output
#: over the audited HPWL of the placement the op was given, which makes
#: instances of different seeds comparable.  The timing bounds are as
#: wide as the contract allows because this two-core VM slows down by
#: 20-35 % for a minute at a time (README, "Noise").
END_TO_END: Dict[str, Tuple[str, float]] = {
    "setup_s": ("s", 0.25),
    "op_wall_s": ("s", 0.25),
    "op_cpu_s": ("s", 0.25),
    "peak_rss_mb": ("MiB", 0.10),
    "hpwl": ("ratio", 0.10),
    "max_bin_util": ("ratio", 0.10),
}

#: metrics that are functions of the solver's result only and must
#: repeat exactly under the pinned thread environment
EXACT_END_TO_END = ("hpwl", "max_bin_util")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = PER_OP_SECONDS
        units[f"{layer}.calls"] = "count"
    units.update(TRACE_METRICS)
    for counter in COUNTERS:
        units[f"n.{counter}"] = "count"
    for ratio in RATIOS:
        units[ratio] = "ratio"
    return units
