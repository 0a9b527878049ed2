"""Opt-in invariant checks for the FBP pipeline.

The paper's correctness story rests on three conditions the pipeline is
supposed to maintain; this module turns each into an executable check:

* **flow conservation** — after every MinCostFlow solve, each node's
  flow balance must match its supply (transit nodes conserve exactly,
  demand nodes absorb at most their capacity), and every arc's flow
  must respect ``[0, capacity]``;
* **capacity condition (1)** — after a feasible FBP solve, the flow
  absorbed by each (window, region) must not exceed its advertised
  free capacity;
* **movebound containment** — after realization, every cell the pass
  assigned to a region must sit geometrically inside its movebound's
  area.

A fourth check guards an optimisation rather than the paper: the
reflow's **threaded HPWL** must equal a whole-netlist recomputation
after every block.

All checks are *disabled by default* and cost one dict lookup + one
``os.environ`` read per call site when off.  Enable them with the
``REPRO_CHECK_INVARIANTS=1`` environment variable (any of ``1``,
``true``, ``yes``, ``on``), the ``--check-invariants`` CLI flag, or
programmatically with :func:`set_invariants_enabled` /
:func:`checking` (tests use the latter two).  A failed check raises
:class:`InvariantViolation` — a subclass of ``AssertionError`` so test
frameworks report it as an assertion failure.

Checks register themselves in a name -> callable registry so call
sites go through :func:`maybe_check`, which is the single place the
enable gate lives::

    maybe_check("flow.conservation", problem, result)
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.netlist import DEFAULT_BOUND
from repro.obs.tracer import incr

__all__ = [
    "ENV_VAR",
    "InvariantViolation",
    "invariants_enabled",
    "set_invariants_enabled",
    "checking",
    "register",
    "registered_checks",
    "maybe_check",
    "run_check",
    "check_flow_conservation",
    "check_region_capacity",
    "check_movebound_containment",
    "check_hpwl_threaded",
]

#: Environment variable gating all invariant checks.
ENV_VAR = "REPRO_CHECK_INVARIANTS"

_TRUTHY = {"1", "true", "yes", "on"}

#: Programmatic override: None = defer to the environment.
_override: Optional[bool] = None


class InvariantViolation(AssertionError):
    """A pipeline invariant failed; carries the check name."""

    def __init__(self, check: str, message: str) -> None:
        super().__init__(f"[{check}] {message}")
        self.check = check


def invariants_enabled() -> bool:
    """True when invariant checks should run (override beats env)."""
    if _override is not None:
        return _override
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


def set_invariants_enabled(enabled: Optional[bool]) -> None:
    """Force checks on/off; ``None`` restores environment control."""
    global _override
    _override = enabled


@contextlib.contextmanager
def checking(enabled: bool = True):
    """Temporarily force the invariant gate (scoped, re-entrant)."""
    global _override
    previous = _override
    _override = enabled
    try:
        yield
    finally:
        _override = previous


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_registry: Dict[str, Callable] = {}


def register(name: str) -> Callable[[Callable], Callable]:
    """Decorator adding a check function under ``name``."""

    def wrap(fn: Callable) -> Callable:
        _registry[name] = fn
        return fn

    return wrap


def registered_checks() -> Tuple[str, ...]:
    return tuple(sorted(_registry))


def maybe_check(name: str, *args, **kwargs) -> None:
    """Run the named check iff invariants are enabled; no-op otherwise."""
    if not invariants_enabled():
        return
    run_check(name, *args, **kwargs)


def run_check(name: str, *args, **kwargs) -> None:
    """Run the named check unconditionally (tests, debugging)."""
    fn = _registry.get(name)
    if fn is None:
        raise KeyError(
            f"unknown invariant {name!r}; known: {registered_checks()}"
        )
    incr(f"invariants.{name}.runs")
    fn(*args, **kwargs)


def _fail(check: str, message: str) -> None:
    incr(f"invariants.{check}.violations")
    raise InvariantViolation(check, message)


# ----------------------------------------------------------------------
# the checks
# ----------------------------------------------------------------------
@register("flow.conservation")
def check_flow_conservation(problem, result, tol: float = 1e-6) -> None:
    """Every node balances, every arc flow is within its bounds.

    ``problem`` is a :class:`repro.flows.MinCostFlowProblem`, ``result``
    the :class:`~repro.flows.FlowResult` of its solve.  Skipped
    semantics: on an infeasible result there is no flow to conserve, so
    only arc-bound sanity is checked.
    """
    flows = np.asarray(result.flows, dtype=np.float64)
    bad = (flows < -tol) | (flows > problem.capacities + tol)
    if bad.any():
        i = int(np.argmax(bad))
        arc, f = problem.arcs[i], float(flows[i])
        if f < -tol:
            _fail(
                "flow.conservation",
                f"arc {arc.tail!r}->{arc.head!r} carries negative flow {f}",
            )
        _fail(
            "flow.conservation",
            f"arc {arc.tail!r}->{arc.head!r} flow {f} exceeds "
            f"capacity {arc.capacity}",
        )
    if not result.feasible:
        return
    scale = max(problem.total_supply(), 1.0)
    n = problem.num_nodes
    supply = problem.supply
    # out minus in, per node
    outflow = np.bincount(problem.tails, flows, n) - np.bincount(
        problem.heads, flows, n
    )
    slack = tol * scale
    bad = np.where(
        supply > 0,
        np.abs(outflow - supply) > slack,
        np.where(
            supply < 0,
            (-outflow < -slack) | (-outflow > -supply + slack),
            np.abs(outflow) > slack,
        ),
    )
    if not bad.any():
        return
    i = int(np.argmax(bad))
    node = problem.keys_of(np.array([i]))[0]
    b, out = float(supply[i]), float(outflow[i])
    if b > 0:
        _fail(
            "flow.conservation",
            f"supply node {node!r}: ships {out}, supply {b}",
        )
    if b < 0:
        _fail(
            "flow.conservation",
            f"demand node {node!r}: absorbs {-out}, capacity {-b}",
        )
    _fail(
        "flow.conservation",
        f"transit node {node!r}: imbalance {out}",
    )


@register("fbp.region_capacity")
def check_region_capacity(model, result, tol: float = 1e-6) -> None:
    """Condition (1) at window granularity: flow absorbed by each
    (window, region) node stays within its free capacity.

    ``model`` is a built :class:`repro.fbp.model.FBPModel`, ``result``
    a feasible solve of it.
    """
    if not result.feasible:
        return
    inflow = model.region_inflow(result)
    capacity = model.region_capacity
    for key, absorbed in inflow.items():
        cap = capacity.get(key, 0.0)
        if absorbed > cap + tol * max(cap, 1.0):
            _fail(
                "fbp.region_capacity",
                f"window {key[0]} region {key[1]}: inflow {absorbed:.6g} "
                f"exceeds capacity {cap:.6g} (condition (1))",
            )


@register("movebound.containment")
def check_movebound_containment(
    netlist,
    bounds,
    cells: Optional[Iterable[int]] = None,
    tol: float = 1e-9,
) -> None:
    """Every (given) movable cell center lies inside its movebound area.

    ``cells`` defaults to all movable cells with an explicit movebound;
    realization passes the set of cells it actually assigned, so cells
    it deliberately left in relaxed windows are not audited.
    """
    if cells is None:
        cells = netlist.movable_indices.tolist()
    codes, names = netlist.movebound_groups()
    codes = codes.tolist()
    for i in cells:
        name = names[codes[i]]
        if name == DEFAULT_BOUND:
            continue
        area = bounds.get(name).area
        x, y = float(netlist.x[i]), float(netlist.y[i])
        if area.contains_point(x, y):
            continue
        # tolerance: accept points within `tol` of the area boundary
        if tol > 0 and area.distance_to_point(x, y) <= tol:
            continue
        _fail(
            "movebound.containment",
            f"cell {netlist.cell_names[i]!r} at ({x:.4g}, {y:.4g}) lies outside "
            f"movebound {name!r}",
        )


@register("reflow.hpwl_threaded")
def check_hpwl_threaded(netlist, threaded: float) -> None:
    """The HPWL a reflow pass threads through its blocks (per-net spans
    patched for the nets on moved cells) equals the whole-netlist
    recomputation bit for bit — the pass gates on it."""
    fresh = netlist.hpwl()
    if fresh != threaded:
        _fail(
            "reflow.hpwl_threaded",
            f"threaded HPWL {threaded!r} != recomputed {fresh!r}",
        )
