"""Decision identity of global placement's array passes.

Three scalar loops around the solvers were rebuilt on arrays: the
overflow repair after a rounded transportation, the per-arc shipping
of the FBP realization, and the HPWL gate of the reflow.  Their
contract is that every decision — which cell moves where, in which
order, and whether a block is kept — is unchanged.  The scalar loops
live on here, copied verbatim from the last commit that ran them
(``4f901cd``), as the oracles the array code is held to.  The only
edits: the tallies marked ``# tally``, and the shipping loop's body
wrapped into a function with ``_ship_arc``'s signature (its
``continue`` became ``return``).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import pytest

from repro.bookshelf import load_instance, save_instance
from repro.fbp import build_fbp_model
from repro.fbp import realization
from repro.fbp.model import ExternalArc
from repro.fbp.realization import RealizationResult
from repro.geometry import Rect
from repro.grid import Grid
from repro.movebounds import DEFAULT_BOUND, MoveBoundSet, decompose_regions
from repro.netlist import Netlist, Pin
from repro.obs import Tracer, checking, registered_checks, set_tracer
from repro.partitioning import repartition_pass
from repro.partitioning import transport
from repro.workloads import (
    MoveBoundSpec,
    NetlistSpec,
    attach_movebounds,
    generate_netlist,
)
from tests.conftest import build_random_netlist

# the masked subtraction of the repair must never evaluate inf - inf
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

INF = np.inf
DIE = Rect(0, 0, 100, 100)


@pytest.fixture
def tracer():
    t = Tracer()
    previous = set_tracer(t)
    yield t
    set_tracer(previous)


# ----------------------------------------------------------------------
# oracle 1: overflow repair (partitioning/transport.py at 4f901cd)
# ----------------------------------------------------------------------
def _oracle_repair_overflow(
    assignment: np.ndarray,
    supplies: np.ndarray,
    caps: np.ndarray,
    costs: np.ndarray,
    tally: Dict[str, int],
) -> float:
    """Relocate whole cells out of overfull targets into admissible
    targets with slack, cheapest extra cost first.  Returns the
    remaining maximum overflow (0 when fully repaired)."""
    k = len(caps)
    load = np.zeros(k)
    for a, j in enumerate(assignment):
        load[j] += supplies[a]
    members: Dict[int, List[int]] = {}
    for a, j in enumerate(assignment):
        members.setdefault(int(j), []).append(a)
    for j in range(k):
        guard = 0
        while load[j] > caps[j] + 1e-9 and guard < 10000:
            guard += 1
            best: Optional[Tuple[float, int, int]] = None
            for a in members.get(j, ()):  # candidates to evict
                for t in range(k):
                    if t == j or not np.isfinite(costs[a, t]):
                        continue
                    if load[t] + supplies[a] > caps[t] + 1e-9:
                        continue
                    extra = costs[a, t] - costs[a, j]
                    if best is None or extra < best[0]:
                        best = (extra, a, t)
            if best is None:
                # cascade: make room in some admissible target t by
                # first moving one of t's members elsewhere (default
                # cells crowding a movebound region are the usual case)
                cascade = _oracle_find_cascade(
                    j, members, assignment, supplies, caps, costs, load
                )
                if cascade is None:
                    break  # genuinely stuck; leave the overflow
                (m, t_of_m, u), (a, t) = cascade
                assignment[m] = u
                members[t_of_m].remove(m)
                members.setdefault(u, []).append(m)
                load[t_of_m] -= supplies[m]
                load[u] += supplies[m]
                best = (0.0, a, t)
                tally["moves"] += 1  # tally
                tally["cascades"] += 1  # tally
            _extra, a, t = best
            assignment[a] = t
            members[j].remove(a)
            members.setdefault(t, []).append(a)
            load[j] -= supplies[a]
            load[t] += supplies[a]
            tally["moves"] += 1  # tally
    return float(np.max(np.maximum(load - caps, 0.0), initial=0.0))


def _oracle_find_cascade(
    j: int,
    members: Dict[int, List[int]],
    assignment: np.ndarray,
    supplies: np.ndarray,
    caps: np.ndarray,
    costs: np.ndarray,
    load: np.ndarray,
):
    """Find a two-step repair: member m of target t moves to u (which
    has slack), freeing room in t for a cell a of the overfull j.
    Returns ``((m, t, u), (a, t))`` or None."""
    k = len(caps)
    for a in sorted(members.get(j, ()), key=lambda a: supplies[a]):
        for t in range(k):
            if t == j or not np.isfinite(costs[a, t]):
                continue
            deficit = load[t] + supplies[a] - caps[t]
            if deficit <= 1e-9:
                continue  # direct move possible; handled by caller
            for m in sorted(members.get(t, ()), key=lambda m: supplies[m]):
                if supplies[m] + 1e-9 < deficit:
                    continue
                for u in range(k):
                    if u in (t, j) or not np.isfinite(costs[m, u]):
                        continue
                    if load[u] + supplies[m] <= caps[u] + 1e-9:
                        return ((m, t, u), (a, t))
    return None


REPAIR_KINDS = ("loose", "tight", "crowded", "deficient", "ties", "squatters")


def make_repair_instance(rng: np.random.Generator, kind: str):
    """A rounded-transportation outcome as the call sites see it: an
    assignment onto admissible targets that overflows some of them."""
    n = int(rng.integers(1, 61))
    k = int(rng.integers(1, 13))
    if kind == "ties" or rng.random() < 0.3:
        supplies = rng.choice([1.0, 2.0, 3.0], size=n)  # equal supplies
    else:
        supplies = rng.choice([1.0, 1.5, 2.0, 3.0], size=n) + rng.random(n)
    supplies[rng.random(n) < 0.05] = 0.0
    costs = np.abs(
        rng.integers(0, 40, (n, 1)) - rng.integers(0, 40, (1, k))
    ).astype(float)
    if kind != "ties":  # "ties": integer costs, so equal extras abound
        costs += rng.random((n, k))
    # a few admissibility patterns; each keeps one target, some only one
    patterns = rng.random((int(rng.integers(1, 5)), k)) < rng.choice(
        [0.3, 0.6, 0.9]
    )
    patterns[0] = False
    patterns[np.arange(len(patterns)), rng.integers(0, k, len(patterns))] = True
    if k > 2 and rng.random() < 0.3:
        patterns[:, int(rng.integers(0, k))] = False  # an inf column
        patterns[~patterns.any(axis=1), 0] = True
    admissible = patterns[rng.integers(0, len(patterns), n)]
    costs[~admissible] = INF
    # the rounded assignment: mostly the cheapest admissible target
    cheapest = np.argmin(costs, axis=1)
    anywhere = np.array(
        [rng.choice(np.nonzero(row)[0]) for row in admissible]
    )
    assignment = np.where(rng.random(n) < 0.7, cheapest, anywhere).astype(
        np.int64
    )
    # a zero-size cell may sit on a target it is not admissible to
    # (round_almost_integral puts all-inf rows on sink 0)
    for a in np.nonzero(supplies == 0.0)[0]:
        if rng.random() < 0.5:
            assignment[a] = int(rng.integers(0, k))
    if kind == "squatters" and k >= 3:
        return _squatters(rng, supplies, costs)
    # capacities that some whole-cell assignment ("home") fits, scaled:
    # the repair has to find its way there from the rounded one
    home = np.bincount(anywhere, weights=supplies, minlength=k)
    slack = {
        "loose": 1.2,       # direct moves find room
        "tight": 1.05,      # room exists, but often not one move away
        "crowded": 1.0,     # home fits exactly: cascades, some stuck
        "deficient": 0.8,   # cannot be repaired: stuck
        "ties": 1.0,
        "squatters": 1.0,
    }[kind]
    return assignment, supplies, home * slack, costs


def _squatters(rng, supplies, costs):
    """The case the cascade exists for: bound cells may only use the
    first few targets, which free cells (admissible everywhere, with
    room elsewhere) have filled up."""
    n, k = costs.shape
    costs = np.where(np.isfinite(costs), costs, 50.0)
    reserved = int(rng.integers(2, min(k, 4) + 1))
    bound = rng.random(n) < 0.4
    costs[np.ix_(bound, np.arange(k) >= reserved)] = INF
    costs[np.ix_(~bound, np.arange(k) < reserved)] -= 45.0  # squat here
    assignment = np.argmin(costs, axis=1).astype(np.int64)
    assignment[bound & (rng.random(n) < 0.7)] = 0
    caps = np.full(k, float(supplies.sum()))
    caps[:reserved] = (
        supplies[bound].sum() * rng.uniform(1.0, 1.3) / reserved
        + supplies.max(initial=0.0)
    )
    return assignment, supplies, caps, costs


@pytest.mark.parametrize("kind", REPAIR_KINDS)
def test_repair_overflow_takes_the_scalar_decisions(kind, tracer):
    rng = np.random.default_rng([23, REPAIR_KINDS.index(kind)])
    seen = {"moves": 0, "cascades": 0, "stuck": 0}
    for _ in range(100):
        assignment, supplies, caps, costs = make_repair_instance(rng, kind)
        expected = assignment.copy()
        tally = {"moves": 0, "cascades": 0}
        want = _oracle_repair_overflow(expected, supplies, caps, costs, tally)
        before = dict(tracer.counters)
        got = transport._repair_overflow(assignment, supplies, caps, costs)
        assert np.array_equal(assignment, expected)
        assert got == want
        counted = {
            name: tracer.counter(f"partition.repair.{name}")
            - before.get(f"partition.repair.{name}", 0.0)
            for name in ("calls", "moves", "cascades", "stuck")
        }
        assert counted == {
            "calls": 1,
            "moves": tally["moves"],
            "cascades": tally["cascades"],
            "stuck": int(want > 0),
        }
        for name in seen:
            seen[name] += counted[name]
    # every kind repairs something; the hard regimes really occur
    assert seen["moves"] > 0
    if kind in ("tight", "crowded"):
        assert seen["cascades"] > 0
    if kind == "squatters":
        assert seen["cascades"] > 40
    if kind == "deficient":
        assert seen["stuck"] > 50


def test_repair_ties_go_to_the_first_member_and_lowest_target(tracer):
    """All four (cell, target) pairs cost the same: a strict ``<`` scan
    keeps the first, and so must the row-major ``argmin``."""
    supplies = np.ones(2)
    caps = np.array([1.0, 5.0, 5.0])
    costs = np.zeros((2, 3))
    assignment = np.array([0, 0])
    expected = assignment.copy()
    _oracle_repair_overflow(
        expected, supplies, caps, costs, {"moves": 0, "cascades": 0}
    )
    transport._repair_overflow(assignment, supplies, caps, costs)
    assert assignment.tolist() == expected.tolist() == [1, 0]


def test_repair_cascade_and_stuck_by_hand(tracer):
    # cell 0 (bound to targets 0/1) overflows target 0; target 1 is
    # full of cell 2, which may go to the free target 2: a cascade
    supplies = np.array([2.0, 2.0, 2.0])
    caps = np.array([2.0, 2.0, 2.0])
    costs = np.array([[0.0, 1.0, INF], [0.0, INF, INF], [INF, 0.0, 5.0]])
    assignment = np.array([0, 0, 1])
    assert transport._repair_overflow(assignment, supplies, caps, costs) == 0.0
    assert assignment.tolist() == [1, 0, 2]
    assert tracer.counter("partition.repair.cascades") == 1
    assert tracer.counter("partition.repair.moves") == 2
    # nowhere to go: the overflow stays and is reported
    assignment = np.array([0, 0])
    left = transport._repair_overflow(
        assignment, np.array([2.0, 2.0]), np.array([2.0, 1.0]),
        np.array([[0.0, 1.0], [0.0, INF]]),
    )
    assert left == 2.0 and assignment.tolist() == [0, 0]
    assert tracer.counter("partition.repair.stuck") == 1


# ----------------------------------------------------------------------
# oracle 2: shipping loop (fbp/realization.py at 4f901cd)
# ----------------------------------------------------------------------
def _oracle_crossing_point(grid, arc):
    return grid.windows[arc.src_window].boundary_center(arc.direction)


def _oracle_entry_position(grid, arc, cell_y, cell_x):
    """Landing position just inside the destination window, preserving
    the coordinate parallel to the crossed boundary."""
    dst = grid.windows[arc.dst_window].rect
    pad_x = min(dst.width * 0.05, 1.0)
    pad_y = min(dst.height * 0.05, 1.0)
    if arc.direction == "E":
        return (dst.x_lo + pad_x, min(max(cell_y, dst.y_lo), dst.y_hi))
    if arc.direction == "W":
        return (dst.x_hi - pad_x, min(max(cell_y, dst.y_lo), dst.y_hi))
    if arc.direction == "N":
        return (min(max(cell_x, dst.x_lo), dst.x_hi), dst.y_lo + pad_y)
    return (min(max(cell_x, dst.x_lo), dst.x_hi), dst.y_hi - pad_y)


def _oracle_ship_arc(netlist, grid, arc, f, members, cell_window, sizes, out):
    """The body of the former ``for arc in round_arcs`` loop."""

    def _mutable(key: Tuple[str, int]) -> Set[int]:
        cur = members.get(key)
        if not isinstance(cur, set):
            cur = set(cur) if cur is not None else set()
            members[key] = cur
        return cur

    cell_size = sizes.tolist()
    key_src = (arc.bound, arc.src_window)
    candidates = sorted(members.get(key_src, ()))
    if not candidates:
        out.rounding_error += f
        return
    # ship cells closest to the crossing point until f covered
    # (vectorized distance keys + stable argsort: same floats,
    # same tie-break as the scalar key sort over ascending ids)
    cx, cy = _oracle_crossing_point(grid, arc)
    cand = np.asarray(candidates, dtype=np.int64)
    dist = np.abs(netlist.x[cand] - cx) + np.abs(netlist.y[cand] - cy)
    candidates = cand[np.argsort(dist, kind="stable")].tolist()
    shipped = 0.0
    for i in candidates:
        size = cell_size[i]
        if shipped >= f:
            break
        if shipped + size - f > f - shipped:
            # overshooting hurts more than stopping short
            break
        _mutable(key_src).discard(i)
        key_dst = (arc.bound, arc.dst_window)
        _mutable(key_dst).add(i)
        cell_window[i] = arc.dst_window
        nx_, ny_ = _oracle_entry_position(
            grid, arc, netlist.y[i], netlist.x[i]
        )
        netlist.x[i] = nx_
        netlist.y[i] = ny_
        shipped += size
        out.shipped_cells += 1  # tally
    out.moved_area += shipped
    out.rounding_error += abs(shipped - f)
    out.arcs_realized += 1


def _members_history(members) -> list:
    """Keys in dict order, each with its container type and the order
    it iterates in — what the rest of the realization consumes."""
    return [(key, type(v).__name__, list(v)) for key, v in members.items()]


def _accounting(out: RealizationResult) -> tuple:
    return (
        out.arcs_realized, out.shipped_cells, out.moved_area,
        out.rounding_error,
    )


def _window_cluster(n: int, seed: int, window: Rect, coincident: bool):
    """``n`` cells of widths 1/2/3 scattered in one window of a 3x3
    grid; with ``coincident`` they share a few positions, so distances
    to any crossing point tie."""
    rng = np.random.default_rng(seed)
    nl = Netlist(DIE, row_height=1.0, site_width=0.5, name="ship")
    if coincident:
        spots = rng.uniform(0.2, 0.8, (4, 2))
        at = spots[rng.integers(0, 4, n)]
    else:
        at = rng.uniform(0.05, 0.95, (n, 2))
    nl.add_cells(
        [f"c{i}" for i in range(n)],
        rng.choice([1.0, 2.0, 3.0], size=n),
        1.0,
        x=window.x_lo + at[:, 0] * window.width,
        y=window.y_lo + at[:, 1] * window.height,
    )
    return nl


SHIP_FLOWS = {
    # cell sizes are 1, 2 or 3, so an integer f is often met exactly
    "exact_or_short": 6.0,
    # half a cell past an attainable sum: the "overshoot hurts more" stop
    "overshoot": 7.5,
    "nothing_fits": 0.4,
    "more_than_there_is": 1e6,
}


@pytest.mark.parametrize("direction", ["E", "W", "N", "S"])
@pytest.mark.parametrize("coincident", [False, True])
@pytest.mark.parametrize("flow", sorted(SHIP_FLOWS))
def test_ship_arc_matches_scalar_loop(direction, coincident, flow):
    grid = Grid(DIE, 3, 3)
    centre = grid.window(1, 1)
    dx, dy = {"E": (1, 0), "W": (-1, 0), "N": (0, 1), "S": (0, -1)}[direction]
    arc = ExternalArc(
        0, DEFAULT_BOUND, centre.index, grid.window(1 + dx, 1 + dy).index,
        direction,
    )
    stops = set()
    for seed in range(6):
        runs = []
        for ship in (_oracle_ship_arc, realization._ship_arc):
            nl = _window_cluster(25, seed, centre.rect, coincident)
            # the group starts as the model's list and has been a set
            # with a history by the time a later arc reaches it
            start = list(range(nl.num_cells))
            members = {(DEFAULT_BOUND, centre.index): start}
            if seed % 2:
                members[(DEFAULT_BOUND, centre.index)] = set(start[::-1])
                members[(DEFAULT_BOUND, arc.dst_window)] = [900, 901]
            cell_window = np.full(nl.num_cells, centre.index, dtype=np.int64)
            out = RealizationResult()
            ship(
                nl, grid, arc, SHIP_FLOWS[flow], members, cell_window,
                nl.cell_sizes(), out,
            )
            runs.append(
                (
                    nl.x.tobytes(), nl.y.tobytes(), cell_window.tolist(),
                    _members_history(members), _accounting(out),
                )
            )
        assert runs[0] == runs[1]
        moved_area, f = runs[1][4][2], SHIP_FLOWS[flow]
        stops.add("exact" if moved_area == f else
                  "short" if moved_area < f else "over")
    if flow == "exact_or_short":
        assert "exact" in stops
    if flow == "nothing_fits":
        assert stops == {"short"}


def test_ship_arc_without_candidates_books_the_flow_as_error():
    grid = Grid(DIE, 3, 3)
    arc = ExternalArc(0, DEFAULT_BOUND, 4, 5, "E")
    nl = _window_cluster(3, 0, grid.window(1, 1).rect, False)
    out = RealizationResult()
    members: dict = {}
    realization._ship_arc(
        nl, grid, arc, 2.5, members, np.full(3, 4), nl.cell_sizes(), out
    )
    assert _accounting(out) == (0, 0, 0.0, 2.5) and members == {}


CROWDED = Rect(0, 0, 24, 24)


def _clustered_model(seed: int, bounds: Optional[MoveBoundSet] = None):
    """All cells piled up around the centre of a die they fill to 40 %,
    under a 4x4 grid: the flow has to carry them outwards over every
    kind of boundary."""
    mbs = bounds or MoveBoundSet(CROWDED)
    names = mbs.names()
    nl = build_random_netlist(
        160, 110, seed, CROWDED,
        movebound_of=(lambda i: names[i % len(names)] if i < 50 else None)
        if names else None,
    )
    rng = np.random.default_rng(seed)
    # on a half-unit lattice, so crossing-point distances tie
    nl.x[:] = 12.0 + np.round(rng.normal(0.0, 2.0, nl.num_cells) * 2) / 2
    nl.y[:] = 12.0 + np.round(rng.normal(0.0, 2.0, nl.num_cells) * 2) / 2
    nl.clamp_into_die()
    grid = Grid(CROWDED, 4, 4)
    grid.build_regions(decompose_regions(CROWDED, mbs, nl.blockages))
    model = build_fbp_model(nl, mbs, grid, density_target=0.85)
    result = model.solve()
    assert result.feasible
    return nl, model, result


@pytest.mark.parametrize("with_bounds", [False, True])
@pytest.mark.parametrize("run_local_qp", [False, True])
def test_realization_matches_scalar_shipping(
    with_bounds, run_local_qp, monkeypatch
):
    directions = set()
    for seed in range(3):
        runs = []
        for ship in (_oracle_ship_arc, realization._ship_arc):
            bounds = None
            if with_bounds:
                bounds = MoveBoundSet(CROWDED)
                bounds.add_rects("west", [Rect(0, 0, 15, 24)])
                bounds.add_rects("north", [Rect(5, 9, 24, 24)])
                bounds.normalize()
            nl, model, result = _clustered_model(seed, bounds)
            seen = {}

            def spy(netlist, grid, arc, f, members, cell_window, sizes, out,
                    ship=ship, seen=seen):
                seen["members"], seen["cell_window"] = members, cell_window
                directions.add(arc.direction)
                ship(netlist, grid, arc, f, members, cell_window, sizes, out)

            monkeypatch.setattr(realization, "_ship_arc", spy)
            out = realization._realize_flow_impl(
                model, result, None, run_local_qp, 500
            )
            assert out.shipped_cells > 0
            runs.append(
                (
                    nl.x.tobytes(), nl.y.tobytes(),
                    seen["cell_window"].tolist(),
                    _members_history(seen["members"]), _accounting(out),
                    sorted(out.assignment.items()),
                )
            )
        assert runs[0] == runs[1]
    assert directions == {"E", "W", "N", "S"}


# ----------------------------------------------------------------------
# the reflow's HPWL: same expression over the same floats
# ----------------------------------------------------------------------
def _netlist_with_odd_nets(seed: int) -> Netlist:
    nl = build_random_netlist(140, 100, seed, DIE)
    nl.add_net("lonely", [Pin(3)])  # degree 1: has no span row
    nl.add_net("pads", [Pin.terminal(0, 0), Pin.terminal(100, 40)])
    nl.add_net("offset", [Pin(5, 0.5, -0.25), Pin(6), Pin.terminal(50, 50)],
               weight=2.5)
    nl.add_net("empty", [])
    return nl


@pytest.mark.parametrize("seed", range(4))
def test_span_vector_dots_to_hpwl_bitwise(seed):
    nl = _netlist_with_odd_nets(seed)
    rng = np.random.default_rng(seed)
    weights, row_of_net = nl.span_layout()
    assert len(weights) == int((row_of_net >= 0).sum()) == len(nl.net_spans())
    assert float(np.dot(weights, nl.net_spans())) == nl.hpwl()
    spans = nl.net_spans()
    for _ in range(25):
        moved = rng.choice(nl.num_cells, size=int(rng.integers(0, 12)),
                           replace=False)
        nl.x[moved] += rng.normal(0.0, 5.0, len(moved))
        nl.y[moved] += rng.normal(0.0, 5.0, len(moved))
        rows = row_of_net[nl.nets_of_cells(moved)]
        rows = rows[rows >= 0]
        spans[rows] = nl.net_spans(rows)
        assert np.array_equal(spans, nl.net_spans())
        assert float(np.dot(weights, spans)) == nl.hpwl()


def test_span_vector_of_a_netlist_without_nets():
    nl = Netlist(DIE)
    nl.add_cell("a", 1, 1)
    assert len(nl.net_spans()) == 0 and nl.hpwl() == 0.0
    assert len(nl.net_spans(np.zeros(0, dtype=np.int64))) == 0


def _reflow_instance(seed: int, movebounds: bool):
    nl, logical = generate_netlist(
        NetlistSpec(name=f"reflow{seed}", num_cells=500, utilization=0.5),
        seed=seed,
    )
    mbs = MoveBoundSet(nl.die)
    if movebounds:
        mbs = attach_movebounds(
            nl, logical,
            [MoveBoundSpec(name=f"mb{i}", cell_fraction=0.2, density=0.7,
                           from_flattening=False) for i in range(2)],
            seed=seed + 77,
        )
    # a start the reflow improves in some blocks and not in others: the
    # reference placement jittered, or (movebounds) pulled half-way to
    # a uniformly random one
    rng = np.random.default_rng(seed + 100)
    if movebounds:
        nl.x[:] = 0.5 * (nl.x + rng.uniform(0, nl.die.x_hi, nl.num_cells))
        nl.y[:] = 0.5 * (nl.y + rng.uniform(0, nl.die.y_hi, nl.num_cells))
    else:
        nl.x += rng.normal(0.0, 1.0, nl.num_cells)
        nl.y += rng.normal(0.0, 1.0, nl.num_cells)
    nl.clamp_into_die()
    grid = Grid(nl.die, 8, 8)
    grid.build_regions(decompose_regions(nl.die, mbs, nl.blockages))
    return nl, mbs, grid


@pytest.mark.parametrize(
    "seed,movebounds", [(0, False), (1, False), (3, True)]
)
def test_reflow_reports_the_hpwl_of_its_result(seed, movebounds, tracer):
    nl, mbs, grid = _reflow_instance(seed, movebounds)
    before = nl.hpwl()
    with checking(True):  # arms reflow.hpwl_threaded on every block
        report = repartition_pass(nl, mbs, grid)
    assert report.hpwl_before == before
    assert report.hpwl_after == nl.hpwl()
    assert 0 < report.blocks_improved < report.blocks_processed
    assert report.hpwl_after < report.hpwl_before
    assert tracer.counter("invariants.reflow.hpwl_threaded.runs") > 0
    assert tracer.counter("invariants.reflow.hpwl_threaded.violations") == 0
    assert tracer.counter("repartition.blocks_processed") == (
        report.blocks_processed
    )
    assert tracer.counter("repartition.blocks_improved") == (
        report.blocks_improved
    )


def test_hpwl_threaded_check_is_registered_and_bites():
    from repro.obs import InvariantViolation, run_check

    assert "reflow.hpwl_threaded" in registered_checks()
    nl = _netlist_with_odd_nets(0)
    run_check("reflow.hpwl_threaded", nl, nl.hpwl())
    with pytest.raises(InvariantViolation, match="reflow.hpwl_threaded"):
        run_check("reflow.hpwl_threaded", nl, np.nextafter(nl.hpwl(), 0.0))


# ----------------------------------------------------------------------
# load_instance: linear in the number of cells
# ----------------------------------------------------------------------
def _write_cells(directory: str, name: str, n: int) -> None:
    nl = Netlist(Rect(0.0, 0.0, 1000.0, 1000.0), name=name)
    rng = np.random.default_rng(n)
    nl.add_cells(
        [f"c{i}" for i in range(n)],
        rng.choice([1.0, 1.5, 2.0], size=n),
        1.0,
        x=rng.uniform(1, 999, n),
        y=rng.uniform(1, 999, n),
        fixed=rng.random(n) < 0.05,
        movebound=[("mb" if i % 7 == 0 else None) for i in range(n)],
    )
    nl.add_nets_bulk(
        [f"n{i}" for i in range(n // 2)],
        rng.integers(0, n, (n // 2, 3)),
    )
    mbs = MoveBoundSet(nl.die)
    mbs.add_rects("mb", [Rect(0.0, 0.0, 500.0, 500.0)])
    save_instance(directory, nl, mbs)


def test_load_instance_is_linear_and_round_trips(tmp_path, monkeypatch):
    """The loader is linear because every cell arrives through one bulk
    ``Netlist.add_cells`` call (one array append), none through the
    scalar ``add_cell`` (an array copy per cell): checked on the calls
    themselves, not on a wall-clock ratio that machine load can break."""
    d = str(tmp_path)
    _write_cells(d, "large", 20_000)
    calls = {"add_cell": 0, "add_cells": []}
    bulk, scalar = Netlist.add_cells, Netlist.add_cell

    def add_cells(self, names, *args, **kwargs):
        calls["add_cells"].append(len(names))
        return bulk(self, names, *args, **kwargs)

    def add_cell(self, *args, **kwargs):
        calls["add_cell"] += 1
        return scalar(self, *args, **kwargs)

    monkeypatch.setattr(Netlist, "add_cells", add_cells)
    monkeypatch.setattr(Netlist, "add_cell", add_cell)
    nl, mbs = load_instance(d, "large")
    assert calls == {"add_cell": 0, "add_cells": [20_000]}
    monkeypatch.undo()
    assert [c.index for c in nl.cells] == list(range(20_000))
    again = os.path.join(d, "again")
    save_instance(again, nl, mbs)
    for ext in ("aux", "nodes", "nets", "pl", "scl", "mb"):
        with open(os.path.join(d, f"large.{ext}"), "rb") as a, open(
            os.path.join(again, f"large.{ext}"), "rb"
        ) as b:
            assert a.read() == b.read(), ext


def test_bulk_add_reports_the_first_offender_like_add_cell():
    nl = Netlist(DIE)
    nl.add_cell("a", 1, 1)
    with pytest.raises(ValueError, match="^duplicate cell name 'a'$"):
        nl.add_cells(["b", "a", "c"], 1.0, [1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="^duplicate cell name 'b'$"):
        nl.add_cells(["b", "b"], 1.0, 1.0)
    with pytest.raises(
        ValueError, match="^cell 'b' must have positive dimensions$"
    ):
        nl.add_cells(["b", "a"], [0.0, 1.0], 1.0)
    # a rejected batch leaves nothing behind
    assert nl.num_cells == 1 and len(nl.x) == 1
    nl.add_cells(["b", "c"], 1.0, 1.0, fixed=[True, False],
                 movebound=[None, "m"])
    assert [(c.fixed, c.movebound) for c in nl.cells] == [
        (False, None), (True, None), (False, "m"),
    ]
    assert nl.cell_index("c") == 2
