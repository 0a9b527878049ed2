"""Tests for FBP realization (paper §IV.B)."""

import numpy as np
import pytest

from repro.fbp import build_fbp_model, realize_flow
from repro.fbp.model import ExternalArc
from repro.flows import FlowResult
from repro.fbp.realization import cancel_external_cycles
from repro.geometry import Rect
from repro.grid import Grid
from repro.movebounds import (
    DEFAULT_BOUND,
    MoveBoundSet,
    decompose_regions,
)
from repro.netlist import Netlist
from tests.conftest import build_random_netlist

DIE = Rect(0, 0, 100, 100)


def _arc(aid, bound, src, dst, direction="E"):
    return ExternalArc(aid, bound, src, dst, direction)


class TestCycleCancellation:
    def test_two_cycle_cancelled(self):
        flows = [(_arc(0, "m", 1, 2), 5.0), (_arc(1, "m", 2, 1, "W"), 3.0)]
        out = cancel_external_cycles(flows)
        total = {(a.src_window, a.dst_window): f for a, f in out}
        assert total == {(1, 2): 2.0}

    def test_three_cycle_cancelled(self):
        flows = [
            (_arc(0, "m", 1, 2), 4.0),
            (_arc(1, "m", 2, 3), 4.0),
            (_arc(2, "m", 3, 1), 2.0),
            (_arc(3, "m", 3, 4), 1.0),
        ]
        out = cancel_external_cycles(flows)
        arcs = {(a.src_window, a.dst_window): f for a, f in out}
        assert (3, 1) not in arcs
        assert arcs[(1, 2)] == pytest.approx(2.0)
        assert arcs[(3, 4)] == pytest.approx(1.0)

    def test_different_bounds_independent(self):
        flows = [(_arc(0, "a", 1, 2), 5.0), (_arc(1, "b", 2, 1, "W"), 3.0)]
        out = cancel_external_cycles(flows)
        assert len(out) == 2  # no cancellation across movebounds

    def test_acyclic_untouched(self):
        flows = [(_arc(0, "m", 1, 2), 5.0), (_arc(1, "m", 2, 3), 3.0)]
        out = cancel_external_cycles(flows)
        assert {f for _a, f in out} == {5.0, 3.0}


def _realize(num_cells=120, seed=0, density=0.85, bounds=None, nx=4):
    mbs = bounds or MoveBoundSet(DIE)
    names = mbs.names()

    def mb_of(i):
        return names[i % len(names)] if names and i < num_cells // 3 else None

    nl = build_random_netlist(num_cells, 80, seed, DIE,
                              movebound_of=mb_of if names else None)
    dec = decompose_regions(DIE, mbs, nl.blockages)
    grid = Grid(DIE, nx, nx)
    grid.build_regions(dec)
    model = build_fbp_model(nl, mbs, grid, density_target=density)
    result = model.solve()
    assert result.feasible
    out = realize_flow(model, result, run_local_qp=False)
    return nl, mbs, grid, model, result, out


class TestRealization:
    def test_all_cells_assigned(self):
        nl, _mbs, _grid, _model, _res, out = _realize()
        movable = {c.index for c in nl.cells if not c.fixed}
        assert set(out.assignment) == movable

    def test_window_condition_one_holds(self):
        """After realization every window satisfies condition (1):
        per-window load fits admissible capacity, up to rounding."""
        nl, mbs, grid, model, _res, out = _realize(seed=1)
        load = {}
        for cell, (widx, ridx) in out.assignment.items():
            key = (widx, ridx)
            load[key] = load.get(key, 0.0) + nl.cells[cell].size
        max_cell = max(c.size for c in nl.cells)
        for key, used in load.items():
            cap = model.region_capacity.get(key, 0.0)
            assert used <= cap * 1.1 + max_cell + 1e-6

    def test_assignment_respects_movebounds(self):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("m", [Rect(50, 50, 100, 100)])
        nl, mbs, grid, model, _res, out = _realize(seed=2, bounds=mbs)
        for cell, (widx, ridx) in out.assignment.items():
            bound = nl.cells[cell].movebound or DEFAULT_BOUND
            wr = next(
                wr for wr in grid.windows[widx].regions
                if wr.region.index == ridx
            )
            assert wr.admits(bound)

    def test_positions_inside_assigned_region(self):
        nl, _mbs, grid, _model, _res, out = _realize(seed=3)
        for cell, (widx, ridx) in out.assignment.items():
            wr = next(
                wr for wr in grid.windows[widx].regions
                if wr.region.index == ridx
            )
            x, y = nl.x[cell], nl.y[cell]
            assert wr.area.contains_point(x, y) or wr.free_area.contains_point(x, y)

    def test_no_movebound_violations_after_realization(self):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("m", [Rect(60, 60, 100, 100)])
        nl, mbs, _g, _m, _r, _out = _realize(seed=4, bounds=mbs)
        assert mbs.violations(nl) == []

    def test_rounding_error_bounded(self):
        nl, _mbs, _grid, _model, _res, out = _realize(seed=5)
        max_cell = max(c.size for c in nl.cells)
        if out.arcs_realized:
            assert out.rounding_error <= out.arcs_realized * max_cell

    def test_local_qp_runs(self):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("m", [Rect(60, 60, 100, 100)])
        names = ["m"]
        nl = build_random_netlist(
            100, 70, 6, DIE, movebound_of=lambda i: "m" if i < 30 else None
        )
        dec = decompose_regions(DIE, mbs, nl.blockages)
        grid = Grid(DIE, 4, 4)
        grid.build_regions(dec)
        model = build_fbp_model(nl, mbs, grid, density_target=0.85)
        result = model.solve()
        out = realize_flow(model, result, run_local_qp=True)
        if out.arcs_realized:
            assert out.local_qp_calls > 0

    def test_deterministic(self):
        a = _realize(seed=7)
        b = _realize(seed=7)
        assert a[5].assignment == b[5].assignment
        assert np.array_equal(a[0].x, b[0].x)


class TestFanInRounding:
    """A hand-built flow, no solver: on a 3x3 grid of 10x10 windows
    (capacity 100 each) the centre holds 31 cells of area 3 and each
    side neighbour ships it 1.75, filling it to exactly 100.  Every
    arc rounds the same way — one whole cell, 1.25 over its flow — so
    the centre ends 4 x 1.25 = 5 over against a largest cell of 3."""

    def _fan_in(self):
        die = Rect(0, 0, 30, 30)
        nl = Netlist(die, row_height=1.0, site_width=0.5, name="fanin")
        for wx in range(3):
            for wy in range(3):
                count = 31 if (wx, wy) == (1, 1) else 30 * (1 in (wx, wy))
                for k in range(count):
                    nl.add_cell(
                        f"c{nl.num_cells}", 3.0, 1.0,
                        x=wx * 10 + 1.5 + (k % 4) * 2.4,
                        y=wy * 10 + 0.5 + k // 4,
                    )
        bounds = MoveBoundSet(die)
        grid = Grid(die, 3, 3)
        grid.build_regions(decompose_regions(die, bounds, nl.blockages))
        model = build_fbp_model(nl, bounds, grid, density_target=1.0)
        centre = next(
            w.index for w in grid if w.rect.x_lo == 10 and w.rect.y_lo == 10
        )
        flows = np.zeros(len(model.problem.arcs))
        feeds = [a for a in model.external_arcs if a.dst_window == centre]
        assert len(feeds) == 4
        for arc in feeds:
            flows[arc.arc_id] = 1.75
        result = FlowResult(True, 0.0, flows, list(model.problem.arcs), 0.0)
        content = model.prescribed_content(result)
        assert content[(DEFAULT_BOUND, centre)] == pytest.approx(100.0)
        return realize_flow(model, result, run_local_qp=False)

    def test_every_arc_rounds_up(self):
        out = self._fan_in()
        assert out.shipped_cells == 4
        assert out.rounding_error == pytest.approx(4 * 1.25)

    @pytest.mark.xfail(strict=True, reason=(
        "each arc ships within half a cell of its flow, and those "
        "errors add up in a window fed by several arcs: here 4 arcs "
        "leave the centre 5.0 over, the largest cell is 3.0 "
        "(ROADMAP item 11(b))"
    ))
    def test_overflow_within_the_largest_cell(self):
        assert self._fan_in().max_overflow <= 3.0 + 1e-6
