"""Edge cases and failure injection across the stack."""

import numpy as np
import pytest

from repro.fbp import build_fbp_model, fbp_partition, realize_flow
from repro.feasibility import check_feasibility
from repro.geometry import Rect, RectSet
from repro.grid import Grid
from repro.legalize import check_legality, legalize_with_movebounds
from repro.movebounds import (
    EXCLUSIVE,
    MoveBound,
    MoveBoundSet,
    decompose_regions,
)
from repro.netlist import Netlist, Pin
from repro.place import BonnPlaceFBP, PlacementError
from repro.qp import solve_qp

DIE = Rect(0, 0, 50, 50)


class TestDegenerateNetlists:
    def test_empty_netlist_places(self):
        nl = Netlist(DIE)
        res = BonnPlaceFBP().place(nl, MoveBoundSet(DIE))
        assert res.hpwl == 0.0
        assert res.legality.is_legal

    def test_single_cell(self):
        nl = Netlist(DIE)
        nl.add_cell("only", 2, 1, x=25, y=25)
        res = BonnPlaceFBP().place(nl, MoveBoundSet(DIE))
        assert res.legality.is_legal

    def test_all_fixed(self):
        nl = Netlist(DIE)
        for i in range(5):
            nl.add_cell(f"f{i}", 2, 1, x=5 + 4 * i, y=10.5, fixed=True)
        nl.add_net("n", [Pin(0), Pin(4)])
        before = nl.hpwl()
        res = BonnPlaceFBP().place(nl, MoveBoundSet(DIE))
        assert res.hpwl == pytest.approx(before)

    def test_no_nets(self):
        nl = Netlist(DIE)
        for i in range(20):
            nl.add_cell(f"c{i}", 2, 1, x=25, y=25)
        res = BonnPlaceFBP().place(nl, MoveBoundSet(DIE))
        assert res.legality.is_legal

    def test_isolated_cells_qp(self):
        """Cells with no nets must not blow up the QP (regularization
        keeps the system SPD)."""
        nl = Netlist(DIE)
        nl.add_cell("a", 1, 1, x=10, y=10)
        nl.add_cell("b", 1, 1, x=40, y=40)
        x, y = solve_qp(nl)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))

    def test_self_loop_net(self):
        """A net whose pins all sit on one cell is harmless."""
        nl = Netlist(DIE)
        nl.add_cell("a", 1, 1, x=10, y=10)
        nl.add_net("loop", [Pin(0, -0.2, 0), Pin(0, 0.2, 0)])
        solve_qp(nl)
        assert nl.hpwl() == pytest.approx(0.4)


class TestInfeasibilityInjection:
    def test_overfull_die(self):
        nl = Netlist(Rect(0, 0, 10, 10))
        for i in range(120):
            nl.add_cell(f"c{i}", 2, 1, x=5, y=5)
        with pytest.raises(PlacementError):
            BonnPlaceFBP().place(nl, MoveBoundSet(nl.die))

    def test_movebound_overflow_witnessed(self):
        nl = Netlist(DIE)
        bounds = MoveBoundSet(DIE)
        bounds.add_rects("m", [Rect(0, 0, 4, 4)])
        for i in range(30):
            nl.add_cell(f"c{i}", 2, 1, x=25, y=25, movebound="m")
        report = check_feasibility(nl, bounds)
        assert not report.feasible
        assert report.witness == frozenset({"m"})

    def test_blockage_eats_capacity(self):
        nl = Netlist(DIE)
        nl.add_blockage(Rect(0, 0, 50, 48))  # almost everything blocked
        for i in range(60):
            nl.add_cell(f"c{i}", 2, 1, x=25, y=49)
        report = check_feasibility(nl, MoveBoundSet(DIE))
        assert not report.feasible

    def test_fbp_model_infeasibility_no_mutation(self):
        """fbp_partition on an infeasible instance reports infeasible
        and leaves positions untouched."""
        nl = Netlist(DIE)
        bounds = MoveBoundSet(DIE)
        bounds.add_rects("m", [Rect(0, 0, 4, 4)])
        for i in range(30):
            nl.add_cell(f"c{i}", 2, 1, x=25, y=25, movebound="m")
        dec = decompose_regions(DIE, bounds)
        grid = Grid(DIE, 2, 2)
        grid.build_regions(dec)
        before = nl.snapshot()
        report = fbp_partition(nl, bounds, grid)
        assert not report.feasible
        assert np.array_equal(nl.x, before.x)


class TestBoundaryGeometry:
    def test_movebound_touching_die_edges(self):
        nl = Netlist(DIE, row_height=1.0, site_width=0.5)
        bounds = MoveBoundSet(DIE)
        bounds.add_rects("edge", [Rect(0, 0, 50, 5)])  # full south band
        for i in range(20):
            nl.add_cell(f"c{i}", 2, 1, x=25, y=25, movebound="edge")
        for i in range(30):
            nl.add_cell(f"d{i}", 2, 1, x=25, y=25)
        for i in range(19):
            nl.add_net(f"n{i}", [Pin(i), Pin(i + 1)])
        res = BonnPlaceFBP().place(nl, bounds)
        assert res.legality.is_legal

    def test_cell_wider_than_movebound_infeasible_geometrically(self):
        """A cell that physically cannot fit inside its movebound: the
        area check may pass but legalization cannot succeed — the
        placer must fail loudly, not silently misplace."""
        nl = Netlist(DIE, row_height=1.0, site_width=0.5)
        bounds = MoveBoundSet(DIE)
        bounds.add_rects("tiny", [Rect(0, 0, 3, 10)])
        nl.add_cell("wide", 8, 1, x=25, y=25, movebound="tiny")
        with pytest.raises(Exception):
            BonnPlaceFBP().place(nl, bounds)

    def test_exclusive_covering_whole_die_rejected(self):
        nl = Netlist(DIE)
        bounds = MoveBoundSet(DIE)
        bounds.add_rects("x", [DIE], EXCLUSIVE)
        nl.add_cell("c", 2, 1, x=25, y=25)  # default cell: nowhere to go
        report = check_feasibility(nl, bounds)
        assert not report.feasible

    def test_multirect_disjoint_movebound(self):
        """Non-convex, disconnected movebound area: cells distribute
        over both pieces."""
        nl = Netlist(DIE, row_height=1.0, site_width=0.5)
        bounds = MoveBoundSet(DIE)
        bounds.add_rects(
            "split", [Rect(0, 0, 10, 10), Rect(40, 40, 50, 50)]
        )
        for i in range(60):
            nl.add_cell(f"c{i}", 2, 1, x=25, y=25, movebound="split")
        res = BonnPlaceFBP().place(nl, bounds)
        assert res.legality.is_legal
        in_a = in_b = 0
        for c in nl.cells:
            if Rect(0, 0, 10, 10).contains_point(nl.x[c.index], nl.y[c.index]):
                in_a += 1
            else:
                in_b += 1
        assert in_a > 0 and in_b > 0  # both pieces used (one is too small)


class TestLegalizeEdgeCases:
    def test_single_row_die(self):
        nl = Netlist(Rect(0, 0, 40, 1), row_height=1.0, site_width=0.5)
        for i in range(10):
            nl.add_cell(f"c{i}", 2, 1, x=20, y=0.5)
        legalize_with_movebounds(nl)
        assert check_legality(nl).is_legal

    def test_tight_fit(self):
        """95 % utilization still legalizes."""
        nl = Netlist(Rect(0, 0, 20, 10), row_height=1.0, site_width=0.5)
        rng = np.random.default_rng(0)
        total = 0.0
        i = 0
        while total < 0.93 * 200:
            w = float(rng.choice([1.0, 1.5, 2.0]))
            nl.add_cell(f"c{i}", w, 1,
                        x=float(rng.uniform(1, 19)),
                        y=float(rng.uniform(0.5, 9.5)))
            total += w
            i += 1
        legalize_with_movebounds(nl)
        rep = check_legality(nl)
        assert rep.overlaps == 0 and rep.out_of_die == 0
