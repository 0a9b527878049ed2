"""The 'any given placement' guarantee (§IV intro and Theorem 3).

Recursive partitioning cannot handle incremental placements without a
from-scratch restart; FBP guarantees a feasible partitioning for ANY
initial placement of a feasible instance.  These tests feed FBP
adversarial starting placements.
"""

import numpy as np
import pytest

from repro.fbp import fbp_partition
from repro.geometry import Rect
from repro.grid import Grid
from repro.movebounds import MoveBoundSet, decompose_regions
from repro.netlist import Netlist, Pin

DIE = Rect(0, 0, 80, 80)


def _instance(seed=0, num_cells=200, bound_rect=None):
    rng = np.random.default_rng(seed)
    nl = Netlist(DIE, row_height=1.0, site_width=0.5)
    bounds = MoveBoundSet(DIE)
    if bound_rect is not None:
        bounds.add_rects("m", [bound_rect])
    for i in range(num_cells):
        mb = "m" if bound_rect is not None and i < num_cells // 4 else None
        nl.add_cell(f"c{i}", 2.0, 1.0, movebound=mb)
    for j in range(num_cells // 2):
        a, b = rng.choice(num_cells, 2, replace=False)
        nl.add_net(f"n{j}", [Pin(int(a)), Pin(int(b))])
    return nl, bounds


def _grid(nl, bounds, n=4):
    dec = decompose_regions(DIE, bounds, nl.blockages)
    grid = Grid(DIE, n, n)
    grid.build_regions(dec)
    return grid


ADVERSARIAL_STARTS = {
    "all_in_one_corner": lambda nl, rng: (
        np.full(nl.num_cells, 2.0),
        np.full(nl.num_cells, 2.0),
    ),
    "single_point": lambda nl, rng: (
        np.full(nl.num_cells, 40.0),
        np.full(nl.num_cells, 40.0),
    ),
    "one_row_line": lambda nl, rng: (
        np.linspace(1, 79, nl.num_cells),
        np.full(nl.num_cells, 0.5),
    ),
    "random_uniform": lambda nl, rng: (
        rng.uniform(1, 79, nl.num_cells),
        rng.uniform(1, 79, nl.num_cells),
    ),
    "wrong_corner_for_bound": None,  # handled specially below
}


class TestAnyPlacement:
    @pytest.mark.parametrize(
        "start", [k for k, v in ADVERSARIAL_STARTS.items() if v]
    )
    def test_feasible_from_adversarial_start(self, start):
        nl, bounds = _instance(seed=1)
        rng = np.random.default_rng(0)
        xs, ys = ADVERSARIAL_STARTS[start](nl, rng)
        nl.set_positions(xs, ys)
        grid = _grid(nl, bounds)
        report = fbp_partition(
            nl, bounds, grid, density_target=0.9, run_local_qp=False
        )
        assert report.feasible
        real = report.realization
        max_cell = max(c.size for c in nl.cells)
        assert real.max_overflow <= max_cell + 1e-6

    def test_movebound_cells_far_from_bound(self):
        """All bound cells start diagonally opposite their area; the
        flow routes them home through multiple windows."""
        nl, bounds = _instance(seed=2, bound_rect=Rect(0, 0, 25, 25))
        for c in nl.cells:
            if c.movebound == "m":
                nl.x[c.index], nl.y[c.index] = 78.0, 78.0
            else:
                nl.x[c.index], nl.y[c.index] = 40.0, 40.0
        grid = _grid(nl, bounds)
        report = fbp_partition(
            nl, bounds, grid, density_target=0.9, run_local_qp=False
        )
        assert report.feasible
        assert bounds.violations(nl) == []
        # bound cells really crossed the chip
        for c in nl.cells:
            if c.movebound == "m":
                assert nl.x[c.index] <= 25 and nl.y[c.index] <= 25

    def test_repeated_incremental_runs_converge(self):
        """Running fbp_partition repeatedly from its own output keeps
        the placement feasible and stops moving much."""
        nl, bounds = _instance(seed=3, bound_rect=Rect(50, 50, 78, 78))
        grid = _grid(nl, bounds)
        moved = []
        for _ in range(3):
            before = nl.snapshot()
            report = fbp_partition(
                nl, bounds, grid, density_target=0.9, run_local_qp=False
            )
            assert report.feasible
            moved.append(
                float(
                    np.abs(nl.x - before.x).sum()
                    + np.abs(nl.y - before.y).sum()
                )
            )
        assert moved[-1] <= moved[0] + 1e-6

    def test_positions_outside_die_tolerated(self):
        """Even coordinates outside the die (bad incremental input) are
        absorbed: window assignment clamps, flow fixes the rest."""
        nl, bounds = _instance(seed=4)
        nl.x[:50] = -30.0
        nl.y[:50] = 200.0
        grid = _grid(nl, bounds)
        report = fbp_partition(
            nl, bounds, grid, density_target=0.9, run_local_qp=False
        )
        assert report.feasible
        assert not nl.check_in_die()
