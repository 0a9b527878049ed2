"""``DensityMap`` on arrays is bit-identical to the per-cell loop.

The reference below is the rectangle-by-rectangle, bin-by-bin loop the
array splat replaced; capacities and usages must agree byte for byte
(same floats added in the same order per bin), on netlists with
blockages, fixed cells and macros, with rectangles on bin edges and
rectangles partly outside the die.
"""

import numpy as np
import pytest

from repro.geometry import Rect, RectSet
from repro.metrics import DensityMap
from repro.metrics.density import default_bin_count
from repro.netlist import Netlist
from repro.workloads import NetlistSpec, generate_netlist


def _reference(netlist, nx, ny):
    """(capacity, usage) by the scalar loop."""
    die = netlist.die
    bin_w, bin_h = die.width / nx, die.height / ny

    def splat(rect, target, sign=1.0):
        x_lo = max(rect.x_lo, die.x_lo)
        x_hi = min(rect.x_hi, die.x_hi)
        y_lo = max(rect.y_lo, die.y_lo)
        y_hi = min(rect.y_hi, die.y_hi)
        if x_hi <= x_lo or y_hi <= y_lo:
            return
        i_lo = int((x_lo - die.x_lo) / bin_w)
        i_hi = min(int((x_hi - die.x_lo) / bin_w), nx - 1)
        j_lo = int((y_lo - die.y_lo) / bin_h)
        j_hi = min(int((y_hi - die.y_lo) / bin_h), ny - 1)
        for i in range(i_lo, i_hi + 1):
            bx_lo = die.x_lo + i * bin_w
            ow = min(x_hi, bx_lo + bin_w) - max(x_lo, bx_lo)
            if ow <= 0:
                continue
            for j in range(j_lo, j_hi + 1):
                by_lo = die.y_lo + j * bin_h
                oh = min(y_hi, by_lo + bin_h) - max(y_lo, by_lo)
                if oh > 0:
                    target[i, j] += sign * ow * oh

    capacity = np.full((nx, ny), bin_w * bin_h)
    for rect in netlist.blockages:
        splat(rect, capacity, sign=-1.0)
    for cell in netlist.cells:
        if cell.fixed:
            splat(netlist.cell_rect(cell.index), capacity, sign=-1.0)
    np.clip(capacity, 0.0, None, out=capacity)
    usage = np.zeros((nx, ny))
    for cell in netlist.cells:
        if not cell.fixed:
            splat(netlist.cell_rect(cell.index), usage)
    return capacity, usage


def _assert_same(dmap, netlist):
    capacity, usage = _reference(netlist, dmap.nx, dmap.ny)
    assert dmap.capacity.tobytes() == capacity.tobytes()
    assert dmap.usage.tobytes() == usage.tobytes()


def _generated(seed):
    spec = NetlistSpec(
        f"dens{seed}",
        300 + 150 * seed,
        utilization=0.6,
        num_pads=10,
        num_macros=2,
        blockage_fracs=((0.1, 0.1, 0.2, 0.15), (0.55, 0.6, 0.3, 0.1)),
    )
    nl, _logical = generate_netlist(spec, seed=seed)
    rng = np.random.default_rng(seed)
    die = nl.die
    movable = [c.index for c in nl.cells if not c.fixed]
    # some movable cells become fixed obstacles
    nl.set_cells(
        rng.choice(movable, size=12, replace=False).tolist(), fixed=True
    )
    n = len(nl.cells)
    nl.x = rng.uniform(die.x_lo - 2.0, die.x_hi + 2.0, n)
    nl.y = rng.uniform(die.y_lo - 2.0, die.y_hi + 2.0, n)
    return nl


def _on_bin_edges(nl, nb, rng):
    """Snap a third of the cells so an edge sits on a bin boundary."""
    die = nl.die
    bw, bh = die.width / nb, die.height / nb
    for i in rng.choice(len(nl.cells), size=len(nl.cells) // 3).tolist():
        c = nl.cells[i]
        nl.x[i] = die.x_lo + rng.integers(0, nb + 1) * bw + c.width / 2
        nl.y[i] = die.y_lo + rng.integers(0, nb + 1) * bh - c.height / 2


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("bins", [None, 7, 16])
def test_generated_netlists_match_the_loop(seed, bins):
    nl = _generated(seed)
    nb = bins or default_bin_count(nl)
    _on_bin_edges(nl, nb, np.random.default_rng(100 + seed))
    dmap = DensityMap(nl, nb, nb)
    _assert_same(dmap, nl)
    # update() after moving the movable cells is the loop over the new
    # positions (capacities stay those of construction)
    rng = np.random.default_rng(200 + seed)
    movable = np.array([not c.fixed for c in nl.cells])
    nl.x = nl.x + np.where(movable, rng.normal(0.0, 1.5, len(nl.x)), 0.0)
    nl.y = nl.y + np.where(movable, rng.normal(0.0, 1.5, len(nl.y)), 0.0)
    dmap.update()
    _assert_same(dmap, nl)


def test_hand_built_edges_and_outside_rectangles():
    die = Rect(0.0, 0.0, 10.0, 10.0)
    nl = Netlist(die)
    cells = [
        (2.0, 2.0, 4.0, 4.0),  # exactly on bin edges
        (-0.5, 5.0, 2.0, 1.0),  # partly left of the die
        (10.5, 10.5, 2.0, 2.0),  # partly outside a corner
        (12.0, 5.0, 1.0, 1.0),  # wholly outside
        (5.0, 5.0, 0.25, 1.0),  # thin, centred on a bin edge
        (3.3, 7.1, 3.7, 1.0),
    ]
    for k, (x, y, w, h) in enumerate(cells):
        nl.add_cell(f"c{k}", w, h, x=x, y=y)
    nl.add_cell("f", 2.0, 2.0, x=9.0, y=1.0, fixed=True)
    nl.blockages = nl.blockages.union(
        RectSet([Rect(0.0, 8.0, 3.0, 10.0), Rect(6.0, 0.0, 8.0, 2.5)])
    )
    for nb in (1, 3, 5, 7):
        _assert_same(DensityMap(nl, nb, nb), nl)
