"""Golden identity of the FBP MinCostFlow LP: the same LP, column for column.

``build_fbp_model`` emits the §IV.A network as node and arc columns by
array operations; its contract is that HiGHS receives the very LP the
per-arc builder handed it — the same rows (region nodes in grid order,
then per movebound and window the transits N/E/S/W and the cell group),
the same columns (per window E^tt, E^tr, E^cr, E^ct, then the bound's
E^ext pairs) and the same cost bits.  The sha256 of that LP (row
bounds, column costs and upper bounds, the CSC ``start`` / ``index`` /
``value`` arrays) and of the external-flow vector of its solve were
recorded for each fixture and live in ``tests/data/fbp_lp_golden.json``.

Regenerate (only when the model is changed *on purpose*)::

    PYTHONPATH=src python tests/test_fbp_lp_identity.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

import repro.flows.mincostflow as mincostflow
from repro.fbp import build_fbp_model
from repro.geometry import Rect
from repro.grid import Grid
from repro.movebounds import EXCLUSIVE, MoveBoundSet, decompose_regions
from repro.netlist import Netlist
from repro.workloads import (
    MoveBoundSpec,
    NetlistSpec,
    attach_movebounds,
    generate_netlist,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "fbp_lp_golden.json")


def _generated(seed, nx, ny, specs):
    spec = NetlistSpec("lp", 400, utilization=0.6, num_pads=12)
    nl, logical = generate_netlist(spec, seed=seed)
    if specs:
        bounds = attach_movebounds(nl, logical, specs, seed=seed)
    else:
        bounds = MoveBoundSet(nl.die)
    grid = Grid(nl.die, nx, ny)
    grid.build_regions(decompose_regions(nl.die, bounds, nl.blockages))
    return nl, bounds, grid


def _flat():
    return _generated(1, 6, 6, [])


def _inclusive():
    # a non-square grid, so a swapped nx / ny shows
    return _generated(2, 5, 4, [
        MoveBoundSpec("a", 0.15, density=0.7),
        MoveBoundSpec("b", 0.10, density=0.7),
    ])


def _exclusive():
    return _generated(3, 4, 5, [
        MoveBoundSpec("x", 0.12, density=0.6, kind=EXCLUSIVE),
        MoveBoundSpec("i", 0.10, density=0.7),
    ])


def _figure3():
    """The paper's Figure 3 setting: 2x2 windows, one movebound over
    the whole die, its cells crowded into window (0, 0)."""
    die = Rect(0, 0, 40, 40)
    nl = Netlist(die, row_height=1.0, site_width=0.5, name="fig3")
    bounds = MoveBoundSet(die)
    bounds.add_rects("M", [Rect(0, 0, 40, 40)])
    rng = np.random.default_rng(0)
    # 360 area units against the window's 320 at density 0.8
    for i in range(180):
        nl.add_cell(
            f"m{i}", 2.0, 1.0,
            x=float(rng.uniform(1, 18)), y=float(rng.uniform(1, 18)),
            movebound="M",
        )
    for i in range(40):
        nl.add_cell(
            f"d{i}", 1.5, 1.0,
            x=float(rng.uniform(1, 39)), y=float(rng.uniform(1, 39)),
        )
    grid = Grid(die, 2, 2)
    grid.build_regions(decompose_regions(die, bounds, nl.blockages))
    return nl, bounds, grid


#: name -> (instance builder, density target)
CASES = {
    "flat": (_flat, 0.9),
    "inclusive": (_inclusive, 0.9),
    "exclusive": (_exclusive, 0.9),
    "figure3": (_figure3, 0.8),
}


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def run_case(name: str, monkeypatch=None) -> dict:
    """The LP the model hands HiGHS and its external flows, hashed.

    Index arrays are hashed as int64 and values as float64, so the
    digest names the LP, not the dtypes it travelled in."""
    builder, density = CASES[name]
    nl, bounds, grid = builder()
    model = build_fbp_model(nl, bounds, grid, density_target=density)
    seen = []
    real = mincostflow.run_highs

    def capture(cost, upper, row_lower, row_upper, start, index, value,
                **kw):
        seen.append({
            "rows": len(row_lower),
            "cols": len(cost),
            "row_bounds": _sha(
                np.asarray(row_lower, dtype=np.float64),
                np.asarray(row_upper, dtype=np.float64),
            ),
            "col_costs": _sha(np.asarray(cost, dtype=np.float64)),
            "col_upper": _sha(np.asarray(upper, dtype=np.float64)),
            "csc": _sha(
                np.asarray(start, dtype=np.int64),
                np.asarray(index, dtype=np.int64),
                np.asarray(value, dtype=np.float64),
            ),
        })
        return real(cost, upper, row_lower, row_upper, start, index, value,
                    **kw)

    if monkeypatch is not None:
        monkeypatch.setattr(mincostflow, "run_highs", capture)
        result = model.solve()
    else:
        mincostflow.run_highs = capture
        try:
            result = model.solve()
        finally:
            mincostflow.run_highs = real
    assert result.feasible and len(seen) == 1
    ext = np.asarray([a.arc_id for a in model.external_arcs], dtype=np.int64)
    out = dict(seen[0])
    out["external_arcs"] = len(ext)
    out["external_flows"] = _sha(result.flows[ext])
    out["carrying"] = int(np.count_nonzero(result.flows[ext] > 1e-7))
    return out


def _environment() -> dict:
    import scipy

    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _golden() -> dict:
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fbp_lp_reproduces_golden(name, monkeypatch):
    actual = run_case(name, monkeypatch)
    golden = _golden()
    expected = golden["cases"][name]
    lp_keys = ("rows", "cols", "row_bounds", "col_costs", "col_upper", "csc",
               "external_arcs")
    # the LP itself depends on no library version
    assert {k: actual[k] for k in lp_keys} == {k: expected[k] for k in lp_keys}
    # the flow HiGHS returns may, among degenerate optima
    if actual != expected and _environment() != golden["environment"]:
        pytest.skip(
            f"flows recorded under {golden['environment']}, "
            f"running under {_environment()}"
        )
    assert actual == expected


def test_golden_cases_are_not_vacuous():
    """Every fixture has external arcs, and some fixture routes flow
    over them, so the external-flow digest pins a real readback."""
    cases = _golden()["cases"]
    assert all(c["external_arcs"] > 0 for c in cases.values())
    assert cases["figure3"]["carrying"] > 0


def record() -> None:
    golden = {
        "environment": _environment(),
        "cases": {n: run_case(n) for n in sorted(CASES)},
    }
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    record()
