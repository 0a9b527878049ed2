"""The Netlist owns its cell and net state.

Cells and nets are read-only records; ``add_cells`` / ``add_net`` /
``set_cells`` / ``set_net_weights`` are the only ways to change them.
After any sequence of those calls every derived array must equal, bit
for bit, the one a netlist rebuilt from scratch with the same cells and
nets computes — whatever was cached before the change.  And no module
outside ``repro/netlist/`` may reach into the Netlist's private state.
"""

import re
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.geometry import Rect
from repro.netlist import Cell, Net, Netlist, Pin

DIE = Rect(0, 0, 30, 20)
ROW = 1.0

#: around the standard-cell / macro border (``height <= row + 1e-9``)
HEIGHTS = [0.5, ROW, ROW + 5e-10, ROW + 2e-9, 2.0, 3.5]
BOUNDS = [None, "A", "B"]


def _rebuild(nl: Netlist) -> Netlist:
    """A fresh netlist with the same cells, nets and positions."""
    fresh = Netlist(nl.die, row_height=nl.row_height,
                    site_width=nl.site_width)
    cells = nl.cells
    if cells:
        fresh.add_cells(
            [c.name for c in cells],
            [c.width for c in cells],
            [c.height for c in cells],
            x=nl.x, y=nl.y,
            fixed=[c.fixed for c in cells],
            movebound=[c.movebound for c in cells],
        )
    for net in nl.nets:
        fresh.add_net(net.name, net.pins, net.weight)
    return fresh


def _derived(nl: Netlist) -> dict:
    """Every derived array and metric, as bytes (so ``==`` is bitwise)."""
    out = {
        "cell_sizes": nl.cell_sizes(),
        "fixed_mask": nl.fixed_mask,
        "movable_indices": nl.movable_indices,
        "std_cell_mask": nl.std_cell_mask,
        "macro_indices": nl.macro_indices,
        "net_spans": nl.net_spans(),
        "hpwl": np.float64(nl.hpwl()),
    }
    for k, a in enumerate(nl.cell_dims()):
        out[f"cell_dims[{k}]"] = a
    for k, a in enumerate(nl.pin_arrays()):
        out[f"pin_arrays[{k}]"] = a
    return {name: (a.dtype.str, a.tobytes()) for name, a in out.items()}


def _add_cells(nl, data, count):
    base = nl.num_cells
    nl.add_cells(
        [f"c{base + i}" for i in range(count)],
        data.draw(st.lists(st.floats(0.1, 5.0), min_size=count,
                           max_size=count)),
        data.draw(st.lists(st.sampled_from(HEIGHTS), min_size=count,
                           max_size=count)),
        x=data.draw(st.lists(st.floats(0.0, DIE.x_hi), min_size=count,
                             max_size=count)),
        y=data.draw(st.lists(st.floats(0.0, DIE.y_hi), min_size=count,
                             max_size=count)),
        fixed=data.draw(st.lists(st.booleans(), min_size=count,
                                 max_size=count)),
        movebound=data.draw(st.lists(st.sampled_from(BOUNDS),
                                     min_size=count, max_size=count)),
    )


def _add_net(nl, data):
    members = data.draw(st.lists(st.integers(0, nl.num_cells - 1),
                                 min_size=1, max_size=5))
    pins = [Pin(c, data.draw(st.floats(-0.5, 0.5)), 0.25) for c in members]
    if data.draw(st.booleans()):
        pins.append(Pin.terminal(data.draw(st.floats(0.0, DIE.x_hi)), 3.0))
    nl.add_net(f"n{nl.num_nets}", pins, data.draw(st.floats(0.1, 4.0)))


def _set_cells(nl, data):
    indices = data.draw(st.lists(st.integers(0, nl.num_cells - 1),
                                 min_size=1, max_size=6))
    change = data.draw(st.sampled_from(["width", "height", "fixed",
                                        "movebound"]))
    value = data.draw({
        "width": st.floats(0.1, 5.0),
        "height": st.sampled_from(HEIGHTS),
        "fixed": st.booleans(),
        "movebound": st.sampled_from(BOUNDS),
    }[change])
    nl.set_cells(indices, **{change: value})


def _set_net_weights(nl, data):
    nets = data.draw(st.lists(st.integers(0, nl.num_nets - 1),
                              min_size=1, max_size=6, unique=True))
    nl.set_net_weights({i: data.draw(st.floats(0.1, 4.0)) for i in nets})


@given(st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_derived_arrays_equal_a_rebuild_after_every_change(data):
    nl = Netlist(DIE, row_height=ROW, site_width=0.5)
    _add_cells(nl, data, data.draw(st.integers(1, 6)))
    for _step in range(data.draw(st.integers(1, 10))):
        ops = ["add_cells", "add_net", "set_cells"]
        if nl.num_nets:
            ops.append("set_net_weights")
        op = data.draw(st.sampled_from(ops))
        if op == "add_cells":
            _add_cells(nl, data, data.draw(st.integers(1, 4)))
        elif op == "add_net":
            _add_net(nl, data)
        elif op == "set_cells":
            _set_cells(nl, data)
        else:
            _set_net_weights(nl, data)
        # reading everything here warms every cache, so the next
        # change has to keep them right
        assert _derived(nl) == _derived(_rebuild(nl))


def _small() -> Netlist:
    nl = Netlist(DIE, row_height=ROW)
    nl.add_cell("a", 2.0, 1.0, x=3.0, y=3.0)
    nl.add_cell("m", 4.0, 3.0, x=10.0, y=10.0)
    nl.add_cell("pad", 1.0, 1.0, x=0.5, y=0.5, fixed=True)
    nl.add_net("n0", [Pin(0), Pin(1), Pin(2)])
    nl.add_net("n1", [Pin(0)])
    nl.add_net("n2", [Pin(1), Pin.terminal(20.0, 5.0)], 2.0)
    return nl


@pytest.mark.parametrize("record, field", [
    *(("cell", f.name) for f in fields(Cell)),
    *(("net", f.name) for f in fields(Net)),
])
def test_records_are_read_only(record, field):
    nl = _small()
    obj = nl.cells[0] if record == "cell" else nl.nets[0]
    with pytest.raises(FrozenInstanceError):
        setattr(obj, field, getattr(obj, field))


def test_derived_arrays_are_read_only():
    nl = _small()
    arrays = [nl.cell_sizes(), nl.fixed_mask, nl.movable_indices,
              nl.std_cell_mask, nl.macro_indices, *nl.cell_dims(),
              *nl.pin_arrays()]
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = a


def test_set_cells_takes_only_the_changeable_fields():
    nl = _small()
    for bad in ({"name": "z"}, {"index": 7}, {"size": 1.0}):
        with pytest.raises(TypeError):
            nl.set_cells([0], **bad)
    assert nl.cells[0].name == "a" and nl.cells[0].index == 0


def test_masks_name_movable_standard_and_macro_cells():
    nl = _small()
    assert nl.movable_indices.tolist() == [0, 1]
    assert nl.fixed_mask.tolist() == [False, False, True]
    assert nl.std_cell_mask.tolist() == [True, False, False]
    assert nl.macro_indices.tolist() == [1]
    nl.set_cells([1], fixed=True)
    assert nl.movable_indices.tolist() == [0]
    assert nl.macro_indices.tolist() == []


def test_new_weights_reach_a_built_pin_table():
    nl = _small()
    weights = nl.pin_arrays()[4]
    before = nl.hpwl()
    nl.set_net_weights({2: 5.0, 1: 9.0})  # net 1 has one pin: no row
    table = nl.pin_arrays()
    assert weights.tolist() == [1.0, 2.0]  # a held table is not changed
    assert table[4].tolist() == [1.0, 5.0]
    assert nl.nets[1].weight == 9.0
    assert nl.hpwl() > before


# ----------------------------------------------------------------------
# the Netlist's private state stays private
# ----------------------------------------------------------------------
SRC = Path(repro.__file__).resolve().parent
NETLIST_PKG = SRC / "netlist"


def _private_names() -> set:
    """The Netlist's private attributes and methods, plus the two
    array builders that used to be private."""
    names = {k for k in vars(Netlist(DIE)) if k.startswith("_")}
    names |= {
        k for k in vars(Netlist)
        if k.startswith("_") and not k.startswith("__")
    }
    return names | {"_dim_arrays", "_hpwl_arrays"}


def test_no_module_reaches_into_the_netlist():
    pattern = re.compile(
        r"\.(%s)\b" % "|".join(sorted(map(re.escape, _private_names())))
    )
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        if NETLIST_PKG in path.parents:
            continue
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                hits.append(f"{path.relative_to(SRC)}:{n}: {line.strip()}")
    assert hits == []
