"""The Netlist owns its cell and net state.

Cells live in columns and nets in one CSR pin table; ``add_cells`` /
``add_net`` / ``add_nets_bulk`` / ``set_cells`` / ``set_net_weights``
are the only ways to change them.  After any sequence of those calls
every derived array must equal, bit for bit, the one a netlist rebuilt
from scratch with the same cells and nets computes — whatever was
cached before the change — the :class:`Cell` records the netlist
builds must equal the records the calls describe, and the pin table
and its derived arrays must equal what per-net loops over the
:class:`Net` records the calls put in compute.  No :class:`Cell`,
:class:`Pin` or :class:`Net` is made by bulk construction, by loading
or generating an instance, or (no Cell) by placing one.  And no module
outside ``repro/netlist/`` may reach into the Netlist's private state,
nor may the placer's core packages index ``netlist.cells``.
"""

import copy
import itertools
import pickle
import re
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.geometry import Rect
from repro.bookshelf import load_instance, save_instance
from repro.netlist import DEFAULT_BOUND, FIXED_PIN, Cell, Net, Netlist, Pin
from repro.place import BonnPlaceFBP
from repro.workloads import NetlistSpec, generate_netlist

DIE = Rect(0, 0, 30, 20)
ROW = 1.0

#: around the standard-cell / macro border (``height <= row + 1e-9``)
HEIGHTS = [0.5, ROW, ROW + 5e-10, ROW + 2e-9, 2.0, 3.5]
BOUNDS = [None, "A", "B"]
#: movebound names no cell had before (set_cells extends the name table)
FRESH_BOUNDS = (f"F{k}" for k in itertools.count())


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
    """Every column, derived array and metric, as bytes (so ``==`` is
    bitwise), and the movebound group names."""
    codes, names = nl.movebound_groups()
    out = {
        "width": nl.width,
        "height": nl.height,
        "movebound_codes": codes,
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
    state = {name: (a.dtype.str, a.tobytes()) for name, a in out.items()}
    state["movebound_names"] = names
    return state


def _add_cells(nl, data, count, cells):
    """Add ``count`` drawn cells; ``cells`` gets the records they are."""
    base = nl.num_cells
    new = [
        Cell(f"c{base + i}", w, h, f, mb, base + i)
        for i, (w, h, f, mb) in enumerate(zip(
            data.draw(st.lists(st.floats(0.1, 5.0), min_size=count,
                               max_size=count)),
            data.draw(st.lists(st.sampled_from(HEIGHTS), min_size=count,
                               max_size=count)),
            data.draw(st.lists(st.booleans(), min_size=count,
                               max_size=count)),
            data.draw(st.lists(st.sampled_from(BOUNDS), min_size=count,
                               max_size=count)),
        ))
    ]
    nl.add_cells(
        [c.name for c in new],
        [c.width for c in new],
        [c.height for c in new],
        x=data.draw(st.lists(st.floats(0.0, DIE.x_hi), min_size=count,
                             max_size=count)),
        y=data.draw(st.lists(st.floats(0.0, DIE.y_hi), min_size=count,
                             max_size=count)),
        fixed=[c.fixed for c in new],
        movebound=[c.movebound for c in new],
    )
    cells.extend(new)


def _draw_pins(nl, data) -> list:
    members = data.draw(st.lists(st.integers(0, nl.num_cells - 1),
                                 min_size=1, max_size=5))
    pins = [Pin(c, data.draw(st.floats(-0.5, 0.5)), 0.25) for c in members]
    if data.draw(st.booleans()):
        pins.append(Pin.terminal(data.draw(st.floats(0.0, DIE.x_hi)), 3.0))
    return pins


def _add_net(nl, data, records):
    net = Net(f"n{nl.num_nets}", _draw_pins(nl, data),
              data.draw(st.floats(0.1, 4.0)))
    nl.add_net(net.name, net.pins, net.weight)
    records.append(net)


def _add_nets_bulk(nl, data, records):
    nets = [
        Net(f"n{nl.num_nets + k}", _draw_pins(nl, data),
            data.draw(st.floats(0.1, 4.0)))
        for k in range(data.draw(st.integers(0, 4)))
    ]
    nl.add_nets_bulk(
        [n.name for n in nets],
        [[p.cell_index for p in n.pins] for n in nets],
        [n.weight for n in nets],
        ([p.offset_x for n in nets for p in n.pins],
         [p.offset_y for n in nets for p in n.pins]),
    )
    records.extend(nets)


def _set_cells(nl, data, cells):
    """Change drawn cells, and their records in ``cells`` the way the
    records would change."""
    indices = data.draw(st.lists(st.integers(0, nl.num_cells - 1),
                                 min_size=1, max_size=6))
    change = data.draw(st.sampled_from(["width", "height", "fixed",
                                        "movebound"]))
    value = data.draw({
        "width": st.floats(0.1, 5.0),
        "height": st.sampled_from(HEIGHTS),
        "fixed": st.booleans(),
        "movebound": st.sampled_from([*BOUNDS, "fresh"]),
    }[change])
    if value == "fresh":
        value = next(FRESH_BOUNDS)
    nl.set_cells(indices, **{change: value})
    for i in indices:
        cells[i] = replace(cells[i], **{change: value})


def _set_net_weights(nl, data, records):
    nets = data.draw(st.lists(st.integers(0, nl.num_nets - 1),
                              min_size=1, max_size=6, unique=True))
    weights = {i: data.draw(st.floats(0.1, 4.0)) for i in nets}
    nl.set_net_weights(weights)
    for i, w in weights.items():
        records[i] = replace(records[i], weight=w)


def _from_records(nl: Netlist, nets: list) -> dict:
    """The pin table and every array derived from it, computed by
    per-net loops over ``nets`` (the layout the Netlist documents)."""
    ptr, cell, dx, dy, weight = [0], [], [], [], []
    rows, row_ptr, row_pins, row_weight = [], [], [], []
    of_cell = [[] for _ in range(nl.num_cells)]
    for i, net in enumerate(nets):
        for pin in net.pins:
            cell.append(pin.cell_index)
            dx.append(pin.offset_x)
            dy.append(pin.offset_y)
            if pin.cell_index >= 0:
                of_cell[pin.cell_index].append(i)
        ptr.append(len(cell))
        weight.append(net.weight)
        rows.append(len(row_ptr) if net.degree >= 2 else -1)
        if net.degree >= 2:
            row_ptr.append(len(row_pins))
            row_pins.extend(range(ptr[-2], ptr[-1]))
            row_weight.append(net.weight)
    cell, dx, dy = (np.array(a, dtype=t) for a, t in
                    ((cell, np.int64), (dx, float), (dy, float)))
    return {
        "pin_table": (np.array(ptr, dtype=np.int64), cell, dx, dy,
                      np.array(weight, dtype=float)),
        "pin_arrays": (np.array(row_ptr, dtype=np.int64), cell[row_pins],
                       dx[row_pins], dy[row_pins],
                       np.array(row_weight, dtype=float)),
        "cell_nets_csr": (
            np.cumsum([0] + [len(c) for c in of_cell], dtype=np.int64),
            np.array([n for c in of_cell for n in c], dtype=np.int64),
        ),
        "span_layout": (np.array(row_weight, dtype=float),
                        np.array(rows, dtype=np.int64)),
        "nets_of_cell": of_cell,
        "net_names": [n.name for n in nets],
    }


def _table_state(nl: Netlist) -> dict:
    return {
        "pin_table": nl.pin_table(),
        "pin_arrays": nl.pin_arrays(),
        "cell_nets_csr": nl.cell_nets_csr(),
        "span_layout": nl.span_layout(),
        "nets_of_cell": list(nl.nets_of_cell()),
        "net_names": list(nl.net_names),
    }


def _same(a, b) -> bool:
    """Equal structure, dtypes and bits."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)) and a and isinstance(a[0], np.ndarray):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _assert_matches_a_rebuild(nl, cells, records, what):
    assert _derived(nl) == _derived(_rebuild(nl)), what
    assert list(nl.cells) == cells, what
    codes, names = nl.movebound_groups()
    assert [names[k] for k in codes.tolist()] == [
        c.movebound or DEFAULT_BOUND for c in cells
    ], what
    assert names == sorted(set(names)), what
    state, want = _table_state(nl), _from_records(nl, records)
    assert all(_same(state[k], want[k]) for k in want), what


@given(st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_derived_arrays_equal_a_rebuild_after_every_change(data):
    nl = Netlist(DIE, row_height=ROW, site_width=0.5)
    cells: list = []  # the Cell records the calls describe
    records: list = []  # the Net records the calls put in
    _add_cells(nl, data, data.draw(st.integers(1, 6)), cells)
    for _step in range(data.draw(st.integers(1, 10))):
        ops = ["add_cells", "add_net", "add_nets_bulk", "set_cells"]
        if nl.num_nets:
            ops.append("set_net_weights")
        op = data.draw(st.sampled_from(ops))
        if op == "add_cells":
            _add_cells(nl, data, data.draw(st.integers(1, 4)), cells)
        elif op == "add_net":
            _add_net(nl, data, records)
        elif op == "add_nets_bulk":
            _add_nets_bulk(nl, data, records)
        elif op == "set_cells":
            _set_cells(nl, data, cells)
        else:
            _set_net_weights(nl, data, records)
        # reading everything here (some of it only now and then, so a
        # change also meets a table not read since the last one) warms
        # every cache, so the next change has to keep them right
        if data.draw(st.booleans()):
            _assert_matches_a_rebuild(nl, cells, records, op)
    _assert_matches_a_rebuild(nl, cells, records, "final state")
    assert [nl.cells[i] for i in range(-len(cells), len(cells))] == (
        cells + cells
    )
    assert list(nl.nets) == records
    assert [nl.nets[i] for i in range(-len(records), len(records))] == (
        records + records
    )


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


def _assert_derived_arrays_read_only(nl):
    arrays = [nl.width, nl.height, nl.movebound_groups()[0],
              nl.cell_sizes(), nl.fixed_mask, nl.movable_indices,
              nl.std_cell_mask, nl.macro_indices, *nl.cell_dims(),
              *nl.pin_arrays(), *nl.pin_table(), *nl.cell_nets_csr()]
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = a


def test_derived_arrays_are_read_only():
    _assert_derived_arrays_read_only(_small())


@pytest.mark.parametrize("clone", [
    copy.deepcopy, lambda nl: pickle.loads(pickle.dumps(nl)),
], ids=["deepcopy", "pickle"])
def test_derived_arrays_of_a_copy_are_read_only(clone):
    nl = _small()
    nl.pin_arrays(), nl.cell_dims(), nl.cell_nets_csr()
    _assert_derived_arrays_read_only(clone(nl))


@pytest.mark.parametrize("clone", [
    copy.deepcopy, lambda nl: pickle.loads(pickle.dumps(nl, protocol=5)),
], ids=["deepcopy", "pickle5"])
def test_set_cells_writes_a_copy_and_only_the_copy(clone):
    nl = _small()
    twin = clone(nl)
    twin.set_cells([0, 2], width=5.0, fixed=True, movebound="Z")
    assert [(c.width, c.fixed, c.movebound) for c in twin.cells] == [
        (5.0, True, "Z"), (4.0, False, None), (5.0, True, "Z")]
    assert list(nl.cells) == list(_small().cells)
    _assert_derived_arrays_read_only(twin)


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


def test_a_net_record_is_built_from_the_table():
    nl = _small()
    assert nl.nets[2] == Net("n2", [Pin(1), Pin(FIXED_PIN, 20.0, 5.0)], 2.0)
    assert nl.nets[-1] == nl.nets[2] and nl.nets[1:] == list(nl.nets)[1:]
    assert nl.nets[2] is not nl.nets[2]  # a view: nothing is kept
    with pytest.raises(IndexError):
        nl.nets[3]
    assert list(nl.nets_of_cell()) == [[0, 1], [0, 2], [0]]
    assert [nl.net_index(n) for n in ("n0", "n1", "n2")] == [0, 1, 2]
    with pytest.raises(KeyError):
        nl.net_index("n3")
    nl.add_net("n3", [Pin(2), Pin(0)])  # a new net is found by name
    assert nl.net_index("n3") == 3


def test_bulk_nets_may_have_pads_offsets_and_weights():
    nl = _small()
    nl.add_nets_bulk(
        ["b0", "b1"], [[0, FIXED_PIN], [2]], [0.5, 3.0],
        ([0.25, 7.0, -1.0], [0.0, 8.0, 0.5]),
    )
    assert nl.nets[3] == Net("b0", [Pin(0, 0.25), Pin.terminal(7.0, 8.0)],
                             0.5)
    assert nl.nets[4] == Net("b1", [Pin(2, -1.0, 0.5)], 3.0)
    for bad in ([[0, 3]], [[-2]]):
        with pytest.raises(ValueError, match="references cell index"):
            nl.add_nets_bulk(["x"], bad)
    with pytest.raises(ValueError, match="one value per pin"):
        nl.add_nets_bulk(["x"], [[0, 1]], offsets=([0.0], [0.0]))
    assert nl.num_nets == 5  # a rejected batch adds nothing


@pytest.fixture
def record_count(monkeypatch):
    """How many Cell, Pin and Net records get built while the test
    runs."""
    made = {"Cell": 0, "Pin": 0, "Net": 0}
    for cls in (Cell, Pin, Net):
        real = cls.__init__

        def counted(self, *args, _real=real, _name=cls.__name__, **kw):
            made[_name] += 1
            _real(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counted)
    return made


def test_bulk_construction_and_loading_build_no_record(tmp_path,
                                                       record_count):
    spec = NetlistSpec("rec", 300, num_pads=8, num_macros=2)
    nl, _logical = generate_netlist(spec, seed=3)
    save_instance(str(tmp_path), nl)
    loaded, _bounds = load_instance(str(tmp_path), "rec")
    loaded.pin_arrays(), loaded.cell_nets_csr(), loaded.hpwl()
    loaded.add_cells(["x0", "x1"], [1.0, 2.0], 1.0, movebound=[None, "X"])
    assert record_count == {"Cell": 0, "Pin": 0, "Net": 0}
    assert loaded.num_nets == nl.num_nets > 300
    assert loaded.num_cells == nl.num_cells + 2
    result = BonnPlaceFBP().place(nl)  # the whole pipeline, legalized
    assert result.legality.is_legal and record_count["Cell"] == 0
    # the views build them on demand, and the count sees it
    nl.nets[0], nl.cells[0]
    assert record_count["Net"] == 1 and record_count["Pin"] >= 2
    assert record_count["Cell"] == 1


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


#: the placer's core packages read the cell columns, never a record
COLUMN_READERS = ("legalize", "fbp", "partitioning", "movebounds",
                  "feasibility", "resilience")


def test_no_module_reaches_into_the_netlist():
    pattern = re.compile(
        r"\.(%s)\b" % "|".join(sorted(map(re.escape, _private_names())))
    )
    record_read = re.compile(r"\bnetlist\.cells\[")
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        if NETLIST_PKG in path.parents:
            continue
        core = path.relative_to(SRC).parts[0] in COLUMN_READERS
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line) or (core and record_read.search(line)):
                hits.append(f"{path.relative_to(SRC)}:{n}: {line.strip()}")
    assert hits == []
