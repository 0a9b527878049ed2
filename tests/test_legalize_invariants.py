"""Invariants of the array-based legalizer.

The identity test pins *what* the legalizer decides; this file checks
that its internal state can be trusted while it decides: the cached
per-segment arrays always equal a from-scratch rebuild, every pass
leaves a legal placement with non-increasing HPWL, macros become
obstacles without the netlist being mutated, the Abacus row assignment
never holds the (cells x segments) bound matrix while it solves, the
legality audit's overlap sweep reports the same whatever its block
size, and the program's own tracer sees the layer.
"""

from __future__ import annotations

import tracemalloc
from bisect import insort

import numpy as np
import pytest

import repro.flows
from repro.geometry import Rect
from repro.legalize import (
    abacus_legalize,
    build_segments,
    check_legality,
    legalize_with_movebounds,
)
from repro.legalize import checks, detailed
from repro.legalize.detailed import detailed_place
from repro.movebounds import decompose_regions
from repro.netlist import Netlist, Pin
from repro.obs import Tracer, set_tracer
from repro.workloads import (
    MoveBoundSpec,
    NetlistSpec,
    attach_movebounds,
    generate_netlist,
)

_Rows = detailed._Rows


@pytest.fixture
def rows_made(monkeypatch):
    """Every occupancy structure ``detailed_place`` builds."""
    made = []

    class Recording(_Rows):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(detailed, "_Rows", Recording)
    return made


def scalar_rows(netlist, segments):
    """The occupancy as the per-cell scalar build made it: one
    ``insort`` per standard cell into the first segment of its row that
    holds it, then one cursor walk per row.  Returns ``(entries,
    seg_of_cell, gaps)`` with ``gaps[j] = (gap_lo, gap_hi)`` lists."""
    entries = [[] for _ in segments]
    seg_of_cell = {}
    segs_by_row = {}
    for j, seg in enumerate(segments):
        segs_by_row.setdefault(seg.y_lo, []).append(j)
    x, y = netlist.x.tolist(), netlist.y.tolist()
    for i in np.flatnonzero(netlist.std_cell_mask).tolist():
        c = netlist.cells[i]
        x_lo, x_hi = x[i] - c.width / 2, x[i] + c.width / 2
        for j in segs_by_row.get(y[i] - c.height / 2, ()):
            seg = segments[j]
            if seg.x_lo - 1e-6 <= x_lo and x_hi <= seg.x_hi + 1e-6:
                insort(entries[j], (x_lo, i))
                seg_of_cell[i] = j
                break
    gaps = []
    for seg, row in zip(segments, entries):
        lo, hi, cursor = [], [], seg.x_lo
        for x_left, cell in row:
            lo.append(cursor)
            hi.append(x_left if x_left > cursor + 1e-9 else -np.inf)
            end = x_left + netlist.cells[cell].width
            if end > cursor:
                cursor = end
        lo.append(cursor)
        hi.append(seg.x_hi if cursor < seg.x_hi - 1e-9 else -np.inf)
        gaps.append((lo, hi))
    return entries, seg_of_cell, gaps


def assert_rows_match_rebuild(rows, netlist):
    """``rows`` — built in one array pass and spliced on every move —
    equals the scalar build of the current placement, and so does a
    fresh one-pass build."""
    entries, seg_of_cell, gaps = scalar_rows(netlist, rows.segments)
    assert rows.x == netlist.x.tolist() and rows.y == netlist.y.tolist()
    for built in (rows, _Rows(netlist, rows.segments)):
        assert built.entries == entries
        assert list(built.seg_of_cell.items()) == list(seg_of_cell.items())
        for j, row in enumerate(entries):
            n = len(row)
            lo, hi = gaps[j]
            for name, want, pad in (
                ("cells", [c for _x, c in row], -1),
                ("gap_lo", lo, None),
                ("gap_hi", hi, -np.inf),
            ):
                used = getattr(built, name)[j]
                assert used[: len(want)].tolist() == want, (name, j)
                if pad is not None:
                    assert (used[len(want):] == pad).all(), (name, j)


def small_instance(k: int):
    """Instance k of the sweep: flat, movebounds, or macros + blockage,
    with sizes and utilizations that vary with k."""
    cells = 60 + 7 * (k % 9)
    kind = k % 4
    spec = NetlistSpec(
        f"inv{k}",
        cells,
        utilization=0.35 + 0.05 * (k % 5),
        num_pads=4,
        num_macros=2 if kind == 3 else 0,
        blockage_fracs=((0.4, 0.4, 0.2, 0.2),) if kind == 3 else (),
    )
    nl, logical = generate_netlist(spec, seed=100 + k)
    bounds = dec = None
    if kind == 2:
        bounds = attach_movebounds(
            nl,
            logical,
            [
                MoveBoundSpec("a", 0.2, density=0.6),
                MoveBoundSpec("b", 0.15, density=0.6, shape="L"),
            ],
            seed=k,
        )
        dec = decompose_regions(nl.die, bounds, nl.blockages)
    rng = np.random.default_rng(k)
    nl.x[:cells] += rng.normal(0.0, 2.0, cells)
    nl.y[:cells] += rng.normal(0.0, 2.0, cells)
    nl.clamp_into_die()
    legalize_with_movebounds(nl, bounds, dec)
    density = 0.9 if kind == 1 else None
    return nl, bounds, dec, density


@pytest.mark.parametrize("k", range(20))
def test_every_pass_keeps_the_invariants(k, rows_made):
    nl, bounds, dec, density = small_instance(k)
    assert check_legality(nl, bounds).is_legal
    hpwl = nl.hpwl()
    for passes in (1, 2, 1):
        report = detailed_place(
            nl, bounds, dec, passes=passes, density_target=density
        )
        assert_rows_match_rebuild(rows_made[-1], nl)
        assert check_legality(nl, bounds).is_legal
        assert report.hpwl_before == hpwl
        assert report.hpwl_after == nl.hpwl()
        assert report.hpwl_after <= hpwl
        assert (report.moves + report.swaps > 0) or report.hpwl_after == hpwl
        hpwl = report.hpwl_after
    assert len(rows_made) == 3


def test_row_arrays_grow_when_a_segment_fills_up(rows_made):
    """Nine rows with one cell each, all pulled onto the middle row
    (``row_radius=0`` leaves no other destination): its entry count
    outgrows the initial padding."""
    nl = Netlist(Rect(0, 0, 40, 9), row_height=1.0, site_width=0.5)
    for r in range(9):
        nl.add_cell(f"c{r}", 2, 1, x=3.0 + 4 * (r % 2), y=r + 0.5)
    for r in range(9):
        nl.add_net(f"n{r}", [Pin(r), Pin.terminal(30.0, 4.5)])
    slots = _Rows(nl, build_segments(nl)).cells.shape[1]
    detailed_place(nl, passes=2, row_radius=0)
    rows = rows_made[0]
    assert max(map(len, rows.entries)) >= slots
    assert rows.cells.shape[1] > slots
    assert_rows_match_rebuild(rows, nl)
    assert check_legality(nl).is_legal


@pytest.mark.parametrize("k", range(8))
def test_random_splices_match_the_scalar_rebuild(k):
    """Relocations the sweep never makes — onto occupied spots, across
    rows, to either end of a segment, back and forth — each spliced
    into the rows, which must then equal the scalar rebuild: the early
    stop of the gap walk holds under overlaps too."""
    nl, _bounds, _dec, _density = small_instance(k)
    rows = _Rows(nl, build_segments(nl))
    rng = np.random.default_rng(k)
    cells = list(rows.seg_of_cell)
    for step in range(60):
        cell = cells[int(rng.integers(len(cells)))]
        j = int(rng.integers(len(rows.segments)))
        seg, half = rows.segments[j], rows.width[cell] / 2
        if seg.x_hi - seg.x_lo < 2 * half:
            continue
        others = rows.entries[j]
        if step % 3 == 0 and others:  # onto another cell's spot
            x_left = others[int(rng.integers(len(others)))][0]
            x = min(max(x_left + half, seg.x_lo + half), seg.x_hi - half)
        else:
            x = float(rng.choice([seg.x_lo + half, seg.x_hi - half,
                                  rng.uniform(seg.x_lo + half, seg.x_hi - half)]))
        rows.relocate(cell, j, x, seg.y_center)
        assert_rows_match_rebuild(rows, nl)


class TestMacrosAsObstacles:
    def _mixed(self):
        spec = NetlistSpec("mix", 120, utilization=0.4, num_pads=4, num_macros=3)
        nl, _ = generate_netlist(spec, seed=5)
        legalize_with_movebounds(nl)
        macros = [
            c.index for c in nl.cells
            if not c.fixed and c.height > nl.row_height + 1e-9
        ]
        assert macros
        return nl, macros

    def test_obstacles_equal_the_old_fixed_flag_trick(self):
        nl, macros = self._mixed()
        with_arg = build_segments(
            nl, obstacles=[nl.cell_rect(i) for i in macros]
        )
        assert with_arg != build_segments(nl)  # the macros cut rows
        nl.set_cells(macros, fixed=True)
        assert build_segments(nl) == with_arg

    def test_netlist_is_never_half_fixed(self, monkeypatch):
        nl, macros = self._mixed()
        dims = nl.cell_dims()
        seen = []

        def spying(netlist, *args, **kwargs):
            seen.append([netlist.cells[i].fixed for i in macros])
            assert netlist.cell_dims() is dims
            return build_segments(netlist, *args, **kwargs)

        monkeypatch.setattr(detailed, "build_segments", spying)
        detailed_place(nl, passes=1)
        assert seen == [[False] * len(macros)]
        assert nl.cell_dims() is dims

    def test_a_raise_inside_leaves_the_netlist_untouched(self, monkeypatch):
        nl, macros = self._mixed()
        dims = nl.cell_dims()

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(detailed, "build_segments", boom)
        with pytest.raises(RuntimeError):
            detailed_place(nl)
        assert not any(nl.cells[i].fixed for i in macros)
        assert nl.cell_dims() is dims


def test_abacus_assignment_never_holds_the_bound_matrix(monkeypatch):
    """The row assignment ranks the (cells x segments) bound matrix a
    row block at a time and keeps only each cell's candidate arcs: at
    every transportation solve less than half of one such matrix is
    alive, on more cells than one row block and at least 4x as many
    segments as candidates per cell."""
    from repro.legalize import abacus

    die = Rect(0.0, 0.0, 100.0, 40.0)
    nl = Netlist(die, row_height=1.0, site_width=0.25)
    rng = np.random.default_rng(0)
    n = abacus._ROW_BLOCK + 200
    nl.add_cells(
        [f"c{i}" for i in range(n)],
        rng.choice([1.0, 2.0], size=n),
        1.0,
        x=rng.uniform(1, 99, n),
        y=rng.uniform(0.5, 39.5, n),
    )
    for k in range(1, 5):
        nl.add_blockage(Rect(20.0 * k, 0.0, 20.0 * k + 0.5, 40.0))
    segs = build_segments(nl)
    radius = 24
    assert len(segs) >= 4 * radius
    matrix = n * len(segs) * 8
    alive = []
    solve = repro.flows.solve_transportation

    def measuring(*args, **kwargs):
        alive.append(tracemalloc.get_traced_memory()[0])
        return solve(*args, **kwargs)

    # a tie goes to the LP: HiGHS is imported before the trace starts
    assert solve(np.ones(2), np.ones(2), np.zeros((2, 2))).stats.method == "lp"
    monkeypatch.setattr(repro.flows, "solve_transportation", measuring)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        abacus_legalize(nl, list(range(n)), segs, row_search_radius=radius)
    finally:
        tracemalloc.stop()
    assert alive and max(alive) - base < matrix / 2
    assert check_legality(nl).is_legal


def unchunked_overlaps(netlist, max_pairs):
    """The overlap sweep over all candidate pairs at once: the
    reference arithmetic of ``check_legality``'s blocked sweep."""
    movable, hw, hh = netlist.cell_dims()
    xl, xh = netlist.x - hw, netlist.x + hw
    yl, yh = netlist.y - hh, netlist.y + hh
    order = np.argsort(xl, kind="stable")
    sxl, sxh, syl, syh = xl[order], xh[order], yl[order], yh[order]
    sfix = ~movable[order]
    n = len(order)
    starts = np.arange(n) + 1
    ends = np.maximum(
        np.searchsorted(sxl, sxh - checks.TOL, side="left"), starts
    )
    counts = ends - starts
    a = np.repeat(np.arange(n), counts)
    b = np.repeat(starts, counts) + (
        np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    )
    ow = np.minimum(sxh[a], sxh[b]) - np.maximum(sxl[a], sxl[b])
    oh = np.minimum(syh[a], syh[b]) - np.maximum(syl[a], syl[b])
    hit = (
        ~(sfix[a] & sfix[b])
        & (sxl[a] < sxh[b])
        & (sxl[b] < sxh[a])
        & (syl[a] < syh[b])
        & (syl[b] < syh[a])
        & (ow > 0)
        & (oh > 0)
        & (ow * oh > checks.TOL)
    )
    where = np.nonzero(hit)[0]
    pairs = [(int(order[a[i]]), int(order[b[i]])) for i in where[:max_pairs]]
    return len(where), pairs


@pytest.mark.parametrize("block", [1, 7, 1000, 1 << 17])
def test_overlap_sweep_is_the_same_in_any_block_size(block, monkeypatch):
    rng = np.random.default_rng(4)
    nl = Netlist(Rect(0, 0, 40, 12), row_height=1.0, site_width=0.5)
    for i in range(300):  # ~1.3x the die area, abutting and stacked cells
        nl.add_cell(
            f"c{i}",
            float(rng.choice([1.0, 2.0, 3.5])),
            1.0 if i % 20 else 3.0,
            x=float(rng.integers(2, 76)) / 2,
            y=float(rng.integers(1, 12)) - 0.5,
            fixed=i % 7 == 0,
        )
    monkeypatch.setattr(checks, "_SWEEP_BLOCK", block)
    for max_pairs in (0, 5, 50, 10**6):
        want = unchunked_overlaps(nl, max_pairs)
        report = check_legality(nl, max_overlap_pairs=max_pairs)
        assert (report.overlaps, report.overlap_pairs) == want
        assert report.overlaps > 300


def test_program_tracer_sees_the_layer():
    nl, bounds, dec, _density = small_instance(2)
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        report = detailed_place(nl, bounds, dec, passes=2)
        check_legality(nl, bounds)
    finally:
        set_tracer(previous)
    spans = tracer.spans_by_path()
    assert spans["legalize.detailed"].count == 1
    assert spans["legalize.check"].count == 1
    assert tracer.counter("detailed.moves") == report.moves
    assert tracer.counter("detailed.swaps") == report.swaps
    assert tracer.counter("detailed.candidates") >= report.moves
    assert tracer.counter("detailed.gap_rebuilds") >= report.moves
