"""Invariants of the array-based legalizer.

The identity test pins *what* the legalizer decides; this file checks
that its internal state can be trusted while it decides: the cached
per-segment arrays always equal a from-scratch rebuild, every pass
leaves a legal placement with non-increasing HPWL, macros become
obstacles without the netlist being mutated, the Abacus bound matrix is
not alive twice during the solve, the legality audit's overlap sweep
reports the same whatever its block size, and the program's own tracer
sees the layer.
"""

from __future__ import annotations

import tracemalloc

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


def assert_rows_match_rebuild(rows, netlist):
    fresh = _Rows(netlist, rows.segments)
    assert rows.x == netlist.x.tolist() and rows.y == netlist.y.tolist()
    assert rows.entries == fresh.entries
    assert list(rows.seg_of_cell.items()) == list(fresh.seg_of_cell.items())
    for j, entries in enumerate(rows.entries):
        n = len(entries)
        for name, pad in (("cells", -1), ("gap_lo", None), ("gap_hi", -np.inf)):
            used, want = getattr(rows, name)[j], getattr(fresh, name)[j]
            live = n if name == "cells" else n + 1
            assert used[:live].tolist() == want[:live].tolist(), (name, j)
            if pad is not None:
                assert (used[live:] == pad).all(), (name, j)


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
    nl.finalize()
    for r in range(9):
        nl.add_net(f"n{r}", [Pin(r), Pin.terminal(30.0, 4.5)])
    slots = _Rows(nl, build_segments(nl)).cells.shape[1]
    detailed_place(nl, passes=2, row_radius=0)
    rows = rows_made[0]
    assert max(map(len, rows.entries)) >= slots
    assert rows.cells.shape[1] > slots
    assert_rows_match_rebuild(rows, nl)
    assert check_legality(nl).is_legal


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
        for i in macros:
            nl.cells[i].fixed = True
        assert build_segments(nl) == with_arg

    def test_netlist_is_never_half_fixed(self, monkeypatch):
        nl, macros = self._mixed()
        nl._dim_arrays()
        dims = nl._dim_cache
        seen = []

        def spying(netlist, *args, **kwargs):
            seen.append([netlist.cells[i].fixed for i in macros])
            assert netlist._dim_cache is dims
            return build_segments(netlist, *args, **kwargs)

        monkeypatch.setattr(detailed, "build_segments", spying)
        detailed_place(nl, passes=1)
        assert seen == [[False] * len(macros)]
        assert nl._dim_cache is dims

    def test_a_raise_inside_leaves_the_netlist_untouched(self, monkeypatch):
        nl, macros = self._mixed()
        nl._dim_arrays()
        dims = nl._dim_cache

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(detailed, "build_segments", boom)
        with pytest.raises(RuntimeError):
            detailed_place(nl)
        assert not any(nl.cells[i].fixed for i in macros)
        assert nl._dim_cache is dims


def test_abacus_holds_one_bound_matrix_during_the_solve(monkeypatch):
    """The (cells x segments) bound matrix becomes the cost matrix in
    place; the ranking temporaries are gone before the transportation
    solve starts."""
    die = Rect(0.0, 0.0, 50.0, 40.0)
    nl = Netlist(die, row_height=1.0, site_width=0.25)
    rng = np.random.default_rng(0)
    n = 400
    nl.add_cells(
        [f"c{i}" for i in range(n)],
        rng.choice([1.0, 2.0], size=n),
        1.0,
        x=rng.uniform(1, 49, n),
        y=rng.uniform(0.5, 39.5, n),
    )
    nl.finalize()
    for k in range(1, 5):
        nl.add_blockage(Rect(10.0 * k, 0.0, 10.0 * k + 0.5, 40.0))
    segs = build_segments(nl)
    matrix = n * len(segs) * 8
    alive = []
    solve = repro.flows.solve_transportation

    def measuring(*args, **kwargs):
        alive.append(tracemalloc.get_traced_memory()[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(repro.flows, "solve_transportation", measuring)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        abacus_legalize(nl, list(range(n)), segs)
    finally:
        tracemalloc.stop()
    assert alive and max(alive) - base < 1.25 * matrix
    assert check_legality(nl).is_legal


def unchunked_overlaps(netlist, max_pairs):
    """The overlap sweep over all candidate pairs at once: the
    reference arithmetic of ``check_legality``'s blocked sweep."""
    movable, hw, hh = netlist._dim_arrays()
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
    nl.finalize()
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
