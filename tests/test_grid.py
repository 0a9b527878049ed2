"""Tests for Grid/Window/WindowRegion and coarse blocks."""

import functools

import numpy as np
import pytest

from repro.fbp.model import fixed_cell_usage
from repro.geometry import Rect, RectSet
from repro.grid import Grid
from repro.movebounds import (
    DEFAULT_BOUND,
    MoveBoundSet,
    decompose_regions,
)
from repro.netlist import Netlist
from repro.workloads import NetlistSpec, generate_netlist
from repro.workloads.movebound_gen import MoveBoundSpec, attach_movebounds

DIE = Rect(0, 0, 100, 100)


@pytest.fixture
def grid4():
    return Grid(DIE, 4, 4)


class TestIndexing:
    def test_window_count(self, grid4):
        assert len(grid4) == 16

    def test_window_rects_tile(self, grid4):
        assert sum(w.rect.area for w in grid4) == pytest.approx(DIE.area)

    def test_window_at(self, grid4):
        w = grid4.window_at(10, 10)
        assert (w.ix, w.iy) == (0, 0)
        w = grid4.window_at(99, 99)
        assert (w.ix, w.iy) == (3, 3)

    def test_window_at_clamps(self, grid4):
        assert grid4.window_at(-5, 200).index == grid4.window(0, 3).index

    def test_out_of_range(self, grid4):
        with pytest.raises(IndexError):
            grid4.window(4, 0)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Grid(DIE, 0, 4)

    def test_neighbors_interior(self, grid4):
        w = grid4.window(1, 1)
        dirs = {d for d, _n in grid4.neighbors(w)}
        assert dirs == {"N", "E", "S", "W"}

    def test_neighbors_corner(self, grid4):
        w = grid4.window(0, 0)
        dirs = {d for d, _n in grid4.neighbors(w)}
        assert dirs == {"N", "E"}

    def test_boundary_center(self, grid4):
        w = grid4.window(0, 0)
        assert w.boundary_center("N") == (12.5, 25.0)
        assert w.boundary_center("E") == (25.0, 12.5)
        with pytest.raises(ValueError):
            w.boundary_center("Q")


class TestRegions:
    def test_build_regions_no_bounds(self, grid4):
        dec = decompose_regions(DIE, MoveBoundSet(DIE))
        grid4.build_regions(dec)
        for w in grid4:
            assert len(w.regions) == 1
            assert w.regions[0].area.area == pytest.approx(625)
            assert w.capacity(0.5) == pytest.approx(312.5)

    def test_build_regions_clips(self, grid4):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("m", [Rect(10, 10, 40, 40)])  # spans 4 windows
        dec = decompose_regions(DIE, mbs)
        grid4.build_regions(dec)
        total_m = 0.0
        for w in grid4:
            for wr in w.regions:
                if wr.admits("m"):
                    total_m += wr.area.area
        assert total_m == pytest.approx(900)

    def test_region_free_area_respects_blockage(self, grid4):
        nl = Netlist(DIE)
        nl.add_blockage(Rect(0, 0, 10, 10))
        dec = decompose_regions(DIE, MoveBoundSet(DIE), nl.blockages)
        grid4.build_regions(dec)
        w00 = grid4.window(0, 0)
        assert w00.regions[0].free_area.area == pytest.approx(625 - 100)

    def test_window_region_centroid_inside_window(self, grid4):
        dec = decompose_regions(DIE, MoveBoundSet(DIE))
        grid4.build_regions(dec)
        for w in grid4:
            for wr in w.regions:
                cx, cy = wr.centroid()
                assert w.rect.contains_point(cx, cy)


GRID_SIZES = (1, 2, 3, 5, 8, 16)


@functools.lru_cache(maxsize=None)
def _clip_instance(seed):
    """A seeded netlist with two blockages, fixed macros straddling
    window lines and blockage edges, and overlapping, nested and
    L-shaped movebounds; returns it with its region decomposition."""
    spec = NetlistSpec(
        "clipprop", 400, utilization=0.45, num_pads=8,
        blockage_fracs=((0.12, 0.55, 0.2, 0.13), (0.6, 0.08, 0.09, 0.31)),
    )
    nl, logical = generate_netlist(spec, seed=seed)
    mb_specs = [
        MoveBoundSpec("m0", 0.08, shape="rect"),
        MoveBoundSpec("m1", 0.03, nested_in="m0"),
        MoveBoundSpec("m2", 0.05, overlaps="m0"),
        MoveBoundSpec("m3", 0.06, shape="L"),
    ]
    bounds = attach_movebounds(nl, logical, mb_specs, seed=seed + 5)
    rng = np.random.default_rng(seed)
    die = nl.die
    for k in range(6):
        w, h = rng.uniform(0.05, 0.2, 2) * (die.width, die.height)
        nl.add_cell(
            f"macro{k}", w, h,
            x=rng.uniform(die.x_lo + w / 2, die.x_hi - w / 2),
            y=rng.uniform(die.y_lo + h / 2, die.y_hi - h / 2),
            fixed=True,
        )
    return nl, decompose_regions(die, bounds, nl.blockages)


def _rects_area(rects):
    return sum(r.area for r in rects)


class TestClippingProperties:
    """``Grid.build_regions`` on seeded movebound instances, checked
    against window bounds and region areas computed here."""

    @pytest.mark.parametrize(
        "nx,ny",
        [(n, n) for n in GRID_SIZES] + list(zip(GRID_SIZES, GRID_SIZES[::-1])),
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_pieces_partition_every_region(self, seed, nx, ny):
        nl, dec = _clip_instance(seed)
        die = nl.die
        grid = Grid(die, nx, ny)
        grid.build_regions(dec)
        tol = 1e-9 * max(die.width, die.height)

        area = {r.index: 0.0 for r in dec}
        free = {r.index: 0.0 for r in dec}
        for w in grid:
            ix, iy = w.index % nx, w.index // nx
            x0 = die.x_lo + die.width * ix / nx
            x1 = die.x_hi if ix == nx - 1 else die.x_lo + die.width * (ix + 1) / nx
            y0 = die.y_lo + die.height * iy / ny
            y1 = die.y_hi if iy == ny - 1 else die.y_lo + die.height * (iy + 1) / ny
            for wr in w.regions:
                region = wr.region
                assert wr.window_index == w.index
                for pieces, within in (
                    (wr.area, region.area),
                    (wr.free_area, region.free_area),
                ):
                    rects = list(pieces)
                    for r in rects:
                        assert x0 - tol <= r.x_lo and r.x_hi <= x1 + tol
                        assert y0 - tol <= r.y_lo and r.y_hi <= y1 + tol
                        assert within.intersection_area(r) == pytest.approx(
                            r.area, rel=1e-12
                        )
                    for i, a in enumerate(rects):
                        for b in rects[i + 1:]:
                            assert a.intersection_area(b) <= tol * tol
                area[region.index] += _rects_area(wr.area)
                free[region.index] += _rects_area(wr.free_area)
        for region in dec:
            assert area[region.index] == pytest.approx(
                _rects_area(region.area), rel=1e-12
            )
            assert free[region.index] == pytest.approx(
                _rects_area(region.free_area), rel=1e-12
            )

    @pytest.mark.parametrize("nx,ny", [(4, 4), (16, 16), (5, 3)])
    @pytest.mark.parametrize("seed", range(3))
    def test_window_subset_is_the_full_build_there(self, seed, nx, ny):
        """``build_regions(windows=S)``: every window of S holds the
        full build's pieces in the same order, every other window none
        (a previous full build's R_w included)."""
        nl, dec = _clip_instance(seed)
        full = Grid(nl.die, nx, ny)
        full.build_regions(dec)

        def pieces(w):
            return [
                (wr.window_index, wr.region.index,
                 [r.as_tuple() for r in wr.area],
                 [r.as_tuple() for r in wr.free_area])
                for wr in w.regions
            ]

        rng = np.random.default_rng(seed)
        blocks = [  # the scoped refine's shape: whole 2x2 blocks
            (iy + dy) * nx + ix + dx
            for ix, iy in ((0, 0), (nx - 2, ny - 2))
            for dy in (0, 1) for dx in (0, 1)
        ]
        for subset in (
            [],
            [int(rng.integers(len(full)))],
            rng.choice(len(full), size=len(full) // 2, replace=False).tolist(),
            blocks,
            list(range(len(full))),
        ):
            part = Grid(nl.die, nx, ny)
            part.build_regions(dec)
            part.build_regions(dec, windows=subset)
            assert any(w.regions for w in full)
            for w, want in zip(part, full):
                assert pieces(w) == (pieces(want) if w.index in subset else [])

    @pytest.mark.parametrize("seed", range(3))
    def test_disjoint_constructor_is_the_normal_form(self, seed):
        """``RectSet._from_disjoint`` skips the disjointify pass; on the
        pieces of every subtract, intersect and clip the operations and
        the decomposition produce, it must give ``RectSet(...)``'s
        rectangles exactly."""
        nl, dec = _clip_instance(seed)
        piece_lists = []
        for region in dec:
            for blockage in nl.blockages:
                piece_lists.append(
                    [p for r in region.area for p in r.subtract(blockage)]
                )
            for bound in dec.bounds.all_bounds():
                piece_lists.append(
                    [
                        r.intersection(s)
                        for r in region.area
                        for s in bound.area
                        if r.overlaps(s)
                    ]
                )
        for n in GRID_SIZES:
            for pieces in Grid(nl.die, n, n)._scan_pieces(dec):
                piece_lists.extend(pieces.values())
        assert sum(len(p) > 1 for p in piece_lists) > 100
        for pieces in piece_lists:
            assert (
                RectSet._from_disjoint(pieces).rects == RectSet(pieces).rects
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_decomposition_equals_full_normalization(self, seed, monkeypatch):
        nl, dec = _clip_instance(seed)

        def regions(decomposition):
            return [
                (r.index, r.signature, r.area.rects, r.free_area.rects)
                for r in decomposition
            ]

        got = regions(decompose_regions(nl.die, dec.bounds, nl.blockages))
        monkeypatch.setattr(
            RectSet, "_from_disjoint", classmethod(lambda cls, rects: cls(rects))
        )
        want = regions(decompose_regions(nl.die, dec.bounds, nl.blockages))
        assert got == want == regions(dec)

    @pytest.mark.parametrize("n", GRID_SIZES)
    @pytest.mark.parametrize("seed", range(3))
    def test_fixed_cell_usage_sums_to_free_overlap(self, seed, n):
        nl, dec = _clip_instance(seed)
        grid = Grid(nl.die, n, n)
        grid.build_regions(dec)
        free = RectSet([nl.die]).subtract(nl.blockages)
        want = sum(
            free.intersection_area(nl.cell_rect(c.index))
            for c in nl.cells
            if c.fixed
        )
        assert want > 0
        got = sum(fixed_cell_usage(nl, grid).values())
        assert got == pytest.approx(want, rel=1e-12)


class TestCells:
    def test_assign_cells(self, grid4):
        nl = Netlist(DIE)
        nl.add_cell("a", 1, 1, x=10, y=10)
        nl.add_cell("b", 1, 1, x=90, y=90)
        assign = grid4.assign_cells(nl)
        assert assign[0] == grid4.window(0, 0).index
        assert assign[1] == grid4.window(3, 3).index


class TestCoarseBlocks:
    def test_horizontal_block_3x2(self, grid4):
        v, w = grid4.window(1, 1), grid4.window(2, 1)
        block = grid4.coarse_block(v, w)
        assert len(block) == 6
        ixs = {b.ix for b in block}
        iys = {b.iy for b in block}
        assert len(ixs) == 3 and len(iys) == 2
        assert {v.index, w.index} <= {b.index for b in block}

    def test_vertical_block_2x3(self, grid4):
        v, w = grid4.window(1, 1), grid4.window(1, 2)
        block = grid4.coarse_block(v, w)
        ixs = {b.ix for b in block}
        iys = {b.iy for b in block}
        assert len(ixs) == 2 and len(iys) == 3

    def test_clamped_at_border(self, grid4):
        v, w = grid4.window(0, 0), grid4.window(1, 0)
        block = grid4.coarse_block(v, w)
        assert all(0 <= b.ix < 4 and 0 <= b.iy < 4 for b in block)
        assert {v.index, w.index} <= {b.index for b in block}

    def test_non_adjacent_rejected(self, grid4):
        with pytest.raises(ValueError):
            grid4.coarse_block(grid4.window(0, 0), grid4.window(2, 0))

    def test_block_rect(self, grid4):
        v, w = grid4.window(0, 0), grid4.window(1, 0)
        block = grid4.coarse_block(v, w)
        rect = grid4.block_rect(block)
        assert rect.area == pytest.approx(len(block) * 625)

    def test_tiny_grid_block(self):
        g = Grid(DIE, 2, 1)
        block = g.coarse_block(g.window(0, 0), g.window(1, 0))
        assert len(block) == 2  # clamped to the whole grid
