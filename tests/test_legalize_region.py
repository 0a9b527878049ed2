"""Tests for Tetris, the region-aware legalizer and legality checks."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.legalize import (
    build_segments,
    check_legality,
    legalize_with_movebounds,
    tetris_legalize,
)
from repro.movebounds import EXCLUSIVE, MoveBoundSet, decompose_regions
from repro.netlist import Netlist
from tests.conftest import build_random_netlist

DIE = Rect(0, 0, 100, 100)


class TestTetris:
    def test_legalizes_random(self):
        nl = build_random_netlist(150, 0, seed=0)
        segs = build_segments(nl)
        moved = tetris_legalize(nl, [c.index for c in nl.cells], segs)
        rep = check_legality(nl)
        assert rep.overlaps == 0 and rep.off_row == 0
        assert moved > 0

    def test_no_room_raises(self):
        nl = Netlist(Rect(0, 0, 4, 1), row_height=1.0, site_width=0.5)
        for i in range(4):
            nl.add_cell(f"c{i}", 2, 1, x=2, y=0.5)
        segs = build_segments(nl)
        with pytest.raises(ValueError):
            tetris_legalize(nl, [0, 1, 2, 3], segs)


class TestRegionLegalizer:
    def test_no_bounds(self):
        nl = build_random_netlist(120, 0, seed=1)
        report = legalize_with_movebounds(nl)
        assert check_legality(nl).is_legal
        assert report.region_runs >= 1

    def test_inclusive_bound_respected(self):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("m", [Rect(50, 50, 100, 100)])

        def mb_of(i):
            return "m" if i < 40 else None

        nl = build_random_netlist(160, 0, seed=2, movebound_of=mb_of)
        # push bound cells inside their area first (global placement
        # would have done this)
        for c in nl.cells:
            if c.movebound == "m":
                nl.x[c.index] = np.clip(nl.x[c.index], 52, 98)
                nl.y[c.index] = np.clip(nl.y[c.index], 52, 98)
        dec = decompose_regions(DIE, mbs, nl.blockages)
        legalize_with_movebounds(nl, mbs, dec)
        rep = check_legality(nl, mbs)
        assert rep.is_legal

    def test_exclusive_bound_keeps_others_out(self):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("x", [Rect(0, 0, 30, 30)], EXCLUSIVE)

        def mb_of(i):
            return "x" if i < 20 else None

        nl = build_random_netlist(140, 0, seed=3, movebound_of=mb_of)
        for c in nl.cells:
            if c.movebound == "x":
                nl.x[c.index] = np.clip(nl.x[c.index], 2, 28)
                nl.y[c.index] = np.clip(nl.y[c.index], 2, 28)
        mbs.normalize()
        dec = decompose_regions(DIE, mbs, nl.blockages)
        legalize_with_movebounds(nl, mbs, dec)
        rep = check_legality(nl, mbs)
        assert rep.movebound_violations == 0
        assert rep.overlaps == 0

    def test_shared_region_simultaneous(self):
        """Cells of two overlapping inclusive bounds end up legalized
        together in the shared region — the §III point."""
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("a", [Rect(0, 0, 40, 40)])
        mbs.add_rects("b", [Rect(20, 20, 60, 60)])

        def mb_of(i):
            if i < 15:
                return "a"
            if i < 30:
                return "b"
            return None

        nl = build_random_netlist(120, 0, seed=4, movebound_of=mb_of)
        for c in nl.cells:
            if c.movebound == "a":
                nl.x[c.index] = np.clip(nl.x[c.index], 2, 38)
                nl.y[c.index] = np.clip(nl.y[c.index], 2, 38)
            elif c.movebound == "b":
                nl.x[c.index] = np.clip(nl.x[c.index], 22, 58)
                nl.y[c.index] = np.clip(nl.y[c.index], 22, 58)
        dec = decompose_regions(DIE, mbs, nl.blockages)
        legalize_with_movebounds(nl, mbs, dec)
        assert check_legality(nl, mbs).is_legal

    def test_macros_legalized_first(self):
        nl = build_random_netlist(80, 0, seed=5)
        nl.add_cell("macro1", 8, 6, x=50, y=50)
        nl.add_cell("macro2", 8, 6, x=52, y=52)  # overlapping macros
        report = legalize_with_movebounds(nl)
        assert report.macro_count == 2
        rep = check_legality(nl)
        assert rep.overlaps == 0
        # macros restored to movable
        assert not nl.cells[-1].fixed and not nl.cells[-2].fixed


class TestLegalityChecks:
    def test_clean_placement_legal(self):
        nl = Netlist(DIE, row_height=1.0, site_width=0.5)
        nl.add_cell("a", 2, 1, x=1, y=0.5)
        nl.add_cell("b", 2, 1, x=3.5, y=0.5)
        assert check_legality(nl).is_legal

    def test_overlap_detected(self):
        nl = Netlist(DIE, row_height=1.0)
        nl.add_cell("a", 2, 1, x=1, y=0.5)
        nl.add_cell("b", 2, 1, x=2, y=0.5)
        rep = check_legality(nl)
        assert rep.overlaps == 1
        assert rep.overlap_pairs == [(0, 1)]

    def test_abutting_not_overlap(self):
        nl = Netlist(DIE, row_height=1.0)
        nl.add_cell("a", 2, 1, x=1, y=0.5)
        nl.add_cell("b", 2, 1, x=3, y=0.5)
        assert check_legality(nl).overlaps == 0

    def test_off_row_detected(self):
        nl = Netlist(DIE, row_height=1.0)
        nl.add_cell("a", 2, 1, x=1, y=0.7)
        assert check_legality(nl).off_row == 1

    def test_out_of_die_detected(self):
        nl = Netlist(DIE, row_height=1.0)
        nl.add_cell("a", 2, 1, x=0.5, y=0.5)  # pokes left
        assert check_legality(nl).out_of_die == 1

    def test_on_blockage_detected(self):
        nl = Netlist(DIE, row_height=1.0)
        nl.add_blockage(Rect(0, 0, 10, 10))
        nl.add_cell("a", 2, 1, x=5, y=5.5)
        assert check_legality(nl).on_blockage == 1

    def test_fixed_pair_ignored(self):
        nl = Netlist(DIE, row_height=1.0)
        nl.add_cell("a", 2, 1, x=1, y=0.5, fixed=True)
        nl.add_cell("b", 2, 1, x=1.5, y=0.5, fixed=True)
        assert check_legality(nl).overlaps == 0

    def test_summary_strings(self):
        nl = Netlist(DIE, row_height=1.0)
        nl.add_cell("a", 2, 1, x=1, y=0.5)
        assert check_legality(nl).summary() == "legal"
        nl.y[0] = 0.7
        assert "off_row=1" in check_legality(nl).summary()
