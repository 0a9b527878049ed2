"""Tests for row segment construction."""

import pytest

from repro.geometry import Rect
from repro.legalize import build_segments
from repro.legalize.rows import (
    max_std_cell_width,
    total_segment_capacity,
    usable_row_capacity,
)
from repro.netlist import Netlist

DIE = Rect(0, 0, 20, 10)


def _netlist():
    return Netlist(DIE, row_height=1.0, site_width=0.5)


class TestSegments:
    def test_full_die(self):
        nl = _netlist()
        segs = build_segments(nl)
        assert len(segs) == 10  # one per row
        assert total_segment_capacity(segs) == pytest.approx(200)

    def test_rows_aligned_to_grid(self):
        nl = _netlist()
        for s in build_segments(nl, [Rect(0, 2.3, 20, 7.8)]):
            k = (s.y_lo - DIE.y_lo) / nl.row_height
            assert k == int(k)
            # only fully contained rows
            assert s.y_lo >= 2.3 and s.y_lo + 1.0 <= 7.8

    def test_blockage_splits_rows(self):
        nl = _netlist()
        nl.add_blockage(Rect(8, 0, 12, 10))
        segs = build_segments(nl)
        assert len(segs) == 20  # each row split in two
        assert total_segment_capacity(segs) == pytest.approx(160)

    def test_fixed_cells_are_obstacles(self):
        nl = _netlist()
        nl.add_cell("macro", 4, 10, x=10, y=5, fixed=True)
        segs = build_segments(nl)
        assert total_segment_capacity(segs) == pytest.approx(160)

    def test_min_width_filter(self):
        nl = _netlist()
        nl.add_blockage(Rect(0.6, 0, 20, 10))  # leaves 0.6-wide strips
        segs = build_segments(nl, min_width=1.0)
        assert segs == []

    def test_site_snapping(self):
        nl = _netlist()
        segs = build_segments(nl, [Rect(0.3, 0, 19.6, 10)])
        for s in segs:
            assert ((s.x_lo - DIE.x_lo) / 0.5) % 1 == pytest.approx(0)
            assert ((s.x_hi - DIE.x_lo) / 0.5) % 1 == pytest.approx(0)

    def test_segment_properties(self):
        nl = _netlist()
        seg = build_segments(nl)[0]
        assert seg.y_center == pytest.approx(seg.y_lo + 0.5)
        assert seg.rect().area == pytest.approx(seg.width)


class TestCapacityModel:
    def test_max_std_cell_width(self):
        nl = _netlist()
        nl.add_cell("a", 3, 1)
        nl.add_cell("b", 1, 1)
        nl.add_cell("macro", 8, 4)  # taller than a row: excluded
        assert max_std_cell_width(nl) == 3

    def test_usable_discounts_per_segment(self):
        nl = _netlist()
        segs = build_segments(nl)  # 10 segments, 20 wide each
        usable = usable_row_capacity(segs, w_max=3.0)
        assert usable == pytest.approx(10 * (20 - 1.5))

    def test_slivers_contribute_nothing(self):
        nl = _netlist()
        nl.add_blockage(Rect(1.0, 0, 20, 10))
        segs = build_segments(nl)  # 1-wide slivers
        assert usable_row_capacity(segs, w_max=3.0) == 0.0
