"""Tests for density maps, ISPD2006 scoring and tables."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.metrics import (
    DensityMap,
    Table,
    cpu_factor,
    density_penalty,
    format_hms,
    ispd2006_score,
)
from repro.metrics.tables import format_ratio
from repro.netlist import Netlist

DIE = Rect(0, 0, 10, 10)


def _netlist(cells):
    nl = Netlist(DIE)
    for i, (x, y, w, h) in enumerate(cells):
        nl.add_cell(f"c{i}", w, h, x=x, y=y)
    return nl


class TestDensityMap:
    def test_usage_equals_cell_area(self):
        nl = _netlist([(5, 5, 2, 2), (2, 2, 1, 1)])
        dmap = DensityMap(nl, 5, 5)
        assert dmap.usage.sum() == pytest.approx(5.0)

    def test_exact_splatting_across_bins(self):
        nl = _netlist([(2, 2, 4, 4)])  # spans bins [0,2)x[0,2) evenly
        dmap = DensityMap(nl, 5, 5)  # bins 2x2
        assert dmap.usage[0, 0] == pytest.approx(4.0)
        assert dmap.usage[1, 1] == pytest.approx(4.0)
        assert dmap.usage[0, 1] == pytest.approx(4.0)

    def test_capacity_excludes_blockage(self):
        nl = _netlist([(5, 5, 1, 1)])
        nl.blockages = nl.blockages.union(
            type(nl.blockages)([Rect(0, 0, 2, 2)])
        )
        dmap = DensityMap(nl, 5, 5)
        assert dmap.capacity[0, 0] == pytest.approx(0.0)
        assert dmap.capacity.sum() == pytest.approx(96.0)

    def test_fixed_cell_excluded_from_usage(self):
        nl = Netlist(DIE)
        nl.add_cell("f", 2, 2, x=5, y=5, fixed=True)
        dmap = DensityMap(nl, 5, 5)
        assert dmap.usage.sum() == pytest.approx(0.0)
        assert dmap.capacity.sum() == pytest.approx(96.0)

    def test_overflow(self):
        nl = _netlist([(1, 1, 2, 2)])  # 4 area in a 4-area bin
        dmap = DensityMap(nl, 5, 5)
        assert dmap.total_overflow(1.0) == pytest.approx(0.0)
        assert dmap.total_overflow(0.5) == pytest.approx(2.0)
        assert dmap.overflow_ratio(0.5) == pytest.approx(0.5)

    def test_utilization_and_max(self):
        nl = _netlist([(1, 1, 2, 2)])
        dmap = DensityMap(nl, 5, 5)
        assert dmap.max_utilization() == pytest.approx(1.0)

    def test_update_tracks_movement(self):
        nl = _netlist([(1, 1, 2, 2)])
        dmap = DensityMap(nl, 5, 5)
        nl.x[0], nl.y[0] = 9, 9
        dmap.update()
        assert dmap.usage[4, 4] == pytest.approx(4.0)
        assert dmap.usage[0, 0] == pytest.approx(0.0)

    def test_bin_lookup(self):
        nl = _netlist([(5, 5, 1, 1)])
        dmap = DensityMap(nl, 5, 5)
        assert dmap.bin_of(0.1, 9.9) == (0, 4)
        cx, cy = dmap.bin_center(0, 0)
        assert (cx, cy) == (1.0, 1.0)


class TestISPD2006:
    def test_density_penalty_zero_when_spread(self):
        cells = [(x + 0.5, y + 0.5, 0.5, 0.5)
                 for x in range(10) for y in range(10)]
        nl = _netlist(cells)
        assert density_penalty(nl, 0.5, bins=5) == pytest.approx(0.0)

    def test_density_penalty_positive_when_clumped(self):
        cells = [(1 + 0.2 * i, 1, 1, 1) for i in range(20)]
        nl = _netlist(cells)
        assert density_penalty(nl, 0.5, bins=5) > 0

    def test_cpu_factor_bonus(self):
        assert cpu_factor(1.0, 4.0) == pytest.approx(-0.08)

    def test_cpu_factor_truncated(self):
        # paper: bonus truncated at -10%
        assert cpu_factor(1.0, 100.0) == pytest.approx(-0.10)

    def test_cpu_factor_penalty_untruncated(self):
        assert cpu_factor(8.0, 1.0) == pytest.approx(0.12)

    def test_cpu_factor_degenerate(self):
        assert cpu_factor(0.0, 1.0) == 0.0

    def test_score_composition(self):
        nl = _netlist([(2, 2, 1, 1), (8, 8, 1, 1)])
        from repro.netlist import Pin

        nl.add_net("n", [Pin(0), Pin(1)])
        score = ispd2006_score(nl, 0.9, runtime=2.0, reference_runtime=2.0)
        assert score.hpwl == pytest.approx(12.0)
        assert score.cpu == pytest.approx(0.0)
        assert score.scaled_hd == pytest.approx(12.0 * (1 + score.dens))
        assert score.scaled_hdc == pytest.approx(score.scaled_hd)


class TestTables:
    def test_format_hms(self):
        assert format_hms(0) == "0:00:00"
        assert format_hms(3725) == "1:02:05"
        assert format_hms(59.6) == "0:01:00"

    def test_format_ratio(self):
        assert format_ratio(83.2, 100.0) == "83.2%"
        assert format_ratio(1, 0) == "n/a"

    def test_table_render(self):
        t = Table(["Chip", "HPWL"], title="Demo")
        t.add_row("Dagmar", "0.95")
        out = t.render()
        assert "Demo" in out and "Dagmar" in out
        lines = out.splitlines()
        assert len(lines) == 4  # title, header, rule, row

    def test_table_arity_checked(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row("only-one")
