"""Tests for the Netlist container, HPWL and placement state."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.netlist import Netlist, Pin


@pytest.fixture
def nl():
    n = Netlist(Rect(0, 0, 10, 10), row_height=1.0, site_width=0.5)
    n.add_cell("a", 2, 1, x=1, y=1)
    n.add_cell("b", 2, 1, x=9, y=9)
    n.add_cell("pad", 1, 1, x=0.5, y=0.5, fixed=True)
    return n


class TestConstruction:
    def test_duplicate_name_rejected(self, nl):
        with pytest.raises(ValueError):
            nl.add_cell("a", 1, 1)

    def test_nonpositive_dims_rejected(self, nl):
        with pytest.raises(ValueError):
            nl.add_cell("z", 0, 1)

    @pytest.mark.parametrize("widths, heights, first", [
        ([np.nan, 1.0], 1.0, "y"),
        ([1.0, np.inf], 1.0, "z"),
        (1.0, [1.0, -np.inf], "z"),
        ([np.inf, np.nan], 1.0, "y"),
    ])
    def test_non_finite_dims_rejected(self, nl, widths, heights, first):
        with pytest.raises(
            ValueError, match=f"cell '{first}' must have positive dimensions"
        ):
            nl.add_cells(["y", "z"], widths, heights)
        assert nl.num_cells == 3  # a rejected batch adds nothing

    def test_net_bad_cell_index(self, nl):
        with pytest.raises(ValueError):
            nl.add_net("bad", [Pin(99)])

    def test_cell_index_lookup(self, nl):
        assert nl.cell_index("b") == 1

    def test_default_position_is_die_center(self):
        n = Netlist(Rect(0, 0, 10, 20))
        c = n.add_cell("c", 1, 1)
        assert (n.x[c.index], n.y[c.index]) == (5, 10)

    def test_movable_and_fixed(self, nl):
        assert list(nl.movable_indices) == [0, 1]
        assert nl.fixed_mask.tolist() == [False, False, True]
        assert nl.movable_area() == 4.0


class TestGeometry:
    def test_cell_rect_centered(self, nl):
        r = nl.cell_rect(0)
        assert (r.x_lo, r.y_lo, r.x_hi, r.y_hi) == (0, 0.5, 2, 1.5)

    def test_pin_position_on_cell(self, nl):
        nl.add_net("n", [Pin(0, 0.5, -0.25)])
        assert nl.pin_position(nl.nets[-1].pins[0]) == (1.5, 0.75)

    def test_pin_position_terminal(self, nl):
        pin = Pin.terminal(3, 4)
        assert nl.pin_position(pin) == (3, 4)


class TestHPWL:
    def test_two_pin(self, nl):
        nl.add_net("n", [Pin(0), Pin(1)])
        assert nl.hpwl() == pytest.approx(16.0)  # |9-1| + |9-1|

    def test_weighted(self, nl):
        nl.add_net("n", [Pin(0), Pin(1)], weight=2.5)
        assert nl.hpwl() == pytest.approx(40.0)

    def test_degree_one_ignored(self, nl):
        nl.add_net("n1", [Pin(0)])
        assert nl.hpwl() == 0.0

    def test_with_offsets_and_terminal(self, nl):
        nl.add_net(
            "n", [Pin(0, 1.0, 0.0), Pin.terminal(5, 1)]
        )  # pin at (2,1)
        assert nl.hpwl() == pytest.approx(3.0)

    def test_matches_bbox_loop(self, nl):
        rng = np.random.default_rng(0)
        for j in range(20):
            k = int(rng.integers(2, 4))
            nl.add_net(f"r{j}", [Pin(int(c)) for c in rng.integers(0, 3, k)])
        slow = 0.0
        for net in nl.nets:
            if net.degree < 2:
                continue
            box = nl.net_bbox(net)
            slow += net.weight * (box.width + box.height)
        assert nl.hpwl() == pytest.approx(slow)

    def test_cache_invalidated_on_add_net(self, nl):
        nl.add_net("n", [Pin(0), Pin(1)])
        first = nl.hpwl()
        nl.add_net("n2", [Pin(0), Pin.terminal(0, 9)])
        assert nl.hpwl() > first


class TestPlacementState:
    def test_snapshot_restore(self, nl):
        snap = nl.snapshot()
        nl.x[0] = 7.0
        nl.restore(snap)
        assert nl.x[0] == 1.0

    def test_restore_size_mismatch(self, nl):
        snap = nl.snapshot()
        nl.add_cell("extra", 1, 1)
        with pytest.raises(ValueError):
            nl.restore(snap)

    def test_set_positions(self, nl):
        nl.set_positions([1, 2, 3], [4, 5, 6])
        assert nl.y[2] == 6

    def test_set_positions_wrong_length(self, nl):
        with pytest.raises(ValueError):
            nl.set_positions([1], [2])

    def test_clamp_into_die(self, nl):
        nl.x[0] = -5.0
        nl.y[1] = 100.0
        nl.clamp_into_die()
        assert nl.x[0] == 1.0  # half width
        assert nl.y[1] == 9.5  # die top minus half height

    def test_clamp_leaves_fixed(self, nl):
        nl.x[2] = -5.0
        nl.clamp_into_die()
        assert nl.x[2] == -5.0

    def test_check_in_die(self, nl):
        nl.x[0] = 0.0  # rect pokes out left
        assert nl.check_in_die() == [0]
