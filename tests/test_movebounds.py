"""Tests for MoveBound / MoveBoundSet semantics (paper §II)."""

import pytest

from repro.geometry import Rect, RectSet
from repro.movebounds import (
    DEFAULT_BOUND,
    EXCLUSIVE,
    INCLUSIVE,
    MoveBound,
    MoveBoundSet,
)
from repro.netlist import Netlist

DIE = Rect(0, 0, 100, 100)


class TestMoveBound:
    def test_covers(self):
        m = MoveBound("m", RectSet([Rect(0, 0, 10, 10)]))
        assert m.covers(Rect(1, 1, 9, 9))
        assert not m.covers(Rect(5, 5, 15, 9))

    def test_covers_nonconvex(self):
        # L-shape covers a rect spanning both arms
        m = MoveBound(
            "m", RectSet([Rect(0, 0, 2, 10), Rect(2, 0, 10, 2)])
        )
        assert m.covers(Rect(0, 0, 8, 2))
        assert not m.covers(Rect(0, 0, 8, 3))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MoveBound("m", RectSet([Rect(0, 0, 1, 1)]), "weird")

    def test_empty_area_rejected(self):
        with pytest.raises(ValueError):
            MoveBound("m", RectSet())


class TestMoveBoundSet:
    def test_duplicate_name(self):
        s = MoveBoundSet(DIE)
        s.add_rects("m", [Rect(0, 0, 1, 1)])
        with pytest.raises(ValueError):
            s.add_rects("m", [Rect(2, 2, 3, 3)])

    def test_area_outside_die_rejected(self):
        s = MoveBoundSet(DIE)
        with pytest.raises(ValueError):
            s.add_rects("m", [Rect(90, 90, 110, 95)])

    def test_default_bound_is_die_minus_exclusive(self):
        s = MoveBoundSet(DIE)
        s.add_rects("x", [Rect(0, 0, 10, 10)], EXCLUSIVE)
        d = s.default_bound()
        assert d.name == DEFAULT_BOUND
        assert d.area.area == pytest.approx(DIE.area - 100)
        assert not d.area.contains_point(5, 5)

    def test_normalize_exclusive_exclusive_raises(self):
        s = MoveBoundSet(DIE)
        s.add_rects("a", [Rect(0, 0, 10, 10)], EXCLUSIVE)
        s.add_rects("b", [Rect(5, 5, 15, 15)], EXCLUSIVE)
        with pytest.raises(ValueError):
            s.normalize()

    def test_normalize_carves_inclusive(self):
        s = MoveBoundSet(DIE)
        s.add_rects("x", [Rect(0, 0, 10, 10)], EXCLUSIVE)
        s.add_rects("i", [Rect(5, 5, 20, 20)], INCLUSIVE)
        s.normalize()
        assert s.get("i").area.intersect(s.get("x").area).is_empty
        assert s.get("i").area.area == pytest.approx(15 * 15 - 5 * 5)

    def test_normalize_swallowed_inclusive_raises(self):
        s = MoveBoundSet(DIE)
        s.add_rects("x", [Rect(0, 0, 20, 20)], EXCLUSIVE)
        s.add_rects("i", [Rect(5, 5, 10, 10)], INCLUSIVE)
        with pytest.raises(ValueError):
            s.normalize()

    def test_inclusive_overlap_allowed(self):
        s = MoveBoundSet(DIE)
        s.add_rects("a", [Rect(0, 0, 10, 10)])
        s.add_rects("b", [Rect(5, 5, 15, 15)])
        s.normalize()  # no exception
        assert len(s) == 2

    def test_bound_of(self):
        s = MoveBoundSet(DIE)
        s.add_rects("m", [Rect(0, 0, 10, 10)])
        nl = Netlist(DIE)
        c1 = nl.add_cell("c1", 1, 1, movebound="m")
        c2 = nl.add_cell("c2", 1, 1)
        assert s.bound_of(nl, c1.index).name == "m"
        assert s.bound_of(nl, c2.index).name == DEFAULT_BOUND

    def test_bound_of_unknown_raises(self):
        s = MoveBoundSet(DIE)
        nl = Netlist(DIE)
        c = nl.add_cell("c", 1, 1, movebound="ghost")
        with pytest.raises(KeyError):
            s.bound_of(nl, c.index)

    def test_encoding_rects_counts(self):
        s = MoveBoundSet(DIE)
        s.add_rects("a", [Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)])
        s.add_rects("b", [Rect(5, 5, 6, 6)])
        assert len(s.encoding_rects()) == 3


class TestViolations:
    def _netlist(self):
        nl = Netlist(DIE)
        nl.add_cell("in", 2, 2, x=5, y=5, movebound="m")
        nl.add_cell("out", 2, 2, x=50, y=50, movebound="m")
        nl.add_cell("free", 2, 2, x=80, y=80)
        return nl

    def test_containment_violation(self):
        s = MoveBoundSet(DIE)
        s.add_rects("m", [Rect(0, 0, 10, 10)])
        nl = self._netlist()
        assert s.violations(nl) == [1]

    def test_exclusion_violation(self):
        s = MoveBoundSet(DIE)
        s.add_rects("m", [Rect(0, 0, 60, 60)], EXCLUSIVE)
        nl = self._netlist()
        nl.x[2], nl.y[2] = 30, 30  # free cell inside exclusive area
        assert 2 in s.violations(nl)

    def test_boundary_touch_not_violation(self):
        s = MoveBoundSet(DIE)
        s.add_rects("m", [Rect(0, 0, 60, 60)], EXCLUSIVE)
        nl = self._netlist()
        nl.x[2], nl.y[2] = 61, 61  # abuts the area, no interior overlap
        assert 2 not in s.violations(nl)

    def test_fixed_cells_skipped(self):
        s = MoveBoundSet(DIE)
        s.add_rects("m", [Rect(0, 0, 10, 10)])
        nl = Netlist(DIE)
        nl.add_cell("f", 2, 2, x=50, y=50, fixed=True, movebound="m")
        assert s.violations(nl) == []
