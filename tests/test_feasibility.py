"""Tests for Theorems 1 and 2: feasibility with movebounds."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.feasibility import (
    check_feasibility,
    check_feasibility_cell_level,
    condition_one_all_subsets,
)
from repro.geometry import Rect
from repro.movebounds import EXCLUSIVE, MoveBoundSet
from repro.netlist import Netlist

DIE = Rect(0, 0, 100, 100)


def _netlist_with(counts):
    """counts: {movebound_name_or_None: (num_cells, size)}"""
    nl = Netlist(DIE)
    i = 0
    for mb, (num, size) in counts.items():
        for _ in range(num):
            nl.add_cell(f"c{i}", size, 1.0, movebound=mb)
            i += 1
    return nl


class TestFeasible:
    def test_unconstrained_fits(self):
        nl = _netlist_with({None: (50, 2.0)})
        report = check_feasibility(nl, MoveBoundSet(DIE))
        assert report.feasible
        assert report.total_cell_area == pytest.approx(100.0)

    def test_single_bound_fits(self):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("m", [Rect(0, 0, 20, 20)])
        nl = _netlist_with({"m": (50, 2.0)})  # 100 into 400
        assert check_feasibility(nl, mbs).feasible

    def test_single_bound_overflows(self):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("m", [Rect(0, 0, 10, 10)])
        nl = _netlist_with({"m": (80, 2.0)})  # 160 into 100
        report = check_feasibility(nl, mbs)
        assert not report.feasible
        assert report.witness == frozenset({"m"})
        assert report.deficit == pytest.approx(60.0)

    def test_union_overflow_witness(self):
        """Each bound fits alone, but their union does not — the
        subset condition (1) catches it."""
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("a", [Rect(0, 0, 10, 10)])
        mbs.add_rects("b", [Rect(0, 0, 10, 10)])  # same area
        nl = _netlist_with({"a": (30, 2.0), "b": (30, 2.0)})  # 120 > 100
        report = check_feasibility(nl, mbs)
        assert not report.feasible
        assert report.witness == frozenset({"a", "b"})

    def test_exclusive_squeezes_default(self):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("x", [Rect(0, 0, 99, 99)], EXCLUSIVE)
        nl = _netlist_with({"x": (1, 1.0), None: (300, 2.0)})
        report = check_feasibility(nl, mbs)
        assert not report.feasible  # default cells have ~199 units left

    def test_density_target_scales(self):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("m", [Rect(0, 0, 10, 10)])
        nl = _netlist_with({"m": (45, 2.0)})  # 90 into 100
        assert check_feasibility(nl, mbs, density_target=1.0).feasible
        assert not check_feasibility(nl, mbs, density_target=0.8).feasible

    def test_fixed_cells_ignored(self):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("m", [Rect(0, 0, 10, 10)])
        nl = Netlist(DIE)
        for i in range(200):
            nl.add_cell(f"f{i}", 2, 1, fixed=True, movebound="m")
        assert check_feasibility(nl, mbs).feasible


class TestTheoremEquivalence:
    def _random_instance(self, seed):
        rng = np.random.default_rng(seed)
        mbs = MoveBoundSet(DIE)
        num_bounds = int(rng.integers(1, 4))
        for i in range(num_bounds):
            x, y = rng.integers(0, 60, 2)
            w, h = rng.integers(10, 40, 2)
            mbs.add_rects(
                f"m{i}", [Rect(x, y, min(x + w, 100), min(y + h, 100))]
            )
        counts = {}
        for i in range(num_bounds):
            counts[f"m{i}"] = (int(rng.integers(1, 120)), 2.0)
        counts[None] = (int(rng.integers(0, 100)), 2.0)
        return _netlist_with(counts), mbs

    @pytest.mark.parametrize("seed", range(15))
    def test_thm1_equals_thm2(self, seed):
        nl, mbs = self._random_instance(seed)
        clustered = check_feasibility(nl, mbs)
        cell_level = check_feasibility_cell_level(nl, mbs)
        assert clustered.feasible == cell_level.feasible
        assert clustered.routed_area == pytest.approx(
            cell_level.routed_area, rel=1e-6
        )

    @pytest.mark.parametrize("seed", range(15))
    def test_thm2_equals_subset_enumeration(self, seed):
        nl, mbs = self._random_instance(seed)
        report = check_feasibility(nl, mbs)
        violating = condition_one_all_subsets(nl, mbs)
        assert report.feasible == (violating is None)

    def test_witness_is_actually_violating(self):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("a", [Rect(0, 0, 10, 10)])
        mbs.add_rects("b", [Rect(5, 5, 15, 15)])
        nl = _netlist_with({"a": (40, 2.0), "b": (40, 2.0)})
        report = check_feasibility(nl, mbs)
        if not report.feasible:
            # verify the witness against brute force
            violating = condition_one_all_subsets(nl, mbs)
            assert violating is not None

    def test_subset_enumeration_guard(self):
        mbs = MoveBoundSet(DIE)
        for i in range(15):
            mbs.add_rects(f"m{i}", [Rect(i, i, i + 1, i + 1)])
        nl = _netlist_with({None: (1, 1.0)})
        with pytest.raises(ValueError):
            condition_one_all_subsets(nl, mbs, max_bounds=10)
