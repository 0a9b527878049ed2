"""Tests for the FBP MinCostFlow model (paper §IV.A, Theorem 3)."""

import numpy as np
import pytest

from repro.fbp import build_fbp_model
from repro.fbp.model import fixed_cell_usage
from repro.geometry import Rect
from repro.grid import Grid
from repro.movebounds import DEFAULT_BOUND, MoveBoundSet, decompose_regions
from repro.netlist import Netlist
from tests.conftest import build_random_netlist

DIE = Rect(0, 0, 100, 100)


def _setup(num_cells=80, seed=0, bounds=None, nx=4, ny=4):
    mbs = bounds or MoveBoundSet(DIE)
    mb_names = mbs.names()

    def mb_of(i):
        if mb_names and i < num_cells // 3:
            return mb_names[i % len(mb_names)]
        return None

    nl = build_random_netlist(num_cells, 60, seed, DIE,
                              movebound_of=mb_of if mb_names else None)
    dec = decompose_regions(DIE, mbs, nl.blockages)
    grid = Grid(DIE, nx, ny)
    grid.build_regions(dec)
    return nl, mbs, grid


class TestStructure:
    def test_supply_equals_cell_area(self):
        nl, mbs, grid = _setup()
        model = build_fbp_model(nl, mbs, grid)
        assert model.problem.total_supply() == pytest.approx(
            nl.movable_area()
        )

    def test_demand_covers_supply_when_feasible(self):
        nl, mbs, grid = _setup()
        model = build_fbp_model(nl, mbs, grid, density_target=0.9)
        assert model.problem.total_demand() >= model.problem.total_supply()

    def test_stats_consistent(self):
        nl, mbs, grid = _setup()
        model = build_fbp_model(nl, mbs, grid)
        s = model.stats
        assert s.num_nodes == len(model.problem.nodes)
        assert s.num_arcs == len(model.problem.arcs)
        assert s.num_windows == 16

    def test_size_linear_in_windows(self):
        """|V| and |E| grow linearly with |W| + |R| — the paper's
        headline size claim (Table I)."""
        sizes = []
        for n in (2, 4, 8):
            nl, mbs, grid = _setup(nx=n, ny=n)
            model = build_fbp_model(nl, mbs, grid)
            sizes.append((len(grid), model.stats.num_nodes,
                          model.stats.num_arcs))
        # nodes/(windows+regions) stays bounded as the grid refines
        ratios_v = [v / (w + w) for (w, v, _e) in sizes]
        ratios_e = [e / (w + w) for (w, _v, e) in sizes]
        assert max(ratios_v) <= 6
        assert max(ratios_e) <= 12
        assert max(ratios_e) / min(ratios_e) < 2.5

    def test_ev_ratio_in_paper_range(self):
        nl, mbs, grid = _setup(nx=8, ny=8)
        model = build_fbp_model(nl, mbs, grid)
        # Table I reports |E|/|V| between ~3.9 and 5.5
        assert 2.0 <= model.stats.arc_node_ratio <= 7.0

    def test_external_arcs_paired(self):
        nl, mbs, grid = _setup()
        model = build_fbp_model(nl, mbs, grid)
        seen = {}
        for arc in model.external_arcs:
            key = (arc.bound, arc.src_window, arc.dst_window)
            rev = (arc.bound, arc.dst_window, arc.src_window)
            seen[key] = seen.get(key, 0) + 1
            assert seen[key] == 1  # no duplicate arcs
        for (b, u, v) in list(seen):
            assert (b, v, u) in seen  # both directions exist

    def test_bounding_box_pruning(self):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("m", [Rect(0, 0, 25, 25)])  # one grid window
        nl = Netlist(DIE)
        # movebound cells near their area, default cells everywhere
        for i in range(10):
            nl.add_cell(f"m{i}", 1, 1, x=10, y=10, movebound="m")
        for i in range(10):
            nl.add_cell(f"d{i}", 1, 1, x=80, y=80)
        dec = decompose_regions(DIE, mbs)
        grid = Grid(DIE, 4, 4)
        grid.build_regions(dec)
        model = build_fbp_model(nl, mbs, grid)
        # no transit nodes for "m" outside its bbox windows
        m_transits = [
            n for n in model.problem.nodes
            if isinstance(n, tuple) and n[0] == "t" and n[1] == "m"
        ]
        assert len(m_transits) == 0  # single window: no internal arcs


class TestTheorem3:
    def test_feasible_instance(self):
        nl, mbs, grid = _setup()
        model = build_fbp_model(nl, mbs, grid, density_target=0.9)
        assert model.solve().feasible

    def test_infeasible_instance(self):
        mbs = MoveBoundSet(DIE)
        mbs.add_rects("m", [Rect(0, 0, 5, 5)])  # capacity 25

        nl = Netlist(DIE)
        for i in range(60):
            nl.add_cell(f"c{i}", 2, 1, x=50, y=50, movebound="m")
        dec = decompose_regions(DIE, mbs)
        grid = Grid(DIE, 4, 4)
        grid.build_regions(dec)
        model = build_fbp_model(nl, mbs, grid)
        assert not model.solve().feasible

    def test_matches_theorem2(self):
        """Theorem 3 agrees with the clustered Theorem-2 check."""
        from repro.feasibility import check_feasibility

        for seed in range(5):
            rng = np.random.default_rng(seed)
            mbs = MoveBoundSet(DIE)
            side = float(rng.integers(8, 30))
            mbs.add_rects("m", [Rect(0, 0, side, side)])
            nl = Netlist(DIE)
            n_mb = int(rng.integers(10, 200))
            for i in range(n_mb):
                nl.add_cell(f"c{i}", 2, 1, x=50, y=50, movebound="m")
            dec = decompose_regions(DIE, mbs)
            grid = Grid(DIE, 4, 4)
            grid.build_regions(dec)
            model = build_fbp_model(nl, mbs, grid, density_target=0.95)
            thm3 = model.solve().feasible
            thm2 = check_feasibility(nl, mbs, dec, 0.95).feasible
            assert thm3 == thm2


class TestFlowReadback:
    def test_prescribed_content_conserves_area(self):
        nl, mbs, grid = _setup(seed=3)
        model = build_fbp_model(nl, mbs, grid, density_target=0.9)
        result = model.solve()
        content = model.prescribed_content(result)
        assert sum(content.values()) == pytest.approx(nl.movable_area())

    def test_prescribed_content_fits_capacity(self):
        nl, mbs, grid = _setup(seed=4)
        model = build_fbp_model(nl, mbs, grid, density_target=0.9)
        result = model.solve()
        for (bound, widx), area in model.prescribed_content(result).items():
            if area <= 1e-9:
                continue
            cap = sum(
                model.region_capacity.get((widx, wr.region.index), 0.0)
                for wr in grid.windows[widx].regions
                if wr.admits(bound)
            )
            assert area <= cap + 1e-6

    def test_region_inflow_within_capacity(self):
        nl, mbs, grid = _setup(seed=5)
        model = build_fbp_model(nl, mbs, grid, density_target=0.9)
        result = model.solve()
        for key, inflow in model.region_inflow(result).items():
            assert inflow <= model.region_capacity[key] + 1e-6


class TestFixedCellUsage:
    def test_macro_consumes_capacity(self):
        nl = Netlist(DIE)
        nl.add_cell("macro", 20, 20, x=12.5, y=12.5, fixed=True)
        grid = Grid(DIE, 4, 4)
        dec = decompose_regions(DIE, MoveBoundSet(DIE))
        grid.build_regions(dec)
        usage = fixed_cell_usage(nl, grid)
        assert sum(usage.values()) == pytest.approx(400)
        # the macro spans window (0,0) entirely? 20x20 at (2.5..22.5)
        w00 = grid.window(0, 0)
        assert usage[(w00.index, 0)] > 0


class TestMemory:
    """The model is arrays: what a build keeps alive is a few dozen
    bytes per arc, and a finished place keeps no per-cell dict."""

    def test_finest_build_retains_at_most_100_bytes_per_arc(
        self, monkeypatch
    ):
        import tracemalloc

        import repro.fbp.partitioner as partitioner
        from repro.place import BonnPlaceFBP, BonnPlaceOptions
        from repro.workloads import NetlistSpec, generate_netlist

        # the size of the pipeline benchmark's flat3k instances
        nl, _logical = generate_netlist(
            NetlistSpec("mem3k", 3000, utilization=0.5), seed=11
        )
        real = partitioner.build_fbp_model
        builds = []

        def traced(*args, **kw):
            tracemalloc.start()
            try:
                model = real(*args, **kw)
                kept = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            builds.append((kept, model.stats.num_arcs))
            return model

        monkeypatch.setattr(partitioner, "build_fbp_model", traced)
        placer = BonnPlaceFBP(BonnPlaceOptions(legalize=False))
        placer.place(nl, MoveBoundSet(nl.die))
        kept, arcs = builds[-1]  # the finest level
        assert arcs > 5000
        assert kept <= 100 * arcs, f"{kept / arcs:.0f} B per arc"
        for report in placer.level_reports:
            held = vars(report.realization).values()
            assert not any(isinstance(v, dict) for v in held)
