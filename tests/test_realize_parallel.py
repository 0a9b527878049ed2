"""Tile-parallel, vectorized realization: identity and fault contract.

The contract under test (see ``repro/fbp/realize_windows.py``):

* the vectorized spread reproduces the scalar reference
  (``realization._spread_into_rects``) bit for bit;
* serial, pool-1, pool-4 and any realize-tile decomposition produce
  byte-identical placements — on synthetic, movebound-heavy, and
  Bookshelf instances;
* a ``worker.kill`` fault landing on a realize unit changes nothing
  (the unit is requeued whole and re-realized from scratch);
* the fast path (closed-form single-region windows) realizes every
  window exactly as the general LP route does;
* small batches short-circuit pool dispatch deterministically
  (``pool.serial_shortcircuits``) with identical output.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.bookshelf import load_instance
from repro.cli import main
from repro.fbp import realize_windows
from repro.fbp.partitioner import fbp_partition
from repro.fbp.realize_windows import (
    WindowSpec,
    _spread_group,
    realize_unit,
    tile_units,
)
from repro.fbp.realization import _spread_into_rects
from repro.geometry import Rect
from repro.grid import Grid
from repro.movebounds import MoveBoundSet, decompose_regions
from repro.obs import get_tracer
from repro.resilience import install_fault_plan, reset_faults
from repro.runstate import (
    WindowSolverPool,
    activated,
    solve_transport_batch,
)
from repro.workloads.generator import NetlistSpec, generate_netlist
from tests.conftest import build_random_netlist

DIE = Rect(0, 0, 100, 100)


@pytest.fixture(autouse=True)
def _clean_faults():
    reset_faults()
    yield
    reset_faults()


@pytest.fixture(autouse=True)
def _force_dispatch(monkeypatch):
    """Disable the min-work short-circuit: these tests must exercise
    actual pool dispatch on small instances.  The short-circuit tests
    below delete the variable again to restore default behaviour."""
    monkeypatch.setenv("REPRO_POOL_MIN_WORK", "0")


def _instance(seed: int, num_cells: int = 1500):
    spec = NetlistSpec(
        f"realize{seed}", num_cells=num_cells, utilization=0.55
    )
    nl, _ = generate_netlist(spec, seed=seed)
    bounds = MoveBoundSet(nl.die)
    grid = Grid(nl.die, 8, 8)
    grid.build_regions(decompose_regions(nl.die, bounds, nl.blockages))
    return nl, bounds, grid


def _mb_instance(seed: int, num_cells: int = 600, windows: int = 8):
    """Movebound-heavy instance.  The bounds' edges at x = y = 50 fall
    on window boundaries of the default 8 x 8 grid; an odd ``windows``
    makes windows straddle them, and those multi-region windows keep
    the general LP route (not the closed-form fast path) busy."""
    mbs = MoveBoundSet(DIE)
    mbs.add_rects("west", [Rect(0, 0, 50, 100)])
    mbs.add_rects("ne", [Rect(50, 50, 100, 100)])

    def mb_of(i):
        if i % 3 == 0:
            return "west"
        if i % 7 == 0:
            return "ne"
        return None

    nl = build_random_netlist(num_cells, 300, seed, DIE, movebound_of=mb_of)
    grid = Grid(DIE, windows, windows)
    grid.build_regions(decompose_regions(DIE, mbs, nl.blockages))
    return nl, mbs, grid


def _partition(nl, bounds, grid, pool=0, realize_tiles=None):
    kwargs = dict(
        density_target=0.9,
        run_local_qp=False,
        realize_tiles=realize_tiles,
    )
    if pool:
        with WindowSolverPool(pool) as p, activated(p):
            return fbp_partition(nl, bounds, grid, **kwargs)
    return fbp_partition(nl, bounds, grid, **kwargs)


def _positions(nl):
    return (nl.x.tobytes(), nl.y.tobytes())


def _state(nl, rep):
    return (
        _positions(nl),
        sorted(rep.realization.assignment.items()),
        rep.realization.relaxed_windows,
    )


# ----------------------------------------------------------------------
# vectorized spread == scalar reference
# ----------------------------------------------------------------------
class TestSpreadReference:
    @pytest.mark.parametrize("seed", [0, 1, 5])
    @pytest.mark.parametrize(
        "rects",
        [
            [Rect(10, 10, 40, 30)],
            [Rect(0, 0, 20, 20), Rect(20, 0, 50, 10)],
            [Rect(5, 5, 6, 40), Rect(6, 5, 30, 6), Rect(40, 40, 41, 41)],
        ],
    )
    def test_matches_scalar_reference(self, seed, rects):
        nl = build_random_netlist(80, 40, seed, DIE)
        rng = np.random.default_rng(seed)
        movable = [c.index for c in nl.cells if not c.fixed]
        cells = np.sort(
            rng.choice(movable, size=33, replace=False)
        ).astype(np.int64)
        # coincident positions exercise the lexsort tie-breaks
        nl.x[cells[:7]] = 17.5
        nl.y[cells[:7]] = 12.25

        ref = build_random_netlist(80, 40, seed, DIE)
        ref.x[:] = nl.x
        ref.y[:] = nl.y
        _spread_into_rects(ref, cells.tolist(), rects)

        _mv, half_w, half_h = nl._dim_arrays()
        rect_arr = np.array(
            [[r.x_lo, r.y_lo, r.x_hi, r.y_hi] for r in rects]
        )
        spec = WindowSpec(
            widx=0,
            cells=cells,
            codes=np.zeros(len(cells), dtype=np.int64),
            xs=np.asarray(nl.x[cells], dtype=np.float64),
            ys=np.asarray(nl.y[cells], dtype=np.float64),
            sizes=nl.cell_sizes()[cells],
            half_w=half_w[cells],
            half_h=half_h[cells],
            region_idx=(0,),
            caps=np.array([1.0]),
            admits=np.ones((1, 1), dtype=bool),
            free_rects=(rect_arr,),
            spread_rects=(rect_arr,),
            trivial=True,
        )
        new_x = spec.xs.copy()
        new_y = spec.ys.copy()
        _spread_group(
            spec, np.arange(len(cells)), rect_arr, new_x, new_y
        )
        assert new_x.tobytes() == ref.x[cells].tobytes()
        assert new_y.tobytes() == ref.y[cells].tobytes()


# ----------------------------------------------------------------------
# serial vs pool-N vs tiling: byte-identical
# ----------------------------------------------------------------------
class TestRealizeIdentity:
    def test_pool_and_tiling_invariant(self):
        baseline = None
        for pool, tiles in ((0, None), (1, 4), (4, 2), (4, 8)):
            nl, bounds, grid = _instance(3)
            rep = _partition(nl, bounds, grid, pool=pool, realize_tiles=tiles)
            assert rep.feasible
            state = _state(nl, rep)
            if baseline is None:
                baseline = state
            else:
                assert state == baseline

    def test_movebound_instance_invariant(self):
        baseline = None
        for pool, tiles in ((0, None), (4, 4)):
            nl, bounds, grid = _mb_instance(3)
            rep = _partition(nl, bounds, grid, pool=pool, realize_tiles=tiles)
            assert rep.feasible
            state = _state(nl, rep)
            if baseline is None:
                baseline = state
            else:
                assert state == baseline

    def test_fast_path_engages_on_unbounded_instance(self):
        counters = get_tracer().counters
        before = counters.get("realize.trivial_windows", 0)
        nl, bounds, grid = _instance(11)
        rep = _partition(nl, bounds, grid)
        assert rep.feasible
        assert counters.get("realize.trivial_windows", 0) > before

    def test_fast_path_equals_general_route(self, monkeypatch):
        """The specs of real partitions, realized as built and with
        every ``trivial`` flag cleared (all through the LP): identical
        positions and assignments, bit for bit.  The 7 x 7 movebound
        grid has multi-region windows, so a ``trivial`` flag set where
        the assignment is not forced would show here."""
        built = []
        build_specs = realize_windows.build_window_specs

        def capture(*args):
            specs, skipped = build_specs(*args)
            built.append(specs)
            return specs, skipped

        monkeypatch.setattr(realize_windows, "build_window_specs", capture)
        for nl, bounds, grid in (_instance(5), _mb_instance(5, windows=7)):
            assert _partition(nl, bounds, grid).feasible
        assert any(s.trivial for specs in built for s in specs)
        assert any(len(s.caps) > 1 for specs in built for s in specs)
        for specs in built:
            fast = realize_unit(specs)
            general = realize_unit(
                [dataclasses.replace(s, trivial=False) for s in specs]
            )
            for f, g in zip(fast, general, strict=True):
                assert f.new_x.tobytes() == g.new_x.tobytes()
                assert f.new_y.tobytes() == g.new_y.tobytes()
                assert f.assignment.tobytes() == g.assignment.tobytes()

    def test_worker_kill_mid_realization_is_invisible(self):
        nl_s, bounds_s, grid_s = _instance(7)
        rep_s = _partition(nl_s, bounds_s, grid_s)
        assert rep_s.feasible
        # run_local_qp=False and a monolithic flow solve leave the
        # realize units as essentially the only pool traffic, so a
        # kill at the first unit pickup lands on one of them
        reset_faults()
        install_fault_plan("worker.kill=kill@1")
        counters = get_tracer().counters
        before = counters.get("pool.worker_deaths", 0)
        nl_p, bounds_p, grid_p = _instance(7)
        rep_p = _partition(nl_p, bounds_p, grid_p, pool=2, realize_tiles=4)
        reset_faults()
        assert rep_p.feasible
        assert counters.get("pool.worker_deaths", 0) > before
        assert _state(nl_p, rep_p) == _state(nl_s, rep_s)

    def test_tile_units_partition_specs(self):
        nl, _bounds, grid = _instance(2)

        def dummy(widx):
            e = np.empty(0)
            z = np.empty(0, dtype=np.int64)
            r = np.empty((0, 4))
            return WindowSpec(
                widx=widx, cells=z, codes=z, xs=e, ys=e, sizes=e,
                half_w=e, half_h=e, region_idx=(0,),
                caps=np.array([1.0]), admits=np.ones((1, 1), dtype=bool),
                free_rects=(r,), spread_rects=(r,), trivial=True,
            )

        specs = [dummy(w) for w in range(0, grid.nx * grid.ny, 3)]
        units = tile_units(specs, grid, 2)
        assert 1 < len(units) <= 4
        flat = [s.widx for u in units for s in u]
        assert sorted(flat) == [s.widx for s in specs]
        # every window lands in exactly one unit
        assert len(set(flat)) == len(flat)


# ----------------------------------------------------------------------
# Bookshelf end-to-end through the CLI
# ----------------------------------------------------------------------
class TestBookshelfIdentity:
    @pytest.fixture(scope="class")
    def instance_dir(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("realize_cli"))
        assert main(["generate", "Dagmar", "--out", out, "--seed", "2"]) == 0
        return out

    def test_cli_pool_tiles_byte_identical(
        self, instance_dir, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_POOL_MIN_WORK", "0")
        outs = {}
        for tag, extra in {
            "serial": [],
            "pooled": ["--pool-workers", "2", "--realize-tiles", "4"],
        }.items():
            out = str(tmp_path / tag)
            code = main(
                ["place", "Dagmar", "--dir", instance_dir, "--out", out]
                + extra
            )
            assert code in (0, 1)
            nl, _ = load_instance(out, "Dagmar")
            outs[tag] = _positions(nl)
        assert outs["serial"] == outs["pooled"]


# ----------------------------------------------------------------------
# min-work short-circuit (small-batch pool regression)
# ----------------------------------------------------------------------
class TestSerialShortcircuit:
    def _tasks(self, n=4, seed=0):
        rng = np.random.default_rng(seed)
        tasks = []
        for _ in range(n):
            supplies = rng.uniform(0.5, 2.0, 5)
            caps = rng.uniform(1.0, 2.0, 3)
            caps *= 1.3 * supplies.sum() / caps.sum()
            costs = rng.uniform(0.0, 10.0, (5, 3))
            tasks.append((supplies, caps, costs))
        return tasks

    def test_small_batch_short_circuits(self, monkeypatch):
        monkeypatch.delenv("REPRO_POOL_MIN_WORK", raising=False)
        counters = get_tracer().counters
        tasks = self._tasks()
        want = solve_transport_batch(tasks)
        before = counters.get("pool.serial_shortcircuits", 0)
        with WindowSolverPool(2) as pool, activated(pool):
            got = solve_transport_batch(tasks)
        assert counters.get("pool.serial_shortcircuits", 0) > before
        for (rg, sg), (rw, sw) in zip(got, want):
            assert sg == sw
            assert rg.flow.tobytes() == rw.flow.tobytes()

    def test_env_zero_forces_dispatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_MIN_WORK", "0")
        counters = get_tracer().counters
        tasks = self._tasks(seed=1)
        before = counters.get("pool.tasks", 0)
        with WindowSolverPool(2) as pool, activated(pool):
            solve_transport_batch(tasks)
        assert counters.get("pool.tasks", 0) >= before + len(tasks)

    def test_trivial_realize_batch_stays_serial(self, monkeypatch):
        """All-trivial windows carry zero LP work: dispatching them
        through the pool is pure overhead, so at the default threshold
        they stay in-process even with an active pool."""
        monkeypatch.delenv("REPRO_POOL_MIN_WORK", raising=False)
        counters = get_tracer().counters
        before = counters.get("realize.pool_dispatched", 0)
        nl, bounds, grid = _instance(9)
        rep = _partition(nl, bounds, grid, pool=2, realize_tiles=4)
        assert rep.feasible
        assert counters.get("realize.pool_dispatched", 0) == before
