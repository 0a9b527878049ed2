"""Pooled, vectorized realization: identity and fault contract.

The contract under test (see ``repro/partitioning/transport.py`` and
``repro/runstate/pool.py::solve_instance_batch``):

* the §III spreader (``partitioning.transport.spread_into_rects``)
  reproduces the scalar reference loop kept below bit for bit, and the
  cost kernel (``transport_costs``) reproduces per-target
  ``RectSet.distances_to_points`` with ``inf`` masking;
* serial, pool-1 and pool-4 produce byte-identical placements — on
  synthetic, movebound-heavy, and Bookshelf instances, and for
  recursive partitioning — and a pool of N cuts the window-ordered
  instances into at most N contiguous units;
* a ``worker.kill`` fault landing on a realize unit changes nothing
  (the unit is requeued whole and re-realized from scratch);
* the closed form (single-region windows) realizes every window
  exactly as the general LP route does;
* small batches short-circuit pool dispatch deterministically
  (``pool.serial_shortcircuits``) with identical output.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.bookshelf import load_instance
from repro.cli import main
from repro.fbp.partitioner import fbp_partition
from repro.flows import RELAX_CHAIN_WINDOW
from repro.geometry import Rect, RectSet, rect_array
from repro.grid import Grid
from repro.movebounds import MoveBoundSet, decompose_regions
from repro.obs import get_tracer
from repro.partitioning import recursive_partition
from repro.partitioning.transport import (
    TransportInstance,
    solve_instances,
    spread_into_rects,
    spread_step,
    transport_costs,
)
from repro.resilience import install_fault_plan, reset_faults
from repro.runstate import (
    WindowSolverPool,
    activated,
    solve_instance_batch,
    solve_transport_batch,
)
from repro.runstate import pool as pool_mod
from repro.workloads.generator import NetlistSpec, generate_netlist
from tests.conftest import build_random_netlist

DIE = Rect(0, 0, 100, 100)

DEFAULT_MIN_WORK = pool_mod._POOL_MIN_WORK


@pytest.fixture(autouse=True)
def _clean_faults():
    reset_faults()
    yield
    reset_faults()


@pytest.fixture(autouse=True)
def _force_dispatch(monkeypatch):
    """Disable the min-work short-circuit: these tests must exercise
    actual pool dispatch on small instances.  The short-circuit tests
    below restore ``DEFAULT_MIN_WORK``."""
    monkeypatch.setattr(pool_mod, "_POOL_MIN_WORK", 0)


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


def _partition(nl, bounds, grid, pool=0, task_timeout=None):
    kwargs = dict(density_target=0.9, run_local_qp=False)
    if pool:
        with WindowSolverPool(pool, task_timeout) as p, activated(p):
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
def _reference_spread(netlist, cell_indices, rects):
    """The scalar spread the vectorized kernel was derived from: one
    sort per rectangle column, in place on the netlist."""
    if not len(cell_indices) or not rects:
        return
    rects = sorted(rects, key=lambda r: (r.x_lo, r.y_lo))
    areas = np.array([r.area for r in rects])
    total = areas.sum()
    if total <= 0:
        areas = np.ones(len(rects))
        total = float(len(rects))
    ci = np.asarray(cell_indices, dtype=np.int64)
    _mv, half_w, half_h = netlist.cell_dims()
    ordered = ci[np.lexsort((netlist.y[ci], netlist.x[ci]))]
    counts = np.floor(areas / total * len(ordered)).astype(int)
    while counts.sum() < len(ordered):
        counts[int(np.argmax(areas / np.maximum(counts, 1)))] += 1
    pos = 0
    for rect, count in zip(rects, counts):
        group = ordered[pos : pos + count]
        pos += count
        if not len(group):
            continue
        n = len(group)
        aspect = rect.width / max(rect.height, 1e-9)
        cols = min(max(int(round(math.sqrt(n * aspect))), 1), n)
        rows_per_col = math.ceil(n / cols)
        by_x = group[np.lexsort((group, netlist.y[group], netlist.x[group]))]
        for col in range(cols):
            column = by_x[col * rows_per_col : (col + 1) * rows_per_col]
            column = column[
                np.lexsort((column, netlist.x[column], netlist.y[column]))
            ]
            fx = (col + 0.5) / cols
            fy = (np.arange(len(column)) + 0.5) / len(column)
            hw = np.minimum(half_w[column], rect.width / 2)
            hh = np.minimum(half_h[column], rect.height / 2)
            netlist.x[column] = rect.x_lo + hw + fx * np.maximum(
                rect.width - 2 * hw, 0.0
            )
            netlist.y[column] = rect.y_lo + hh + fy * np.maximum(
                rect.height - 2 * hh, 0.0
            )


class TestSpreadReference:
    @staticmethod
    def _check(seed, rects, count=33, order=np.sort, coincident=7):
        nl = build_random_netlist(80, 40, seed, DIE)
        rng = np.random.default_rng(seed)
        movable = [c.index for c in nl.cells if not c.fixed]
        cells = order(
            rng.choice(movable, size=count, replace=False)
        ).astype(np.int64)
        # coincident positions exercise the lexsort tie-breaks
        nl.x[cells[:coincident]] = 17.5
        nl.y[cells[:coincident]] = 12.25

        ref = build_random_netlist(80, 40, seed, DIE)
        ref.x[:] = nl.x
        ref.y[:] = nl.y
        _reference_spread(ref, cells.tolist(), rects)

        _mv, half_w, half_h = nl.cell_dims()
        new_x, new_y = spread_into_rects(
            cells,
            nl.x[cells],
            nl.y[cells],
            half_w[cells],
            half_h[cells],
            rect_array(rects),
        )
        assert new_x.tobytes() == ref.x[cells].tobytes()
        assert new_y.tobytes() == ref.y[cells].tobytes()

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
        self._check(seed, rects)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_cells_wider_than_their_rectangle(self, seed):
        # cells are 1-2 wide and 1 high: both rectangles are too thin
        self._check(
            seed, [Rect(5, 5, 5.5, 40), Rect(10, 10, 30, 10.4)]
        )

    @pytest.mark.parametrize(
        "rects",
        [
            [Rect(10, 10, 10, 30)],
            [Rect(0, 0, 20, 0), Rect(30, 5, 30, 25), Rect(40, 40, 40, 40)],
        ],
    )
    def test_zero_area_rectangles(self, rects):
        self._check(2, rects)

    def test_more_rectangles_than_cells(self):
        rects = [
            Rect(4 * i, 3 * j, 4 * i + 3, 3 * j + 2)
            for i in range(5)
            for j in range(4)
        ]
        self._check(4, rects, count=9)

    @pytest.mark.parametrize("seed", [0, 6])
    @pytest.mark.parametrize("coincident", [7, 33])
    def test_ids_in_non_ascending_order(self, seed, coincident):
        # with every cell on one point, the input order alone decides
        # which rectangle a cell goes to
        rng = np.random.default_rng(seed + 100)
        self._check(
            seed,
            [Rect(0, 0, 20, 20), Rect(20, 0, 50, 10)],
            order=rng.permutation,
            coincident=coincident,
        )

    def test_single_cell(self):
        self._check(7, [Rect(5, 5, 6, 40), Rect(6, 5, 30, 6)], count=1)


# ----------------------------------------------------------------------
# cost kernel == per-target RectSet distances with inf masking
# ----------------------------------------------------------------------
class TestCostKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_target_distances(self, seed):
        rng = np.random.default_rng(seed)
        n, k = 60, 7
        xs = rng.uniform(-10.0, 110.0, n)
        ys = rng.uniform(-10.0, 110.0, n)
        xs[:5] = 25.0  # on a rectangle edge or inside one
        areas = []
        for j in range(k):
            if j % 3 == 2:
                areas.append(RectSet())  # a target without rectangles
                continue
            rects = []
            for _ in range(int(rng.integers(1, 4))):
                x0, y0 = rng.uniform(0.0, 90.0, 2)
                w, h = rng.uniform(0.5, 30.0, 2)
                rects.append(Rect(x0, y0, x0 + w, y0 + h))
            areas.append(RectSet(rects))
        admit = rng.random((n, k)) < 0.6
        admit[:, 0] = False  # a target no cell may use
        costs = transport_costs(
            xs, ys, admit, [rect_array(a) for a in areas]
        )

        expected = np.full((n, k), np.inf)
        for j, area in enumerate(areas):
            if area.is_empty:
                continue
            d = area.distances_to_points(xs, ys)
            expected[admit[:, j], j] = d[admit[:, j]]
        assert costs.tobytes() == expected.tobytes()
        assert np.isinf(costs[:, 0]).all()
        assert np.isinf(costs[:, 2]).all()
        assert np.isfinite(costs).any()


# ----------------------------------------------------------------------
# serial vs pool-N: byte-identical
# ----------------------------------------------------------------------
class TestRealizeIdentity:
    def test_pool_and_tiling_invariant(self):
        """Pool sizes 0, 1 and 4, hence 1, 1 and 4 dispatch units."""
        baseline = None
        for pool in (0, 1, 4):
            nl, bounds, grid = _instance(3)
            rep = _partition(nl, bounds, grid, pool=pool)
            assert rep.feasible
            state = _state(nl, rep)
            if baseline is None:
                baseline = state
            else:
                assert state == baseline

    def test_movebound_instance_invariant(self):
        baseline = None
        for pool in (0, 4):
            nl, bounds, grid = _mb_instance(3)
            rep = _partition(nl, bounds, grid, pool=pool)
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
        """The trivial instances of real partitions, solved by the
        closed form and by the LP route: identical positions and
        assignments, bit for bit.  The 7 x 7 movebound grid has
        multi-region windows, so a ``trivial`` instance whose
        assignment is not forced would show here."""
        built = []
        batch = pool_mod.solve_instance_batch

        def capture(instances, *args, **kwargs):
            built.append(instances)
            return batch(instances, *args, **kwargs)

        monkeypatch.setattr(pool_mod, "solve_instance_batch", capture)
        for nl, bounds, grid in (_instance(5), _mb_instance(5, windows=7)):
            assert _partition(nl, bounds, grid).feasible
        trivial = [i for insts in built for i in insts if i.trivial]
        assert trivial
        assert any(len(i.caps) > 1 for insts in built for i in insts)
        fast = solve_instances(trivial, RELAX_CHAIN_WINDOW, realize=True)
        general = solve_instances(trivial, RELAX_CHAIN_WINDOW)
        for inst, f, g in zip(trivial, fast, general, strict=True):
            assert math.isnan(f.cost) and not math.isnan(g.cost)
            assert f.target.tobytes() == g.target.tobytes()
            fx, fy = spread_step(inst, f.target)
            gx, gy = spread_step(inst, g.target)
            assert fx.tobytes() == gx.tobytes()
            assert fy.tobytes() == gy.tobytes()

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
        rep_p = _partition(nl_p, bounds_p, grid_p, pool=2)
        reset_faults()
        assert rep_p.feasible
        assert counters.get("pool.worker_deaths", 0) > before
        assert _state(nl_p, rep_p) == _state(nl_s, rep_s)

    def test_unit_failed_out_of_the_pool_is_solved_in_process(
        self, monkeypatch
    ):
        """A realize unit that exhausts ``_MAX_FAILURES`` is solved by the
        supervisor's serial fallback as a realize unit, whatever message
        the supervisor read last (here: the stalled worker's ``start``
        heartbeat, read before its deadline reaps it)."""
        nl_s, bounds_s, grid_s = _instance(7)
        rep_s = _partition(nl_s, bounds_s, grid_s)
        monkeypatch.setattr(pool_mod, "_MAX_FAILURES", 1)
        reset_faults()
        install_fault_plan("worker.stall=stall:60@1")
        counters = get_tracer().counters
        before = counters.get("pool.serial_fallbacks", 0)
        nl_p, bounds_p, grid_p = _instance(7)
        try:
            rep_p = _partition(
                nl_p, bounds_p, grid_p, pool=2, task_timeout=0.5
            )
        finally:
            reset_faults()
        assert counters.get("pool.serial_fallbacks", 0) > before
        assert _state(nl_p, rep_p) == _state(nl_s, rep_s)

    def test_pool_units_cover_specs_in_window_order(self):
        """A pool of N gets at most N non-empty contiguous units: every
        instance once, in batch order, and the results come back in
        batch order."""

        def dummy(widx):
            e = np.empty(0)
            z = np.empty(0, dtype=np.int64)
            return TransportInstance(
                cells=z, codes=z, admits=np.ones((1, 1), dtype=bool),
                xs=e, ys=e, sizes=e, half_w=e, half_h=e,
                caps=np.array([1.0 + widx]), rects=(np.empty((0, 4)),),
            )

        class RecordingPool:
            def __init__(self, num_workers):
                self.num_workers = num_workers
                self.units = None

            def solve_realize_units(self, units, chain, realize):
                self.units = units
                return [[id(inst) for inst in u] for u in units]

        instances = [dummy(w) for w in range(0, 64, 3)]
        order = [id(inst) for inst in instances]
        for workers in (1, 3, 4, 50):
            pool = RecordingPool(workers)
            with activated(pool):
                results = solve_instance_batch(instances)
            assert 1 <= len(pool.units) <= workers
            assert all(len(u) for u in pool.units)
            assert [id(i) for u in pool.units for i in u] == order
            assert results == order


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
        """Serial vs ``--pool-workers 2`` with dispatch forced (the
        autouse ``_force_dispatch``)."""
        outs = {}
        for tag, extra in {
            "serial": [],
            "pooled": ["--pool-workers", "2"],
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
        monkeypatch.setattr(pool_mod, "_POOL_MIN_WORK", DEFAULT_MIN_WORK)
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

    def test_zero_min_work_forces_dispatch(self):
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
        monkeypatch.setattr(pool_mod, "_POOL_MIN_WORK", DEFAULT_MIN_WORK)
        built = []
        batch = pool_mod.solve_instance_batch

        def capture(instances, *args, **kwargs):
            built.append(instances)
            return batch(instances, *args, **kwargs)

        monkeypatch.setattr(pool_mod, "solve_instance_batch", capture)
        counters = get_tracer().counters
        before = counters.get("pool.realize_units", 0)
        nl, bounds, grid = _instance(9)
        rep = _partition(nl, bounds, grid, pool=2)
        assert rep.feasible
        assert built and all(i.trivial for insts in built for i in insts)
        assert counters.get("pool.realize_units", 0) == before


# ----------------------------------------------------------------------
# recursive partitioning: serial vs pool-N, byte-identical
# ----------------------------------------------------------------------
class TestRecursiveIdentity:
    @staticmethod
    def _run(pool):
        nl, mbs, _grid = _mb_instance(4)
        decomposition = decompose_regions(DIE, mbs, nl.blockages)
        if pool:
            with WindowSolverPool(pool) as p, activated(p):
                rep = recursive_partition(
                    nl, mbs, decomposition, 3, density_target=0.9
                )
        else:
            rep = recursive_partition(
                nl, mbs, decomposition, 3, density_target=0.9
            )
        return (
            _positions(nl),
            sorted(rep.final_assignment.items()),
            rep.local_infeasibilities,
            rep.relaxations,
        )

    @pytest.mark.parametrize("pool", [1, 4])
    def test_pooled_equals_serial(self, pool):
        """With ``_POOL_MIN_WORK`` at 0 (the autouse ``_force_dispatch``)
        every level's batch goes through the pool."""
        serial = self._run(0)
        counters = get_tracer().counters
        before = counters.get("pool.realize_units", 0)
        assert self._run(pool) == serial
        assert counters.get("pool.realize_units", 0) > before
