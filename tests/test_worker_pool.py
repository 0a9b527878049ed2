"""Supervised window-solver pool: determinism and fault recovery.

The pool's contract is that *nothing about parallel execution is
observable in the output*: any pool size, any crash/stall/requeue
history, and the plain serial path produce bit-identical flows — the
supervisor merges results by task index and every solve is a pure
function of its arrays.
"""

import numpy as np
import pytest

from repro.flows import (
    RELAX_CHAIN_PARTITION,
    RELAX_CHAIN_WINDOW,
    solve_transportation_with_relaxation,
)
from repro.movebounds import MoveBoundSet
from repro.obs import get_tracer
from repro.place import BonnPlaceFBP
from repro.resilience import install_fault_plan, reset_faults
from repro.runstate import pool as pool_mod
from repro.runstate import (
    WindowSolverPool,
    activated,
    get_active_pool,
    solve_transport_batch,
)
from repro.workloads import NetlistSpec, generate_netlist


@pytest.fixture(autouse=True)
def _clean_faults():
    reset_faults()
    yield
    reset_faults()


def _tasks(num_tasks=8, seed=0):
    """Feasible transportation tasks of varying shapes."""
    rng = np.random.default_rng(seed)
    tasks = []
    for _ in range(num_tasks):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(2, 6))
        supplies = rng.uniform(0.5, 3.0, n)
        caps = rng.uniform(0.5, 2.0, m)
        caps *= 1.2 * supplies.sum() / caps.sum()  # headroom: feasible
        costs = rng.uniform(0.0, 10.0, (n, m))
        tasks.append((supplies, caps, costs))
    return tasks


def _serial(tasks, chain=RELAX_CHAIN_WINDOW):
    return [
        solve_transportation_with_relaxation(s, c, k, chain=chain)
        for s, c, k in tasks
    ]


def _assert_identical(got, want):
    assert len(got) == len(want)
    for (res_g, stage_g), (res_w, stage_w) in zip(got, want):
        assert stage_g == stage_w
        assert res_g.feasible == res_w.feasible
        # bit-for-bit, not approx: parallelism must be unobservable
        assert res_g.flow.tobytes() == res_w.flow.tobytes()
        assert res_g.cost == res_w.cost


class TestPoolDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_pool_matches_serial_bit_for_bit(self, workers):
        tasks = _tasks(10, seed=workers)
        want = _serial(tasks)
        with WindowSolverPool(workers) as pool:
            got = pool.solve_batch(tasks)
        _assert_identical(got, want)

    def test_partition_chain_matches_serial(self):
        tasks = _tasks(6, seed=7)
        want = _serial(tasks, chain=RELAX_CHAIN_PARTITION)
        with WindowSolverPool(2) as pool:
            got = pool.solve_batch(tasks, chain=RELAX_CHAIN_PARTITION)
        _assert_identical(got, want)

    def test_empty_batch(self):
        with WindowSolverPool(2) as pool:
            assert pool.solve_batch([]) == []

    def test_repeated_batches_reuse_workers(self):
        tasks = _tasks(4, seed=3)
        want = _serial(tasks)
        with WindowSolverPool(2) as pool:
            for _ in range(3):
                _assert_identical(pool.solve_batch(tasks), want)

    def test_closed_pool_rejects_work(self):
        pool = WindowSolverPool(1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.solve_batch(_tasks(2))


class TestActivePoolRouting:
    def test_solve_transport_batch_serial_without_pool(self):
        assert get_active_pool() is None
        tasks = _tasks(3, seed=1)
        _assert_identical(solve_transport_batch(tasks), _serial(tasks))

    def test_solve_transport_batch_routes_through_active_pool(self):
        tasks = _tasks(5, seed=2)
        want = _serial(tasks)
        with WindowSolverPool(2) as pool, activated(pool):
            assert get_active_pool() is pool
            _assert_identical(solve_transport_batch(tasks), want)
        assert get_active_pool() is None


class TestPoolSupervision:
    def _counters(self):
        return get_tracer().counters

    def test_killed_worker_is_replaced_and_task_requeued(self):
        tasks = _tasks(6, seed=4)
        want = _serial(tasks)
        # the first task pickup hard-exits its worker (SIGKILL
        # semantics); fork inheritance arms the plan inside workers
        install_fault_plan("worker.kill=kill@1")
        before = dict(self._counters())
        with WindowSolverPool(2) as pool:
            got = pool.solve_batch(tasks)
        _assert_identical(got, want)
        after = self._counters()
        assert after.get("pool.worker_deaths", 0) > before.get(
            "pool.worker_deaths", 0
        )
        assert after.get("pool.requeues", 0) > before.get(
            "pool.requeues", 0
        )

    def test_stalled_worker_is_killed_and_task_requeued(self):
        tasks = _tasks(5, seed=5)
        want = _serial(tasks)
        # first pickup wedges for 60s; a 0.5s deadline reaps it
        install_fault_plan("worker.stall=stall:60@1")
        before = dict(self._counters())
        with WindowSolverPool(2, task_timeout=0.5) as pool:
            got = pool.solve_batch(tasks)
        _assert_identical(got, want)
        after = self._counters()
        assert after.get("pool.worker_stalls", 0) > before.get(
            "pool.worker_stalls", 0
        )

    def test_repeated_crashes_fall_back_to_serial_in_process(self):
        tasks = _tasks(4, seed=6)
        want = _serial(tasks)
        # every pickup dies: every task exhausts the failure limit and
        # is solved serially by the supervisor — slow, never wrong
        install_fault_plan("worker.kill=kill")
        before = dict(self._counters())
        with WindowSolverPool(2) as pool:
            got = pool.solve_batch(tasks)
        _assert_identical(got, want)
        after = self._counters()
        assert after.get("pool.serial_fallbacks", 0) >= before.get(
            "pool.serial_fallbacks", 0
        ) + len(tasks)

    def test_respawn_backoff_paces_crash_loop(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_RESPAWN_BACKOFF_CAP", 0.2)
        tasks = _tasks(3, seed=8)
        want = _serial(tasks)
        # every pickup dies → every death must arm the exponential
        # respawn backoff; output is still bit-identical (the serial
        # fallback solves the same pure function)
        install_fault_plan("worker.kill=kill")
        before = dict(self._counters())
        with WindowSolverPool(2) as pool:
            got = pool.solve_batch(tasks)
            assert pool._loss_streak > 0
        _assert_identical(got, want)
        after = self._counters()
        assert after.get("pool.respawn_backoff", 0) > before.get(
            "pool.respawn_backoff", 0
        )

    def test_backoff_resets_after_healthy_unit(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_RESPAWN_BACKOFF_CAP", 0.2)
        tasks = _tasks(4, seed=10)
        want = _serial(tasks)
        # a crash-loop batch arms the backoff; a healthy batch must
        # disarm it (every completed unit clears the loss streak)
        install_fault_plan("worker.kill=kill")
        with WindowSolverPool(2) as pool:
            _assert_identical(pool.solve_batch(tasks), want)
            assert pool._loss_streak > 0
            reset_faults()
            _assert_identical(pool.solve_batch(tasks), want)
            assert pool._loss_streak == 0


class TestEndToEndPlacement:
    def _place(self, workers, seed=9):
        spec = NetlistSpec("pooltest", 200, utilization=0.5, num_pads=8)
        nl, _logical = generate_netlist(spec, seed=seed)
        placer = BonnPlaceFBP()
        placer.options.legalize = False
        if workers:
            with WindowSolverPool(workers) as pool, activated(pool):
                placer.place(nl, MoveBoundSet(nl.die))
        else:
            placer.place(nl, MoveBoundSet(nl.die))
        return nl.x.tobytes(), nl.y.tobytes()

    def test_pooled_placement_bit_identical_to_serial(self):
        serial = self._place(0)
        pooled = self._place(4)
        assert pooled == serial

    @pytest.mark.slow
    def test_pooled_placement_identical_under_worker_kill(self):
        serial = self._place(0)
        reset_faults()
        install_fault_plan("worker.kill=kill@2")
        pooled = self._place(2)
        assert pooled == serial
