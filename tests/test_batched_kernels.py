"""Batches of window transportation instances across the shape space.

Seeded instances of every shape a window produces — degenerate 1xk /
nx1, square, rectangular, capacity-tight, infeasible-then-relaxed,
rows converging at very different pivots, rows feasible at different
relaxation stages — solved through the batch entry point
:func:`repro.runstate.solve_transport_batch` and the supervised
:class:`repro.runstate.WindowSolverPool`, whose workers run the same
transportation solver (closed-form front end, then HiGHS).  Every batch must
return the per-task serial solves bit for bit (stage, verdict, flow
bytes, cost bits, pivots), and every task the networkx oracle's
relaxation stage and cost (:mod:`tests.flow_oracle`).  Supplies and
costs sit on the oracle's 1/64 grid and capacities on its 10/64 grid,
so every relaxed stage is on the grid too.

Every generator is a pure function of ``(bucket, seed)``: a failure
report of ``bucket=X seed=N`` reproduces from the command line.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest

from repro.flows.transportation import (
    RELAX_CHAIN_PARTITION,
    RELAX_CHAIN_WINDOW,
    solve_transportation_with_relaxation,
)
from repro.obs import get_tracer
from repro.resilience import install_fault_plan, reset_faults
from repro.runstate import WindowSolverPool, solve_transport_batch
from tests.flow_oracle import (
    assert_matches,
    on_grid,
    on_relax_grid,
    relaxation_oracle,
)

#: one window transportation instance, in task-tuple form
Task = Tuple[np.ndarray, np.ndarray, np.ndarray]


@pytest.fixture(autouse=True)
def _reset_faults():
    reset_faults()
    yield
    reset_faults()


def _counters():
    return get_tracer().counters


# ----------------------------------------------------------------------
# shape-space generators
# ----------------------------------------------------------------------
# Each bucket fixes the cost-matrix shape (n, k); the topology still
# varies per instance (forbidden-arc masks).
BUCKET_SHAPES: Dict[str, Tuple[int, int]] = {
    "degenerate_1xk": (1, 5),
    "degenerate_nx1": (6, 1),
    "square": (5, 5),
    "rect_wide": (3, 8),
    "rect_tall": (12, 3),
    "capacity_tight": (8, 4),
    "infeasible_then_relaxed": (7, 3),
}

#: bucket names in a stable order for parametrization
BUCKETS: Tuple[str, ...] = tuple(BUCKET_SHAPES)


def _gridded(supplies, capacities, costs) -> Task:
    return on_grid(supplies), on_relax_grid(capacities), on_grid(costs)


def make_instance(bucket: str, seed: int) -> Task:
    """One seeded instance of the named shape bucket."""
    n, k = BUCKET_SHAPES[bucket]
    # zlib.crc32 (not hash()) keeps the stream stable across processes
    rng = np.random.default_rng(zlib.crc32(bucket.encode()) * 100003 + seed)
    supplies = rng.uniform(0.5, 5.0, n)
    capacities = rng.uniform(1.0, 8.0, k)
    costs = rng.uniform(0.0, 30.0, (n, k))
    if bucket == "capacity_tight":
        # total capacity about total supply: every sink near-saturated
        # (degenerate pivots likely), some instances short at stage 0
        capacities *= (supplies.sum() * 1.001) / capacities.sum()
    elif bucket == "infeasible_then_relaxed":
        # stage 0 (x1.0) short by ~6%, stage 1 (x1.1) feasible
        capacities *= (supplies.sum() * 0.94) / capacities.sum()
    else:
        capacities *= (supplies.sum() * rng.uniform(1.05, 1.6)) / capacities.sum()
    if k > 1 and bucket != "infeasible_then_relaxed":
        # movebound-inadmissible pairs; keep one finite arc per source
        forbid = rng.random((n, k)) < 0.25
        forbid[np.arange(n), rng.integers(0, k, n)] = False
        costs[forbid] = np.inf
    return _gridded(supplies, capacities, costs)


def make_batch(bucket: str, seed: int, size: int) -> List[Task]:
    """``size`` same-shaped instances of one bucket."""
    return [make_instance(bucket, seed * 1009 + j) for j in range(size)]


def make_mixed_convergence_batch(seed: int, size: int = 6) -> List[Task]:
    """Same-shaped instances with wildly different pivot counts: even
    rows are near-trivial (uniform costs), odd rows carry adversarial
    costs and tight capacities."""
    rng = np.random.default_rng(0xC0FFEE + seed)
    n, k = 9, 4
    tasks: List[Task] = []
    for j in range(size):
        supplies = rng.uniform(0.5, 4.0, n)
        capacities = rng.uniform(1.0, 6.0, k)
        if j % 2 == 0:
            capacities *= (supplies.sum() * 1.5) / capacities.sum()
            costs = np.full((n, k), 1.0)
        else:
            capacities *= (supplies.sum() * 1.002) / capacities.sum()
            costs = rng.uniform(0.0, 100.0, (n, k))
        tasks.append(_gridded(supplies, capacities, costs))
    return tasks


def make_mixed_feasibility_batch(seed: int, size: int = 6) -> List[Task]:
    """Same-shaped instances where only some rows are feasible at
    stage 0; the rest need the relaxation chain."""
    rng = np.random.default_rng(0xFEA51B1E + seed)
    n, k = 7, 3
    tasks: List[Task] = []
    for j in range(size):
        supplies = rng.uniform(0.5, 4.0, n)
        capacities = rng.uniform(1.0, 6.0, k)
        scale = 1.3 if j % 3 else 0.93  # every third row under-capped
        capacities *= (supplies.sum() * scale) / capacities.sum()
        costs = rng.uniform(0.0, 25.0, (n, k))
        tasks.append(_gridded(supplies, capacities, costs))
    return tasks


# ----------------------------------------------------------------------
# reference solves and assertions
# ----------------------------------------------------------------------
def solve_serial(tasks: Sequence[Task], chain=RELAX_CHAIN_WINDOW):
    """Solve each task on its own, in-process."""
    return [
        solve_transportation_with_relaxation(s, c, costs, chain=chain)
        for s, c, costs in tasks
    ]


def assert_results_identical(got, want, pivots: bool = True) -> None:
    """Bit-for-bit equality of two ``(result, stage)`` lists: stage,
    feasibility, flow bytes, cost bits and (by default) pivot count."""
    assert len(got) == len(want)
    for i, ((rg, sg), (rw, sw)) in enumerate(zip(got, want)):
        assert sg == sw, f"task {i}: stage {sg} != {sw}"
        assert rg.feasible == rw.feasible, f"task {i}: feasibility"
        assert rg.flow.tobytes() == rw.flow.tobytes(), f"task {i}: flow bytes"
        assert rg.cost == rw.cost, f"task {i}: cost bits differ"
        if pivots:
            assert (
                rg.stats.pivots == rw.stats.pivots
            ), f"task {i}: pivots {rg.stats.pivots} != {rw.stats.pivots}"


def assert_matches_oracle(tasks, results, chain=RELAX_CHAIN_WINDOW) -> None:
    """Each task's stage and cost are the oracle's, and a feasible flow
    ships every supply within that stage's capacities on admissible
    pairs only."""
    assert len(results) == len(tasks)
    for i, ((s, c, costs), (res, stage)) in enumerate(zip(tasks, results)):
        want_stage, want = relaxation_oracle(s, c, costs, chain)
        assert stage == want_stage, f"task {i}: stage {stage} != {want_stage}"
        assert_matches(res.feasible, res.cost, want)
        if res.feasible:
            mult, frac = chain[stage]
            caps = c * mult + frac * s.sum()
            assert np.allclose(res.flow.sum(axis=1), s, rtol=0, atol=1e-9)
            assert np.all(res.flow.sum(axis=0) <= caps + 1e-9)
            assert np.all(res.flow[~np.isfinite(costs)] == 0.0)


def assert_batch_identity(tasks: Sequence[Task], chain=RELAX_CHAIN_WINDOW) -> None:
    """The core check: the batch entry point returns the per-task
    serial solves exactly, and each is the oracle's answer."""
    got = solve_transport_batch(tasks, chain=chain)
    assert_results_identical(got, solve_serial(tasks, chain=chain))
    assert_matches_oracle(tasks, got, chain)


# ----------------------------------------------------------------------
# the per-bucket sweep (~100 instances/bucket)
# ----------------------------------------------------------------------
class TestShapeBucketSweep:
    @pytest.mark.parametrize("bucket", BUCKETS)
    def test_hundred_instance_sweep(self, bucket):
        for seed in range(10):
            assert_batch_identity(make_batch(bucket, seed, 10))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("bucket", BUCKETS)
    def test_small_batch_identity(self, bucket, seed):
        assert_batch_identity(make_batch(bucket, 1000 + seed, 4))

    @pytest.mark.parametrize("bucket", BUCKETS)
    def test_partition_chain_identity(self, bucket):
        assert_batch_identity(make_batch(bucket, 77, 5), chain=RELAX_CHAIN_PARTITION)


class TestMixedBuckets:
    """Batches whose rows converge at different pivots or stages."""

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_convergence(self, seed):
        assert_batch_identity(make_mixed_convergence_batch(seed))

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_feasibility_stages(self, seed):
        tasks = make_mixed_feasibility_batch(seed)
        assert_batch_identity(tasks)
        stages = {stage for _res, stage in solve_serial(tasks)}
        assert 0 in stages and len(stages) > 1

    def test_multi_shape_task_list(self):
        # one call mixing several shapes: results stay index-aligned
        # with the input order
        tasks = (
            make_batch("square", 5, 3)
            + make_batch("rect_tall", 5, 2)
            + make_batch("square", 6, 2)
            + make_batch("degenerate_1xk", 5, 3)
        )
        assert_batch_identity(tasks)


# ----------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------
class TestBucketingEdgeCases:
    def test_empty_task_list(self):
        assert solve_transport_batch([]) == []

    def test_zero_supply_instance(self):
        tasks = [(np.zeros(0), np.array([2.0, 3.0]), np.zeros((0, 2)))] * 2
        got = solve_transport_batch(tasks)
        for result, stage in got:
            assert result.feasible
            assert stage == 0
            assert result.flow.shape == (0, 2)
            assert result.cost == 0.0

    def test_quick_infeasible_every_stage(self):
        """A source with only inf-cost arcs is infeasible at every
        relaxation stage: the last stage is reported, infeasible."""
        s, c, costs = make_instance("square", 50)
        costs = costs.copy()
        costs[2, :] = np.inf
        tasks = [(s, c, costs)] * 3
        got = solve_transport_batch(tasks)
        assert_results_identical(got, solve_serial(tasks))
        for result, stage in got:
            assert not result.feasible
            assert stage == len(RELAX_CHAIN_WINDOW) - 1
            assert result.stats.method == "no_admissible_sink"


# ----------------------------------------------------------------------
# the supervised pool
# ----------------------------------------------------------------------
class TestPoolBatched:
    def _tasks(self):
        return (
            make_batch("square", 80, 4)
            + make_batch("rect_tall", 80, 3)
            + make_batch("degenerate_1xk", 80, 3)
            + make_batch("capacity_tight", 80, 2)
        )

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_pool_batched_matches_serial_object(self, workers):
        """Any pool size returns the serial solves bit for bit."""
        tasks = self._tasks()
        want = solve_serial(tasks)
        with WindowSolverPool(workers) as pool:
            got = pool.solve_batch(tasks)
        assert_results_identical(got, want)
        assert_matches_oracle(tasks, got)

    def test_worker_kill_requeues_whole_bucket(self):
        """A worker killed mid-task loses that task; the replacement
        re-solves it and the merged results stay bit-identical."""
        tasks = make_batch("square", 80, 3) + make_batch("rect_tall", 80, 2)
        want = solve_serial(tasks)
        install_fault_plan("worker.kill=kill@1")
        before = dict(_counters())
        with WindowSolverPool(2) as pool:
            got = pool.solve_batch(tasks)
        assert_results_identical(got, want)
        after = _counters()
        assert after.get("pool.worker_deaths", 0) > before.get("pool.worker_deaths", 0)
        assert after.get("pool.requeues", 0) > before.get("pool.requeues", 0)

    def test_every_worker_crash_falls_back_serially(self):
        """Permanent crashes: every task exhausts the failure limit and is
        solved serially in the supervisor — identical bits."""
        tasks = make_batch("square", 90, 3) + make_batch("rect_wide", 90, 2)
        want = solve_serial(tasks)
        install_fault_plan("worker.kill=kill")
        before = dict(_counters())
        with WindowSolverPool(2) as pool:
            got = pool.solve_batch(tasks)
        assert_results_identical(got, want)
        after = _counters()
        assert after.get("pool.serial_fallbacks", 0) >= before.get(
            "pool.serial_fallbacks", 0
        ) + len(tasks)


class TestBatchedSimplexDirect:
    def test_rows_expose_per_row_pivot_stats(self):
        """Each row of a batch carries its own solve's stats."""
        tasks = make_batch("square", 400, 4)
        got = solve_transport_batch(tasks)
        want = solve_serial(tasks)
        for (s, _c, costs), (rg, _), (rw, _) in zip(tasks, got, want):
            assert rg.stats.method == rw.stats.method == "lp"
            assert rg.stats.pivots == rw.stats.pivots > 0
            assert rg.stats.nodes == len(s) + costs.shape[1]
            assert rg.stats.arcs == int(np.isfinite(costs).sum())
