"""Supervised parallel window-solver pool (paper §IV.B, BonnPlace).

The per-window transportation solves of the partitioning step are
naturally independent — BonnPlace exploits exactly this for its
parallel speedups.  This pool executes batches of such solves across
``multiprocessing`` workers under *supervision*:

* each worker heartbeats by messaging task start / completion; the
  supervisor additionally polls process liveness every tick,
* every task carries a deadline (budget-aware: derived from the
  process-wide :class:`~repro.resilience.budget.SolverBudget` wall
  limit when one is set),
* a crashed worker (nonzero exit, e.g. an injected ``worker.kill``
  fault or a real OOM kill) or a stalled worker (deadline exceeded,
  e.g. ``worker.stall``) is killed and replaced, and its in-flight
  task is requeued,
* a task that fails ``max_failures`` times is solved *serially in the
  supervisor process* — the pool degrades to correct-but-slow, it
  never loses a window.

Determinism: workers execute
:func:`~repro.flows.transportation.solve_transportation_with_relaxation`
(one window per dispatch unit) or
:func:`~repro.fbp.realize_windows.realize_unit` (one tile of windows),
pure functions of their inputs, and the supervisor merges results by
unit index.  Scheduling order, worker count, crashes, and requeues
therefore cannot change the output — pool size 1, pool size 8, a
crashing pool, and the plain serial path are bit-identical.  A unit
lost to a crash is re-solved from scratch, so partial progress can
never leak into the merged results.

Fault-injection sites (fire *inside* the worker process; plans are
inherited across ``fork``):

* ``worker.kill``  — ``kill`` rules hard-exit the worker at task start,
* ``worker.stall`` — ``stall:SECONDS`` rules wedge the worker at task
  start.
"""

from __future__ import annotations

import os
import queue as queue_mod
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.flows.transportation import (
    RELAX_CHAIN_WINDOW,
    TransportResult,
    solve_transportation_with_relaxation,
)
from repro.obs import incr, span
from repro.resilience.budget import get_default_budget
from repro.resilience.faultinject import inject

__all__ = [
    "TransportTask",
    "WindowSolverPool",
    "get_active_pool",
    "activated",
    "solve_transport_batch",
    "solve_realize_batch",
]

#: (supplies, capacities, costs) of one window's transportation problem
TransportTask = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: how often the supervisor wakes to check liveness/deadlines (seconds)
_TICK = 0.05

#: grace period stacked on a budget-derived deadline: the in-worker
#: budget clock should fire first, the pool deadline is the backstop
_BUDGET_GRACE = 2.0

_DEFAULT_TASK_TIMEOUT = 60.0

#: minimum batch work (cost-matrix elements) below which routing a
#: batch through an active pool is pure IPC overhead: the batch is
#: solved in-process instead (``pool.serial_shortcircuits``).  The
#: threshold is deterministic — it depends only on the batch shapes —
#: so it cannot affect output bits, only where they are computed.
_POOL_MIN_WORK = 32768


def _pool_min_work() -> int:
    """The active min-work threshold (``REPRO_POOL_MIN_WORK``
    overrides; 0 disables short-circuiting, for tests that must force
    dispatch)."""
    raw = os.environ.get("REPRO_POOL_MIN_WORK")
    if raw is None:
        return _POOL_MIN_WORK
    try:
        return int(raw)
    except ValueError:
        return _POOL_MIN_WORK


def _solve_unit(kind: str, payload: tuple):
    """Solve one dispatch unit of either kind; the single pure
    function both workers and the supervisor's serial fallback run, so
    every execution path produces identical bits.

    ``"transport"`` payloads are ``(task, chain)`` and return the
    task's ``(result, stage)``; ``"realize"`` payloads are
    ``(specs, chain)`` (see
    :func:`repro.fbp.realize_windows.realize_unit`).
    """
    if kind == "realize":
        from repro.fbp.realize_windows import realize_unit

        specs, chain = payload
        return realize_unit(specs, chain=chain)
    (supplies, caps, costs), chain = payload
    return solve_transportation_with_relaxation(
        supplies, caps, costs, chain=chain
    )


def _worker_main(worker_id: int, task_q, result_q) -> None:
    """Worker loop: pull one unit, solve, report, repeat.

    Messages on ``result_q``:
    ``("start", wid, unit_id)`` — heartbeat at unit pickup;
    ``("done", wid, unit_id, results)`` — solved, ``results`` is the
    unit's result (the task's ``(result, stage)`` for transport units,
    a :class:`WindowOutcome` list for realize units);
    ``("error", wid, unit_id, repr)`` — solver raised (the supervisor
    treats it as a unit failure, not a worker death).
    """
    while True:
        item = task_q.get()
        if item is None:
            return
        unit_id, kind, payload = item
        result_q.put(("start", worker_id, unit_id))
        try:
            inject("worker.kill")
            inject("worker.stall")
            results = _solve_unit(kind, payload)
            result_q.put(("done", worker_id, unit_id, results))
        except BaseException as exc:  # noqa: BLE001 — must not kill loop
            try:
                result_q.put(("error", worker_id, unit_id, repr(exc)))
            except Exception:
                return


@dataclass
class _WorkerHandle:
    """Supervisor-side view of one worker process."""

    worker_id: int
    process: object
    task_q: object
    #: (unit_id, dispatched item, deadline) while busy, else None
    current: Optional[Tuple[int, tuple, float]] = None


class WindowSolverPool:
    """A fixed-size supervised pool of transportation solvers.

    Parameters
    ----------
    num_workers:
        Worker processes.  0 (or 1 worker being cheaper than IPC for a
        single task) still produces identical results — only wall time
        changes.
    task_timeout:
        Per-task deadline in seconds.  Default: twice the process-wide
        solver budget's wall limit (plus grace) when one is set, else
        60 s.
    max_failures:
        Crashes/stalls/errors a single task may suffer before the
        supervisor solves it serially in-process.
    respawn_backoff_base / respawn_backoff_cap:
        Replacement workers are respawned under exponential backoff:
        after ``n`` consecutive worker deaths/stalls the next spawn
        waits ``min(cap, base * 2^(n-1))`` seconds.  A completed unit
        resets the streak.  This keeps a crash-looping fault (every
        pickup dies) from fork-spinning the host while it burns down
        to the serial fallback; the added wall time is bounded by
        ``cap`` per death and changes no output bits.
    """

    def __init__(
        self,
        num_workers: int,
        task_timeout: Optional[float] = None,
        max_failures: int = 2,
        respawn_backoff_base: float = 0.05,
        respawn_backoff_cap: float = 1.0,
    ) -> None:
        import multiprocessing as mp

        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        methods = mp.get_all_start_methods()
        # fork inherits installed fault plans and solver budgets, which
        # keeps worker behavior identical to the serial path; fall back
        # to the platform default elsewhere
        self._ctx = mp.get_context("fork" if "fork" in methods else None)
        self.num_workers = num_workers
        self.max_failures = max_failures
        self.respawn_backoff_base = respawn_backoff_base
        self.respawn_backoff_cap = respawn_backoff_cap
        self._explicit_timeout = task_timeout
        self._result_q = self._ctx.Queue()
        self._workers: Dict[int, _WorkerHandle] = {}
        self._next_worker_id = 0
        self._closed = False
        #: consecutive worker deaths/stalls with no completed unit
        self._loss_streak = 0
        #: monotonic time before which no replacement may spawn
        self._next_respawn = 0.0

    # -- lifecycle ------------------------------------------------------
    def _spawn_worker(self) -> _WorkerHandle:
        wid = self._next_worker_id
        self._next_worker_id += 1
        task_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, task_q, self._result_q),
            daemon=True,
            name=f"repro-window-solver-{wid}",
        )
        proc.start()
        handle = _WorkerHandle(wid, proc, task_q)
        self._workers[wid] = handle
        incr("pool.workers_spawned")
        return handle

    def _ensure_workers(self) -> None:
        if len(self._workers) >= self.num_workers:
            return
        if time.monotonic() < self._next_respawn:
            # crash-loop protection: respawn under backoff, not at the
            # supervision tick rate
            return
        while len(self._workers) < self.num_workers:
            self._spawn_worker()

    def _note_worker_loss(self) -> None:
        """Arm the respawn backoff after a death/stall: the next
        replacement waits min(cap, base * 2^(streak-1)) seconds."""
        self._loss_streak += 1
        delay = min(
            self.respawn_backoff_cap,
            self.respawn_backoff_base * (2.0 ** (self._loss_streak - 1)),
        )
        self._next_respawn = max(
            self._next_respawn, time.monotonic() + delay
        )
        incr("pool.respawn_backoff")

    def _retire_worker(self, handle: _WorkerHandle) -> None:
        self._workers.pop(handle.worker_id, None)
        proc = handle.process
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)
        try:
            handle.task_q.close()
        except Exception:
            pass

    def close(self) -> None:
        """Shut the pool down; idempotent."""
        if self._closed:
            return
        self._closed = True
        for handle in list(self._workers.values()):
            try:
                handle.task_q.put(None)
            except Exception:
                pass
        deadline = time.monotonic() + 2.0
        for handle in list(self._workers.values()):
            handle.process.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=5.0)
        self._workers.clear()

    def __enter__(self) -> "WindowSolverPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- supervision ----------------------------------------------------
    @property
    def task_timeout(self) -> float:
        if self._explicit_timeout is not None:
            return self._explicit_timeout
        budget = get_default_budget()
        if budget.max_seconds is not None:
            return 2.0 * budget.max_seconds + _BUDGET_GRACE
        return _DEFAULT_TASK_TIMEOUT

    def solve_batch(
        self,
        tasks: Sequence[TransportTask],
        chain: Tuple[Tuple[float, float], ...] = RELAX_CHAIN_WINDOW,
    ) -> List[Tuple[TransportResult, int]]:
        """Solve every task; returns results in task order.

        Crashed/stalled workers are replaced and their tasks requeued;
        tasks failing ``max_failures`` times are solved in-process.  The
        returned list is index-aligned with ``tasks`` regardless of
        completion order or schedule.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        n = len(tasks)
        if n == 0:
            return []
        payloads = [(task, chain) for task in tasks]
        with span("pool.solve_batch"):
            out = self._run_units("transport", payloads)
        incr("pool.tasks", n)
        return out

    def solve_realize_units(
        self,
        units: Sequence[Sequence],
        chain: Tuple[Tuple[float, float], ...] = RELAX_CHAIN_WINDOW,
    ) -> List[list]:
        """Realize spec units (see
        :func:`repro.fbp.realize_windows.realize_unit`); returns one
        :class:`WindowOutcome` list per unit, in unit order.  Same
        supervision, requeue, and serial-fallback machinery as
        :meth:`solve_batch`."""
        if self._closed:
            raise RuntimeError("pool is closed")
        if not units:
            return []
        payloads = [(list(u), chain) for u in units]
        with span("pool.realize_batch"):
            out = self._run_units("realize", payloads)
        incr("pool.realize_units", len(units))
        return out

    def _run_units(self, kind: str, payloads: Sequence[tuple]) -> List:
        """Run every ``(kind, payload)`` unit under supervision and
        return their results in unit order.  Crashed/stalled workers
        are replaced and their units requeued whole; units failing
        ``max_failures`` times are solved in-process."""
        self._ensure_workers()
        items = [(u, kind, payloads[u]) for u in range(len(payloads))]
        pending: List[tuple] = list(items)
        failures = [0] * len(items)
        unit_results: Dict[int, object] = {}

        def fail_unit(unit_id: int) -> None:
            failures[unit_id] += 1
            if failures[unit_id] >= self.max_failures:
                # terminal: solve the whole unit serially right here —
                # correctness over speed, and bit-identical by
                # construction (same pure function the worker runs)
                incr("pool.serial_fallbacks")
                unit_results[unit_id] = _solve_unit(
                    kind, payloads[unit_id]
                )
            else:
                incr("pool.requeues")
                pending.append(items[unit_id])

        while len(unit_results) < len(items):
            # dispatch to idle workers, lowest unit id first for a
            # stable (though irrelevant to output) schedule
            pending.sort(key=lambda item: item[0])
            idle = [
                h for h in self._workers.values() if h.current is None
            ]
            for handle in idle:
                if not pending:
                    break
                item = pending.pop(0)
                if item[0] in unit_results:  # already serially resolved
                    continue
                handle.current = (
                    item[0],
                    item,
                    time.monotonic() + self.task_timeout,
                )
                handle.task_q.put(item)

            # drain heartbeats/results for one tick
            try:
                msg = self._result_q.get(timeout=_TICK)
            except queue_mod.Empty:
                msg = None
            while msg is not None:
                # (not ``kind``: fail_unit's serial fallback reads that)
                tag, wid, unit_id = msg[0], msg[1], msg[2]
                handle = self._workers.get(wid)
                if tag == "done":
                    self._loss_streak = 0  # healthy: disarm backoff
                    if unit_id not in unit_results:
                        unit_results[unit_id] = msg[3]
                    if handle is not None and handle.current is not None \
                            and handle.current[0] == unit_id:
                        handle.current = None
                elif tag == "error":
                    if handle is not None and handle.current is not None \
                            and handle.current[0] == unit_id:
                        handle.current = None
                    incr("pool.task_errors")
                    if unit_id not in unit_results:
                        fail_unit(unit_id)
                # "start" heartbeats need no action: dispatch already
                # armed the deadline
                try:
                    msg = self._result_q.get_nowait()
                except queue_mod.Empty:
                    msg = None

            # supervise: dead or overdue workers lose their unit
            now = time.monotonic()
            for handle in list(self._workers.values()):
                busy = handle.current
                alive = handle.process.is_alive()
                if busy is None:
                    if not alive:
                        self._note_worker_loss()
                        self._retire_worker(handle)
                    continue
                unit_id, _item, deadline = busy
                if not alive:
                    incr("pool.worker_deaths")
                    self._note_worker_loss()
                    self._retire_worker(handle)
                    if unit_id not in unit_results:
                        fail_unit(unit_id)
                elif now > deadline:
                    incr("pool.worker_stalls")
                    self._note_worker_loss()
                    self._retire_worker(handle)
                    if unit_id not in unit_results:
                        fail_unit(unit_id)
            self._ensure_workers()

        return [unit_results[u] for u in range(len(items))]


# ----------------------------------------------------------------------
# process-wide active pool
# ----------------------------------------------------------------------
_active_pool: Optional[WindowSolverPool] = None


def get_active_pool() -> Optional[WindowSolverPool]:
    """The pool the partitioning call sites should route through, if
    any (None = solve serially, the default)."""
    return _active_pool


@contextmanager
def activated(pool: Optional[WindowSolverPool]):
    """Make ``pool`` the active pool for the duration of the block."""
    global _active_pool
    previous = _active_pool
    _active_pool = pool
    try:
        yield pool
    finally:
        _active_pool = previous


def solve_transport_batch(
    tasks: Sequence[TransportTask],
    chain: Tuple[Tuple[float, float], ...] = RELAX_CHAIN_WINDOW,
) -> List[Tuple[TransportResult, int]]:
    """Solve a batch of window transportation problems through the
    active pool when one is installed (and the batch is worth the IPC),
    else serially.  Output is identical either way."""
    pool = get_active_pool()
    if pool is not None and len(tasks) > 1:
        work = sum(int(costs.size) for _s, _c, costs in tasks)
        if work < _pool_min_work():
            # below the min-work threshold the IPC round-trip costs
            # more than the solves; the in-process path is identical
            incr("pool.serial_shortcircuits")
        else:
            return pool.solve_batch(tasks, chain=chain)
    return [
        solve_transportation_with_relaxation(
            supplies, caps, costs, chain=chain
        )
        for supplies, caps, costs in tasks
    ]


def solve_realize_batch(
    specs: Sequence,
    grid,
    chain: Tuple[Tuple[float, float], ...] = RELAX_CHAIN_WINDOW,
    tiles: Optional[int] = None,
) -> List:
    """Realize a batch of window specs — tile-parallel through the
    active pool when one is installed (and the batch is worth the
    IPC), serially in-process otherwise.  Outcomes come back sorted by
    window index, so the result is bit-identical across pool sizes and
    tilings.

    ``tiles``: windows are grouped into ``tiles x tiles`` spatial
    dispatch units (the same decomposition
    :func:`repro.fbp.sharding.tile_of_windows` gives the sharded flow
    solve); ``None`` picks ``min(8, nx, ny)``, ``0``/``1`` force the
    serial path.  The min-work threshold counts only non-trivial
    windows — closed-form windows never justify a worker round-trip.
    """
    from repro.fbp.realize_windows import realize_unit, tile_units

    if not specs:
        return []
    pool = get_active_pool()
    if pool is not None and len(specs) > 1:
        n_tiles = tiles if tiles is not None else min(8, grid.nx, grid.ny)
        if n_tiles > 1:
            work = sum(
                len(s.cells) * len(s.caps)
                for s in specs
                if not s.trivial
            )
            if work < _pool_min_work():
                incr("pool.serial_shortcircuits")
            else:
                units = tile_units(specs, grid, n_tiles)
                if len(units) > 1:
                    incr("realize.pool_dispatched", len(units))
                    results = pool.solve_realize_units(units, chain=chain)
                    merged = [oc for unit in results for oc in unit]
                    merged.sort(key=lambda oc: oc.widx)
                    return merged
    return realize_unit(specs, chain=chain)
