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
* a task that fails ``_MAX_FAILURES`` times is solved *serially in the
  supervisor process* — the pool degrades to correct-but-slow, it
  never loses a window.

Determinism: every dispatch unit runs a module-level pure function —
:func:`~repro.flows.transportation.solve_transportation_with_relaxation`
(one raw transportation task) or
:func:`~repro.partitioning.transport.solve_instances` (a contiguous
run of §III instances) — and the supervisor merges results by unit
index.  Scheduling order, worker count, crashes, and requeues
therefore cannot change the output — pool size 1, pool size 8, a
crashing pool, and the plain serial path are bit-identical.  A unit
lost to a crash is re-solved from scratch, so partial progress can
never leak into the merged results.

A caller installs a pool once (``with WindowSolverPool(n) as pool,
activated(pool):``, as ``python -m repro place --pool-workers N``
does); :func:`solve_transport_batch` and :func:`solve_instance_batch`
route through it when a batch is worth the IPC.

Fault-injection sites (fire *inside* the worker process; plans are
inherited across ``fork``):

* ``worker.kill``  — ``kill`` rules hard-exit the worker at task start,
* ``worker.stall`` — ``stall:SECONDS`` rules wedge the worker at task
  start.
"""

from __future__ import annotations

import queue as queue_mod
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.flows.transportation import (
    RELAX_CHAIN_PARTITION,
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
    "solve_instance_batch",
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

#: crashes/stalls/errors a single unit may suffer before the
#: supervisor solves it serially in-process
_MAX_FAILURES = 2

#: replacement workers are respawned under exponential backoff: after
#: ``n`` consecutive worker deaths/stalls the next spawn waits
#: ``min(_RESPAWN_BACKOFF_CAP, _RESPAWN_BACKOFF_BASE * 2^(n-1))``
#: seconds, and a completed unit resets the streak.  This keeps a
#: crash-looping fault (every pickup dies) from fork-spinning the host
#: while it burns down to the serial fallback; the added wall time is
#: bounded by the cap per death and changes no output bits.
_RESPAWN_BACKOFF_BASE = 0.05
_RESPAWN_BACKOFF_CAP = 1.0


def _worker_main(worker_id: int, task_q, result_q) -> None:
    """Worker loop: pull one unit, solve, report, repeat.

    Items on ``task_q`` are ``(unit_id, fn, args)``: the unit's result
    is ``fn(*args)``.  Messages on ``result_q``:
    ``("start", wid, unit_id)`` — heartbeat at unit pickup;
    ``("done", wid, unit_id, results)`` — solved;
    ``("error", wid, unit_id, repr)`` — solver raised (the supervisor
    treats it as a unit failure, not a worker death).
    """
    while True:
        item = task_q.get()
        if item is None:
            return
        unit_id, fn, args = item
        result_q.put(("start", worker_id, unit_id))
        try:
            inject("worker.kill")
            inject("worker.stall")
            results = fn(*args)
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
    """

    def __init__(
        self,
        num_workers: int,
        task_timeout: Optional[float] = None,
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
            _RESPAWN_BACKOFF_CAP,
            _RESPAWN_BACKOFF_BASE * (2.0 ** (self._loss_streak - 1)),
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
        """Solve every task; returns results in task order, whatever
        the completion order or schedule."""
        with span("pool.solve_batch"):
            out = self._run_units(
                solve_transportation_with_relaxation,
                [(*task, chain) for task in tasks],
            )
        incr("pool.tasks", len(tasks))
        return out

    def solve_realize_units(
        self,
        units: Sequence[Sequence],
        chain: Tuple[Tuple[float, float], ...] = RELAX_CHAIN_PARTITION,
        realize: bool = False,
    ) -> List[list]:
        """Solve units of §III instances (see
        :func:`repro.partitioning.transport.solve_instances`); returns
        one :class:`StepResult` list per unit, in unit order."""
        from repro.partitioning.transport import solve_instances

        with span("pool.realize_batch"):
            out = self._run_units(
                solve_instances,
                [(list(u), chain, realize) for u in units],
            )
        incr("pool.realize_units", len(units))
        return out

    def _run_units(self, fn: Callable, payloads: Sequence[tuple]) -> List:
        """Run ``fn(*payload)`` for every payload under supervision and
        return the results in payload order.  ``fn`` must be a
        module-level function (workers receive it by reference).
        Crashed/stalled workers are replaced and their units requeued
        whole; units failing ``_MAX_FAILURES`` times are solved
        in-process."""
        if self._closed:
            raise RuntimeError("pool is closed")
        if not payloads:
            return []
        self._ensure_workers()
        items = [(u, fn, payloads[u]) for u in range(len(payloads))]
        pending: List[tuple] = list(items)
        failures = [0] * len(items)
        unit_results: Dict[int, object] = {}

        def fail_unit(unit_id: int) -> None:
            failures[unit_id] += 1
            if failures[unit_id] >= _MAX_FAILURES:
                # terminal: solve the whole unit serially right here —
                # correctness over speed, and bit-identical by
                # construction (same pure function the worker runs)
                incr("pool.serial_fallbacks")
                unit_results[unit_id] = fn(*payloads[unit_id])
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


def _pool_for(
    items: Sequence, work: Callable
) -> Optional[WindowSolverPool]:
    """The active pool when the batch is worth the IPC, else None.

    A batch needs at least two items and ``_POOL_MIN_WORK`` summed
    ``work(item)``; below that threshold the round-trip costs more
    than the solves, and the in-process path is identical."""
    pool = get_active_pool()
    if pool is None or len(items) < 2:
        return None
    if sum(map(work, items)) < _POOL_MIN_WORK:
        incr("pool.serial_shortcircuits")
        return None
    return pool


def solve_transport_batch(
    tasks: Sequence[TransportTask],
    chain: Tuple[Tuple[float, float], ...] = RELAX_CHAIN_WINDOW,
) -> List[Tuple[TransportResult, int]]:
    """Solve a batch of window transportation problems through the
    active pool when one is installed (and the batch is worth the IPC),
    else serially.  Output is identical either way."""
    pool = _pool_for(tasks, lambda task: int(task[2].size))
    if pool is not None:
        return pool.solve_batch(tasks, chain=chain)
    return [
        solve_transportation_with_relaxation(
            supplies, caps, costs, chain=chain
        )
        for supplies, caps, costs in tasks
    ]


def solve_instance_batch(
    instances: Sequence,
    chain: Tuple[Tuple[float, float], ...] = RELAX_CHAIN_PARTITION,
    realize: bool = False,
) -> List:
    """Solve a batch of §III instances (see
    :func:`repro.partitioning.transport.solve_instances`) through the
    active pool when one is installed (and the batch is worth the
    IPC), serially in-process otherwise.

    The pool gets ``min(num_workers, len(instances))`` contiguous
    units; their results concatenate back in batch order, so the
    result is bit-identical across pool sizes.  Instances the closed
    form answers count no work — they never justify a worker
    round-trip.
    """
    from repro.partitioning.transport import solve_instances

    pool = _pool_for(instances, lambda i: (
        0 if realize and i.trivial else len(i.cells) * len(i.caps)
    ))
    if pool is None:
        return solve_instances(instances, chain, realize)
    k = min(pool.num_workers, len(instances))
    cuts = [u * len(instances) // k for u in range(k + 1)]
    units = [instances[a:b] for a, b in zip(cuts, cuts[1:])]
    results = pool.solve_realize_units(units, chain, realize)
    return [r for unit in results for r in unit]
