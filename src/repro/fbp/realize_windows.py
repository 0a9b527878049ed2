"""Vectorized window realization (paper §III / §IV.B).

The final step of realization partitions every window's cells among
its admissible regions (a small transportation problem per window) and
spreads each region's cells into its free rectangles.  Those per-window
jobs are *independent* — a window touches only its own cells and its
own region geometry — so this module packages each window as a
self-contained, picklable :class:`WindowSpec` and realizes batches of
specs with a pure function, :func:`realize_unit`.  That enables:

* **pooled dispatch** — with a supervised
  :class:`~repro.runstate.pool.WindowSolverPool` active, contiguous
  runs of the window-ordered specs are shipped as units, and the
  concatenated output is bit-identical to the serial path at any pool
  size,
* **a closed-form fast path** — the common single-region window whose
  region admits every cell present needs no LP at all: the
  transportation assignment is forced (everything goes to the one
  region) and the relaxation stage follows from comparing total supply
  against the scaled capacity.  The resulting positions and
  assignments are bit-identical to solving the LP (rounding of a
  one-column flow can only assign column 0); only the *reported*
  relaxation stage could differ, and then only when total supply sits
  within the LP solver's feasibility tolerance of the exact capacity
  boundary,
* **structure-of-arrays inner loops** — region distance costs and the
  spread into rectangles run on the spec's arrays through the shared
  §III kernels ``transport_costs`` / ``spread_into_rects`` of
  :mod:`repro.partitioning.transport`.

The fast path is held to the general route by a test that realizes the
same specs with ``trivial`` cleared and compares positions and
assignments bitwise (``tests/test_realize_parallel.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.flows import (
    RELAX_CHAIN_WINDOW,
    round_almost_integral,
    solve_transportation_with_relaxation,
)
from repro.geometry import rect_array
from repro.partitioning.transport import spread_into_rects, transport_costs

__all__ = [
    "WindowSpec",
    "WindowOutcome",
    "build_window_specs",
    "realize_unit",
]


@dataclass
class WindowSpec:
    """One window's realization job, closed over everything it needs.

    Arrays are aligned with ``cells`` (ascending cell ids); region
    arrays/tuples follow the window's kept-region order (regions with
    zero capacity are dropped before the spec is built, exactly as the
    serial reference filters them).
    """

    widx: int
    cells: np.ndarray  # int64, ascending
    codes: np.ndarray  # int64 index into the run's bound-name table
    xs: np.ndarray
    ys: np.ndarray
    sizes: np.ndarray
    half_w: np.ndarray
    half_h: np.ndarray
    region_idx: Tuple[int, ...]
    caps: np.ndarray
    #: (num bound codes, num regions) admissibility matrix
    admits: np.ndarray
    #: per region: (R, 4) array of free rects as [x_lo, y_lo, x_hi, y_hi]
    free_rects: Tuple[np.ndarray, ...]
    #: per region: rects used for spreading (free area, else region area)
    spread_rects: Tuple[np.ndarray, ...]
    #: single admissible region — assignment is forced, no LP needed
    trivial: bool


@dataclass
class WindowOutcome:
    """Result of realizing one :class:`WindowSpec`."""

    widx: int
    cells: np.ndarray
    new_x: np.ndarray
    new_y: np.ndarray
    #: per cell: position into ``spec.region_idx``
    assignment: np.ndarray
    stage: int


def build_window_specs(
    model,
    entries: Sequence[Tuple[int, np.ndarray, np.ndarray]],
    bound_names: Sequence[str],
) -> Tuple[List[WindowSpec], List[int]]:
    """Build one :class:`WindowSpec` per window entry.

    ``entries`` is ``(widx, cells, codes)`` in ascending window order
    with ``cells`` ascending; ``codes`` index ``bound_names``.  Returns
    the specs plus the windows skipped because no region has capacity
    (the serial reference marks those relaxed and leaves their cells in
    place).
    """
    netlist = model.netlist
    grid = model.grid
    sizes_all = netlist.cell_sizes()
    _mv, half_w_all, half_h_all = netlist.cell_dims()
    specs: List[WindowSpec] = []
    skipped: List[int] = []
    admit_memo: Dict[Tuple[int, int], bool] = {}
    for widx, cells, codes in entries:
        window = grid.windows[widx]
        regions = [
            wr
            for wr in window.regions
            if model.region_capacity.get((widx, wr.region.index), 0.0) > 0
        ]
        if not regions:
            skipped.append(widx)
            continue
        caps = np.array(
            [
                model.region_capacity[(widx, wr.region.index)]
                for wr in regions
            ]
        )
        free_rects = tuple(rect_array(wr.free_area) for wr in regions)
        # cells spread into the free area, else the whole region piece
        spread_rects = tuple(
            free if len(free) else rect_array(wr.area)
            for free, wr in zip(free_rects, regions)
        )
        admits = np.empty((len(bound_names), len(regions)), dtype=bool)
        present = np.unique(codes)
        for b, wr in enumerate(regions):
            ridx = wr.region.index
            for code in present:
                key = (ridx, int(code))
                ok = admit_memo.get(key)
                if ok is None:
                    ok = bool(wr.admits(bound_names[int(code)]))
                    admit_memo[key] = ok
                admits[int(code), b] = ok
        trivial = (
            len(regions) == 1
            and len(free_rects[0]) > 0
            and bool(admits[present, 0].all())
        )
        specs.append(
            WindowSpec(
                widx=widx,
                cells=cells,
                codes=codes,
                xs=np.asarray(netlist.x[cells], dtype=np.float64),
                ys=np.asarray(netlist.y[cells], dtype=np.float64),
                sizes=sizes_all[cells],
                half_w=half_w_all[cells],
                half_h=half_h_all[cells],
                region_idx=tuple(wr.region.index for wr in regions),
                caps=caps,
                admits=admits,
                free_rects=free_rects,
                spread_rects=spread_rects,
                trivial=trivial,
            )
        )
    return specs, skipped


def _trivial_stage(
    total, cap, chain: Tuple[Tuple[float, float], ...]
) -> Optional[int]:
    """First relaxation stage whose scaled capacity covers ``total``
    (the closed form of a one-column transportation feasibility check:
    ``cap * mult + frac * total`` is exactly the capacity the solver
    builds at that stage)."""
    for stage, (mult, frac) in enumerate(chain):
        if total <= cap * mult + frac * total:
            return stage
    return None


def realize_unit(
    specs: Sequence[WindowSpec],
    chain: Tuple[Tuple[float, float], ...] = RELAX_CHAIN_WINDOW,
) -> List[WindowOutcome]:
    """Realize a batch of window specs; pure function of its inputs.

    Runs inside pool workers and in the supervisor's serial path alike,
    so both produce identical bits.  A ``trivial`` spec takes the
    closed-form fast path, every other one the transportation LP.
    """
    plans: List[Tuple[WindowSpec, Optional[int], Optional[np.ndarray]]] = []
    general: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for spec in specs:
        stage = None
        costs = None
        if spec.trivial:
            stage = _trivial_stage(
                spec.sizes.sum(), spec.caps[0], chain
            )
        if stage is None:
            costs = transport_costs(
                spec.xs, spec.ys, spec.admits[spec.codes], spec.free_rects
            )
            general.append((spec.sizes, spec.caps, costs))
        plans.append((spec, stage, costs))
    solved = [
        solve_transportation_with_relaxation(
            supplies, caps, costs, chain=chain
        )
        for supplies, caps, costs in general
    ]
    out: List[WindowOutcome] = []
    g = 0
    for spec, stage, costs in plans:
        if stage is None:
            tr, stage = solved[g]
            g += 1
            assignment, _overflow = round_almost_integral(
                tr, spec.sizes, spec.caps, costs
            )
            assignment = np.asarray(assignment, dtype=np.int64)
        else:
            assignment = np.zeros(len(spec.cells), dtype=np.int64)
        new_x = spec.xs.copy()
        new_y = spec.ys.copy()
        for b in np.unique(assignment):
            local = np.nonzero(assignment == b)[0]
            new_x[local], new_y[local] = spread_into_rects(
                spec.cells[local],
                spec.xs[local],
                spec.ys[local],
                spec.half_w[local],
                spec.half_h[local],
                spec.spread_rects[int(b)],
            )
        out.append(
            WindowOutcome(
                widx=spec.widx,
                cells=spec.cells,
                new_x=new_x,
                new_y=new_y,
                assignment=assignment,
                stage=int(stage),
            )
        )
    return out

