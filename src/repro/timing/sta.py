"""Static timing analysis with a linear wire-delay model.

Conventions (documented, deliberately simple):

* the **first pin** of every net is its driver, the rest are sinks —
  the direction convention of the Bookshelf-era academic flows;
* **net delay** = current HPWL of the net (linear wire delay, unit
  resistance-capacitance per unit length);
* **cell delay** = 1.0 from any input to any output of a cell;
* **primary inputs** = fixed terminals that drive a net, and fixed
  cells' outputs; **primary outputs** = fixed terminals being driven
  and fixed cells' inputs;
* combinational cycles (possible in synthetic netlists) are broken at
  the DFS back edges; the dropped arcs are reported.

Arrival times propagate longest-path over the resulting DAG.  The
criticality of a net is the fraction of the worst path that passes
through it; :func:`reweight_nets` turns criticalities into net weights
for the quadratic placer — the classic timing-driven placement loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.movebounds import MoveBoundSet
from repro.netlist import Net, Netlist

CELL_DELAY = 1.0


@dataclass
class TimingReport:
    """Result of one STA pass."""

    #: worst arrival time at any endpoint (the critical path length)
    critical_path: float
    #: per-net criticality in [0, 1]
    net_criticality: Dict[int, float]
    #: arrival time at each cell's output
    arrival: np.ndarray
    #: arcs dropped to break combinational cycles
    broken_arcs: int = 0

    def critical_nets(self, threshold: float = 0.9) -> List[int]:
        return [
            n for n, c in self.net_criticality.items() if c >= threshold
        ]


def _build_dag(
    fixed: List[bool], nets: List[Net]
) -> Tuple[List[List[Tuple[int, int]]], int]:
    """Successor lists: for each cell (one ``fixed`` flag each), (net
    index, sink cell) arcs, with DFS cycle-breaking.  Returns
    (successors, broken_arc_count)."""
    n = len(fixed)
    successors: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for nidx, net in enumerate(nets):
        if net.degree < 2:
            continue
        driver = net.pins[0]
        if driver.cell_index < 0:
            continue  # terminal-driven: handled as primary input later
        if fixed[driver.cell_index]:
            continue
        for pin in net.pins[1:]:
            if pin.cell_index >= 0 and pin.cell_index != driver.cell_index:
                successors[driver.cell_index].append(
                    (nidx, pin.cell_index)
                )

    # iterative DFS three-color cycle breaking
    color = np.zeros(n, dtype=np.int8)  # 0 white, 1 gray, 2 black
    broken = 0
    for root in range(n):
        if color[root] != 0:
            continue
        stack: List[Tuple[int, int]] = [(root, 0)]
        color[root] = 1
        while stack:
            node, idx = stack[-1]
            if idx < len(successors[node]):
                stack[-1] = (node, idx + 1)
                _nidx, succ = successors[node][idx]
                if color[succ] == 1:  # back edge: break it
                    successors[node][idx] = (-1, succ)
                    broken += 1
                elif color[succ] == 0:
                    color[succ] = 1
                    stack.append((succ, 0))
            else:
                color[node] = 2
                stack.pop()
    for node in range(n):
        successors[node] = [
            (nidx, succ) for nidx, succ in successors[node] if nidx >= 0
        ]
    return successors, broken


def analyze_timing(netlist: Netlist) -> TimingReport:
    """Longest-path arrival times and per-net criticalities."""
    n = netlist.num_cells
    # the records are built from the pin table once, not per pass
    nets = list(netlist.nets)
    fixed = netlist.fixed_mask.tolist()
    successors, broken = _build_dag(fixed, nets)

    # net delays from the current placement
    net_delay = np.zeros(netlist.num_nets)
    for nidx, net in enumerate(nets):
        if net.degree >= 2:
            box = netlist.net_bbox(net)
            net_delay[nidx] = box.width + box.height

    # topological order (DAG after breaking)
    indeg = np.zeros(n, dtype=np.int64)
    for node in range(n):
        for _nidx, succ in successors[node]:
            indeg[succ] += 1
    order: List[int] = [i for i in range(n) if indeg[i] == 0]
    head = 0
    while head < len(order):
        node = order[head]
        head += 1
        for _nidx, succ in successors[node]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                order.append(succ)

    # primary-input launch: terminal- or fixed-driven nets set arrivals
    arrival = np.zeros(n)
    for net in nets:
        if net.degree < 2:
            continue
        driver = net.pins[0]
        is_pi = driver.is_fixed_terminal or (
            driver.cell_index >= 0
            and fixed[driver.cell_index]
        )
        if not is_pi:
            continue
        box = netlist.net_bbox(net)
        delay = box.width + box.height
        for pin in net.pins[1:]:
            if pin.cell_index >= 0:
                arrival[pin.cell_index] = max(
                    arrival[pin.cell_index], delay
                )

    # forward propagation in topological order
    for node in order:
        for nidx, succ in successors[node]:
            cand = arrival[node] + CELL_DELAY + net_delay[nidx]
            if cand > arrival[succ]:
                arrival[succ] = cand

    critical_path = float(arrival.max(initial=0.0))

    # backward pass: required times -> per-net criticality
    required = np.full(n, critical_path)
    for node in reversed(order):
        for nidx, succ in successors[node]:
            cand = required[succ] - CELL_DELAY - net_delay[nidx]
            if cand < required[node]:
                required[node] = cand
    net_criticality: Dict[int, float] = {}
    if critical_path > 0:
        for node in range(n):
            for nidx, succ in successors[node]:
                path_slack = required[succ] - (
                    arrival[node] + CELL_DELAY + net_delay[nidx]
                )
                crit = max(0.0, 1.0 - path_slack / critical_path)
                if crit > net_criticality.get(nidx, 0.0):
                    net_criticality[nidx] = min(crit, 1.0)
    return TimingReport(critical_path, net_criticality, arrival, broken)


def reweight_nets(
    netlist: Netlist,
    report: TimingReport,
    alpha: float = 3.0,
    exponent: float = 2.0,
    base_weights: Optional[Sequence[float]] = None,
) -> None:
    """Set net weights to ``base * (1 + alpha * criticality^exponent)``.

    ``base_weights`` preserves the original weights across iterations
    (pass the same array every round to avoid compounding).
    """
    if base_weights is None:
        base_weights = netlist.pin_table()[4].tolist()
    netlist.set_net_weights({
        nidx: base_weights[nidx]
        * (1.0 + alpha * report.net_criticality.get(nidx, 0.0) ** exponent)
        for nidx in range(netlist.num_nets)
    })


def timing_driven_place(
    netlist: Netlist,
    bounds: Optional[MoveBoundSet] = None,
    iterations: int = 3,
    alpha: float = 3.0,
    placer_factory=None,
) -> Tuple[TimingReport, TimingReport]:
    """The classic timing-driven loop: place, analyze, reweight, repeat.

    Returns ``(first_report, final_report)`` so callers can quote the
    critical-path improvement.  Net weights are restored to their
    originals afterwards (placement positions keep the benefit).
    """
    from repro.place import BonnPlaceFBP

    if placer_factory is None:
        placer_factory = BonnPlaceFBP
    if bounds is None:
        bounds = MoveBoundSet(netlist.die)
    base_weights = netlist.pin_table()[4].tolist()

    placer_factory().place(netlist, bounds)
    first = analyze_timing(netlist)
    report = first
    best_report = first
    best_snapshot = netlist.snapshot()
    for _ in range(iterations):
        reweight_nets(netlist, report, alpha, base_weights=base_weights)
        placer_factory().place(netlist, bounds)
        report = analyze_timing(netlist)
        if report.critical_path < best_report.critical_path:
            best_report = report
            best_snapshot = netlist.snapshot()
    # keep the best placement seen; restore original weights so the
    # caller's evaluation is not skewed
    netlist.restore(best_snapshot)
    netlist.set_net_weights(dict(enumerate(base_weights)))
    return first, best_report
