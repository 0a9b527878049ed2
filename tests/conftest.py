"""Shared fixtures: small deterministic netlists and movebound sets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Rect
from repro.movebounds import EXCLUSIVE, MoveBoundSet
from repro.netlist import Netlist, Pin


@pytest.fixture
def die100() -> Rect:
    return Rect(0, 0, 100, 100)


@pytest.fixture
def small_netlist(die100) -> Netlist:
    """Ten 2x1 cells, chain-connected, pads in opposite corners."""
    nl = Netlist(die100, row_height=1.0, site_width=0.5, name="small")
    for i in range(10):
        nl.add_cell(f"c{i}", 2.0, 1.0, x=50.0, y=50.0)
    nl.add_net("in", [Pin.terminal(0, 0), Pin(0)])
    for i in range(9):
        nl.add_net(f"n{i}", [Pin(i), Pin(i + 1)])
    nl.add_net("out", [Pin(9), Pin.terminal(100, 100)])
    return nl


def scipy_csr(matrix):
    """scipy's own ``csr_matrix`` over the arrays of a
    :class:`repro.qp.models.CSR` record (shared, not copied)."""
    from scipy.sparse import csr_matrix

    return csr_matrix(
        (matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape
    )


def build_random_netlist(
    num_cells: int = 120,
    num_nets: int = 90,
    seed: int = 0,
    die: Rect = Rect(0, 0, 100, 100),
    movebound_of=None,
) -> Netlist:
    """Random netlist helper used by many test modules."""
    rng = np.random.default_rng(seed)
    nl = Netlist(die, row_height=1.0, site_width=0.5, name=f"rand{seed}")
    for i in range(num_cells):
        mb = movebound_of(i) if movebound_of else None
        nl.add_cell(
            f"c{i}",
            float(rng.choice([1.0, 1.5, 2.0])),
            1.0,
            x=float(rng.uniform(die.x_lo + 2, die.x_hi - 2)),
            y=float(rng.uniform(die.y_lo + 2, die.y_hi - 2)),
            movebound=mb,
        )
    for j in range(num_nets):
        k = int(rng.integers(2, 5))
        members = rng.choice(num_cells, size=k, replace=False)
        nl.add_net(f"n{j}", [Pin(int(c)) for c in members])
    nl.add_net(
        "pad", [Pin.terminal(die.x_lo, die.y_lo), Pin(0), Pin(1)]
    )
    return nl


@pytest.fixture
def figure1_bounds(die100) -> MoveBoundSet:
    """The movebound arrangement of the paper's Figure 1: exclusive N,
    inclusive M with L nested inside."""
    mbs = MoveBoundSet(die100)
    mbs.add_rects("N", [Rect(0, 60, 30, 100)], EXCLUSIVE)
    mbs.add_rects("M", [Rect(40, 20, 90, 80)])
    mbs.add_rects("L", [Rect(50, 30, 70, 60)])
    mbs.normalize()
    return mbs
