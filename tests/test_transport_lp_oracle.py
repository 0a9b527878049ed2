"""The transportation LP against ``scipy.optimize.linprog`` as an oracle.

``_solve_lp`` hands HiGHS the model ``linprog(method="highs")`` builds
from the transportation LP, without ``linprog``'s input cleaning and
result assembly.  On seeded instances wider than the front end's
subset table (13-40 sinks; sparse and dense admissibility; loose,
tight and deficient capacities; zero supplies) its solution, objective,
iteration count and verdict must be ``linprog``'s bit for bit.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csc_matrix

from repro.flows import highs
from repro.scipy_ext import SCIPY_FLOOR
from repro.flows.transportation import _solve_lp
from repro.resilience.budget import SolverBudget
from repro.resilience.errors import SolverBudgetExceeded

INF = np.inf
CAPACITIES = ("loose", "tight", "deficient")
DENSITIES = (0.15, 0.6, 1.0)


def make_instance(rng: np.random.Generator, capacity: str, density: float):
    n = int(rng.integers(10, 121))
    k = int(rng.integers(13, 41))
    supplies = rng.choice([1.0, 1.5, 2.0, 3.0], size=n)
    supplies[rng.random(n) < 0.15] = 0.0
    costs = np.abs(rng.integers(0, 80, (n, 1)) - rng.integers(0, 80, (1, k)))
    costs = costs + rng.integers(0, 30, (n, k)) + rng.random((n, k))
    admissible = rng.random((n, k)) < density
    admissible[np.arange(n), rng.integers(0, k, n)] = True
    costs[~admissible] = INF
    share = rng.dirichlet(np.ones(k)) * supplies.sum()
    if capacity == "tight":
        capacities = share * 1.05 + 0.5
    elif capacity == "deficient":
        capacities = share * rng.uniform(0.6, 0.97)
    else:
        capacities = share * 3.0 + 2.0
    return supplies, capacities, costs


def linprog_reference(supplies, capacities, costs, max_iters=None):
    """The transportation LP as ``linprog`` states it: ``A_eq`` rows per
    source, ``A_ub`` rows per sink, one column per finite arc."""
    n, k = costs.shape
    src, snk = np.nonzero(np.isfinite(costs))
    ones = np.ones(len(src))
    indptr = np.arange(len(src) + 1)
    res = linprog(
        c=costs[src, snk],
        A_eq=csc_matrix((ones, src, indptr), shape=(n, len(src))),
        b_eq=supplies,
        A_ub=csc_matrix((ones, snk, indptr), shape=(k, len(src))),
        b_ub=capacities,
        bounds=(0.0, None),
        method="highs",
        options=None if max_iters is None else {"maxiter": max_iters},
    )
    return res, src, snk


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("capacity", CAPACITIES)
def test_lp_equals_linprog_bit_for_bit(capacity, density):
    rng = np.random.default_rng(
        1000 + 10 * CAPACITIES.index(capacity) + DENSITIES.index(density)
    )
    verdicts = set()
    for _ in range(12):
        supplies, capacities, costs = make_instance(rng, capacity, density)
        got = _solve_lp(supplies, capacities, costs, np.isfinite(costs))
        ref, src, snk = linprog_reference(supplies, capacities, costs)
        assert ref.status in (0, 2), ref.message
        assert got.feasible == (ref.status == 0)
        assert got.stats.pivots == ref.nit
        verdicts.add(got.feasible)
        if got.feasible:
            assert np.array_equal(got.flow[src, snk], ref.x)
            assert got.cost == ref.fun
            off = np.ones(costs.shape, dtype=bool)
            off[src, snk] = False
            assert not got.flow[off].any()
    if capacity == "deficient":
        assert verdicts == {False}
    else:
        # the sweep compares optima, not only refusals (sparse masks may
        # confine sources to too little room even at loose capacities)
        assert True in verdicts


def test_missing_bindings_name_the_scipy_floor(monkeypatch):
    # a None entry in sys.modules makes the import fail as if absent
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    highs._highs.cache_clear()
    try:
        with pytest.raises(ImportError, match=f"scipy>={SCIPY_FLOOR}"):
            highs._highs()
    finally:
        highs._highs.cache_clear()


def test_iteration_budget_raises():
    supplies, capacities, costs = make_instance(
        np.random.default_rng(7), "tight", 0.6
    )
    ref, _, _ = linprog_reference(supplies, capacities, costs)
    assert ref.status == 0 and ref.nit > 1
    assert linprog_reference(supplies, capacities, costs, max_iters=1)[
        0
    ].status == 1
    with pytest.raises(SolverBudgetExceeded) as ei:
        _solve_lp(
            supplies,
            capacities,
            costs,
            np.isfinite(costs),
            SolverBudget(max_iters=1),
        )
    assert ei.value.solver == "lp"
