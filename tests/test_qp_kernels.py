"""The QP's sparse kernels against scipy's own, bit for bit.

:mod:`repro.qp.models` assembles its matrices with scipy's compiled
``_sparsetools`` kernels, and :mod:`repro.qp.solver` solves them with
SuperLU's ``gssv`` and a port of scipy's ``cg`` loop, without importing
a scipy package.  Here scipy itself (``coo_matrix(...).tocsr()``,
``csr_matrix`` products, ``spsolve``, ``cg``) is the outside oracle:
every array, solution and iteration count must be equal to the bit.
"""

import numpy as np
import pytest
from scipy.sparse import coo_matrix, diags
from scipy.sparse.linalg import cg as scipy_cg
from scipy.sparse.linalg import spsolve as scipy_spsolve

from repro.netlist import Netlist
from repro.qp import NET_MODELS, build_axis_systems, models
from repro.qp.solver import cg, spsolve
from repro.resilience.errors import SolverNumericsError
from repro.workloads.generator import NetlistSpec, generate_netlist
from tests.conftest import scipy_csr


def assert_same_csr(record, reference):
    """The record's arrays are scipy's: dtypes, values and shape."""
    assert record.shape == reference.shape
    assert record.nnz == reference.nnz
    for name in ("indptr", "indices", "data"):
        got, want = getattr(record, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def assert_bit_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def triplets(rng, n, nnz, duplicates):
    """COO triplets of an ``n``-square matrix in random order; with
    ``duplicates`` every position is drawn from a small pool."""
    if duplicates:
        pool = rng.integers(0, n, size=(2, max(nnz // 4, 1)))
        pick = rng.integers(0, pool.shape[1], size=nnz)
        rows, cols = pool[0][pick], pool[1][pick]
    else:
        rows = rng.integers(0, n, size=nnz)
        cols = rng.integers(0, n, size=nnz)
    return rows.astype(np.int64), cols.astype(np.int64), rng.normal(size=nnz)


def spd(rng, n, per_row):
    """A random sparse SPD system through the record path: symmetric
    springs plus a dominant diagonal, duplicates included."""
    i = rng.integers(0, n, size=n * per_row)
    j = rng.integers(0, n, size=n * per_row)
    w = rng.uniform(0.1, 2.0, size=len(i))
    diag = np.arange(n)
    rows = np.concatenate([i, j, i, j, diag])
    cols = np.concatenate([i, j, j, i, diag])
    vals = np.concatenate([w, w, -w, -w, rng.uniform(0.01, 0.1, size=n)])
    return models._csr(rows, cols, vals, n)


class TestAssembly:
    @pytest.mark.parametrize(
        "n,nnz,duplicates",
        [
            (50, 400, True),  # many duplicates, short rows
            (40, 3000, True),  # rows of far more than 16 entries
            (30, 2000, False),  # long rows, duplicates by chance
            (200, 150, False),  # sparse, likely canonical
            (7, 0, False),  # an empty matrix
            (0, 0, False),  # zero unknowns
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_coo_tocsr(self, n, nnz, duplicates, seed):
        rng = np.random.default_rng(seed)
        rows, cols, vals = triplets(rng, max(n, 1), nnz, duplicates)
        record = models._csr(rows, cols, vals, n)
        reference = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        assert_same_csr(record, reference)

    def test_long_rows_take_the_unstable_sort(self):
        # one row of 40 unsorted entries with duplicates: the sum order
        # is the one scipy's sort leaves, which the check holds bitwise
        rng = np.random.default_rng(5)
        cols = rng.integers(0, 12, size=40)
        rows = np.zeros(40, dtype=np.int64)
        vals = rng.normal(size=40) * 10.0 ** rng.integers(-8, 8, size=40)
        record = models._csr(rows, cols, vals, 12)
        reference = coo_matrix((vals, (rows, cols)), shape=(12, 12)).tocsr()
        assert_same_csr(record, reference)

    @pytest.mark.parametrize("row,col", [(3, 4), (0, -1)])
    def test_out_of_range_index_is_refused(self, row, col):
        # scipy refuses it too; the kernel would write outside its arrays
        rows, cols = np.array([0, row]), np.array([1, col])
        with pytest.raises(ValueError):
            coo_matrix((np.ones(2), (rows, cols)), shape=(4, 4))
        with pytest.raises(ValueError):
            models._csr(rows, cols, np.ones(2), 4)

    def test_matvec_refuses_a_wrong_length(self):
        record = models._csr(np.array([0]), np.array([1]), np.ones(1), 3)
        with pytest.raises(ValueError):
            record @ np.ones(2)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matvec_diagonal_and_tocsc(self, seed):
        rng = np.random.default_rng(seed)
        record = models._csr(*triplets(rng, 60, 900, True), 60)
        reference = scipy_csr(record)
        v = rng.normal(size=60)
        assert_bit_equal(record @ v, reference @ v)
        assert_bit_equal(record.diagonal(), reference.diagonal())
        csc, want = record.tocsc(), reference.tocsc()
        assert csc.shape == want.shape
        for name in ("indptr", "indices", "data"):
            assert_bit_equal(getattr(csc, name), getattr(want, name))


class TestDirectSolve:
    @pytest.mark.parametrize("columns", [1, 2])
    def test_matches_spsolve(self, columns):
        rng = np.random.default_rng(3)
        record = spd(rng, 300, 4)
        b = rng.normal(size=300 if columns == 1 else (300, columns))
        want = scipy_spsolve(scipy_csr(record).tocsc(), b)
        assert_bit_equal(spsolve(record, b), want)

    def test_singular_matrix_raises(self):
        record = models._csr(
            np.array([0]), np.array([0]), np.array([1.0]), 2
        )
        with pytest.raises(SolverNumericsError) as info:
            spsolve(record, np.ones(2))
        assert info.value.stage == "qp"


def scipy_reference(record, b, x0, rtol, maxiter, inv_diag):
    """scipy's ``cg`` with a counting callback, as the QP used to call it."""
    iters = 0

    def count(_xk):
        nonlocal iters
        iters += 1

    x, _ = scipy_cg(
        scipy_csr(record), b, x0=x0, rtol=rtol, maxiter=maxiter,
        M=diags(inv_diag), callback=count,
    )
    return x, iters


class TestConjugateGradients:
    @pytest.mark.parametrize(
        "start,rhs,maxiter",
        [
            ("zero", "random", 2000),
            ("random", "random", 2000),
            ("random", "zero", 2000),
            ("zero", "random", 7),  # exhausted before convergence
        ],
    )
    def test_matches_scipy_cg(self, start, rhs, maxiter):
        rng = np.random.default_rng(11)
        record = spd(rng, 500, 3)
        b = rng.normal(size=500) if rhs == "random" else np.zeros(500)
        x0 = rng.normal(size=500) if start == "random" else np.zeros(500)
        inv_diag = 1.0 / record.diagonal()
        got, iters = cg(record, b, x0, 1e-9, maxiter, inv_diag)
        want, want_iters = scipy_reference(
            record, b, x0, 1e-9, maxiter, inv_diag
        )
        assert_bit_equal(got, want)
        assert iters == want_iters
        if maxiter == 7:
            assert iters == 7
        elif rhs == "zero":
            assert iters == 0
        else:
            assert 0 < iters < maxiter


@pytest.fixture(scope="module")
def netlist_2k() -> Netlist:
    netlist, _ = generate_netlist(
        NetlistSpec(name="kernels", num_cells=2000, utilization=0.5), seed=9
    )
    return netlist


@pytest.mark.parametrize("model", NET_MODELS)
def test_generated_systems_match_scipy(netlist_2k, model, monkeypatch):
    """Both axes of a 2k-cell netlist: each assembled matrix is scipy's
    ``coo_matrix(...).tocsr()`` of the same triplets, and the direct
    and CG solves are scipy's, bit for bit."""
    captured = []
    assemble = models._csr

    def capture(rows, cols, vals, n):
        captured.append((rows, cols, vals, n))
        return assemble(rows, cols, vals, n)

    monkeypatch.setattr(models, "_csr", capture)
    systems = build_axis_systems(netlist_2k, model=model)
    assert len(captured) == (2 if model == "b2b" else 1)
    for (rows, cols, vals, n), system in zip(captured, systems):
        reference = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        assert_same_csr(system.matrix, reference)

    rhs = np.column_stack([s.rhs for s in systems])
    if model != "b2b":
        want = scipy_spsolve(scipy_csr(systems[0].matrix).tocsc(), rhs)
        assert_bit_equal(spsolve(systems[0].matrix, rhs), want)
    for system in systems:
        matrix = system.matrix
        want = scipy_spsolve(scipy_csr(matrix).tocsc(), system.rhs)
        assert_bit_equal(spsolve(matrix, system.rhs), want)
        inv_diag = 1.0 / matrix.diagonal()
        x0 = np.zeros(matrix.shape[0])
        x0[: system.num_cell_unknowns] = netlist_2k.x[
            system.unknown_of_cell >= 0
        ]
        got, iters = cg(matrix, system.rhs, x0, 1e-7, 2000, inv_diag)
        want, want_iters = scipy_reference(
            matrix, system.rhs, x0, 1e-7, 2000, inv_diag
        )
        assert_bit_equal(got, want)
        assert iters == want_iters > 0
