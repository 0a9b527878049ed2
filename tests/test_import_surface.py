"""What a ``place`` process loads.

A ``place`` needs three of scipy's compiled extensions and none of its
packages: the HiGHS bindings of both flow LPs, and the sparse kernels
and SuperLU of the QP, each of which
:func:`repro.scipy_ext.load_extension` loads from its file.
``scipy.fft`` (and ``scipy.special`` with it) serves only the
Kraftwerk baseline's Poisson step; ``scipy.spatial`` only the workload
generators; ``scipy.sparse.csgraph`` only the sharded flow solve's
Dijkstra.  No scipy package may come in through an import of the CLI,
the FBP placer, the ECO engine or the sharded solve, nor at any point
of a ``python -m repro place`` run.  Each check runs in a fresh interpreter, since
the test process itself has long loaded all of scipy.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.bookshelf import save_instance
from repro.cli import main
from repro.scipy_ext import SCIPY_FLOOR, load_extension
from repro.workloads.generator import NetlistSpec, generate_netlist
from repro.workloads.movebound_gen import MoveBoundSpec, attach_movebounds

#: where the child process finds the package, regardless of how the
#: parent was launched
REPRO_PARENT = os.path.dirname(os.path.dirname(repro.__file__))

#: the scipy packages a ``place`` with the default placer never runs
UNUSED = (
    "scipy",
    "scipy._lib",
    "scipy.linalg",
    "scipy.sparse",
    "scipy.sparse.linalg",
    "scipy.optimize",
    "scipy.fft",
    "scipy.special",
    "scipy.spatial",
)

#: the extensions a ``place`` loads from their files, and what each
#: package that reuses one calls to prove it works on that module
#: object: ``ext`` is the file-loaded module, ``reused`` the package's
EXTENSIONS = {
    "scipy.optimize._highspy._core": """
import scipy.optimize._highspy._core as reused
from scipy.optimize import linprog
from scipy.optimize._highspy import _core
assert _core is reused
res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
assert res.status == 0 and abs(res.fun - 1.0) < 1e-9, res
""",
    "scipy.sparse._sparsetools": """
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse._compressed import _sparsetools as reused
product = csr_matrix(np.array([[2.0, 0.0], [1.0, 3.0]])) @ np.ones(2)
assert product.tolist() == [2.0, 4.0]
""",
    "scipy.sparse.linalg._dsolve._superlu": """
import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import spsolve
from scipy.sparse.linalg._dsolve.linsolve import _superlu as reused
a = csc_matrix(np.array([[2.0, 0.0], [1.0, 4.0]]))
x = spsolve(a, np.array([2.0, 5.0]))
assert x.tolist() == [1.0, 1.0]
""",
}

#: the ``python -m repro`` entry, run through runpy as ``-m`` does,
#: with a probe that reports the loaded modules when the process exits
PROBED_MAIN = """
import atexit, json, runpy, sys
names = {names!r}
atexit.register(
    lambda: print(json.dumps([m for m in names if m in sys.modules]),
                  file=sys.stderr)
)
sys.argv = ["repro"] + {argv!r}
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def run_child(code):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(
            os.environ, PYTHONPATH=REPRO_PARENT, PYTHONDONTWRITEBYTECODE="1"
        ),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


def loaded_after(statement):
    code = (
        f"import json, sys\n{statement}\n"
        f"print(json.dumps([m for m in {UNUSED!r} if m in sys.modules]))"
    )
    return json.loads(run_child(code).stdout)


@pytest.mark.parametrize(
    "statement",
    [
        "import repro.cli",
        "import repro.place.bonnplace",
        "import repro.eco",
        "import repro.fbp.sharding",
    ],
)
def test_import_loads_no_unused_scipy_package(statement):
    assert loaded_after(statement) == []


@pytest.fixture(scope="module")
def instance_dir(tmp_path_factory):
    """A 200-cell instance with one inclusive movebound, so that both
    flow LPs (MinCostFlow and transportation) run HiGHS."""
    directory = tmp_path_factory.mktemp("surface")
    netlist, logical = generate_netlist(
        NetlistSpec(name="surface", num_cells=200, utilization=0.5), seed=3
    )
    bounds = attach_movebounds(
        netlist, logical, [MoveBoundSpec(name="mb0", cell_fraction=0.3)],
        seed=4,
    )
    save_instance(str(directory), netlist, bounds)
    return directory


def test_place_process_ends_without_unused_scipy(instance_dir):
    out = instance_dir / "module"
    argv = ["place", "surface", "--dir", str(instance_dir), "--out", str(out)]
    names = UNUSED + tuple(EXTENSIONS)
    proc = run_child(PROBED_MAIN.format(names=names, argv=argv))
    loaded = json.loads(proc.stderr.strip().splitlines()[-1])
    # the LPs and the QP ran on the file-loaded extensions, and no
    # scipy package came in
    assert loaded == list(EXTENSIONS)

    inproc = instance_dir / "inproc"
    assert main(
        ["place", "surface", "--dir", str(instance_dir), "--out", str(inproc)]
    ) == 0
    assert (out / "surface.pl").read_bytes() == (
        inproc / "surface.pl"
    ).read_bytes()


LOADER = """
import sys
from repro.scipy_ext import load_extension
name = {name!r}
ext = load_extension(name, "test")
assert "scipy" not in sys.modules
assert sys.modules[name] is ext
{use}
assert reused is ext and sys.modules[name] is ext
"""


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_loader_registers_the_module_scipy_reuses(name):
    run_child(LOADER.format(name=name, use=EXTENSIONS[name]))


FALLBACK = """
import importlib.machinery, sys
import numpy as np
from repro import scipy_ext
name = {name!r}
# no extension suffix matches: no file is found
importlib.machinery.EXTENSION_SUFFIXES = []
assert scipy_ext.extension_file(name) is None
ext = scipy_ext.load_extension(name, "test")
assert name.rpartition(".")[0] in sys.modules
assert sys.modules[name] is ext
# the program runs on the package-imported extensions: the flow LP
# and a QP with both its direct and its CG solve
from repro.flows import highs
from repro.geometry import Rect
from repro.netlist import Netlist, Pin
from repro.qp import QPOptions, solver, solve_qp
one = np.ones(1)
# min x  s.t.  1 <= x <= 2,  0 <= x <= 1
lp = highs.run_highs(one, one, one, 2 * one, [0, 1], [0], one, False, None, "lp")
assert lp.feasible and lp.x.tolist() == [1.0]
nl = Netlist(Rect(0, 0, 10, 10))
nl.add_cell("a", 1, 1, x=5, y=5)
nl.add_net("n", [Pin(0), Pin.terminal(2, 8)])
for limit in (4000, 0):
    solver.DIRECT_SOLVE_LIMIT = limit
    x, y = solve_qp(nl, QPOptions(cg_tol=1e-12), apply=False)
    assert abs(x[0] - 2.0) < 1e-6 and abs(y[0] - 8.0) < 1e-6, (x, y)
"""


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_loader_falls_back_to_the_package_import(name):
    run_child(FALLBACK.format(name=name))


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_missing_extension_names_the_scipy_floor(name, monkeypatch):
    # a None entry in sys.modules makes the import fail as if absent
    monkeypatch.setitem(sys.modules, name, None)
    with pytest.raises(ImportError, match=f"scipy>={SCIPY_FLOOR}"):
        load_extension(name, "test")
