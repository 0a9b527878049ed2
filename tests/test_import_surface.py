"""What a ``place`` process loads.

Both flow LPs need only scipy's compiled HiGHS bindings, which
:func:`repro.flows.highs._highs` loads from their file; ``scipy.fft``
(and ``scipy.special`` with it) serves only the Kraftwerk baseline's
Poisson step; ``scipy.spatial`` only the workload generators.  None of
them may come back through an import of the CLI or of the FBP placer,
nor at any point of a ``python -m repro place`` run.  Each check runs
in a fresh interpreter, since the test process itself has long loaded
all of scipy.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.bookshelf import save_instance
from repro.cli import main
from repro.flows import highs
from repro.workloads.generator import NetlistSpec, generate_netlist
from repro.workloads.movebound_gen import MoveBoundSpec, attach_movebounds

#: where the child process finds the package, regardless of how the
#: parent was launched
REPRO_PARENT = os.path.dirname(os.path.dirname(repro.__file__))

#: the scipy packages a ``place`` with the default placer never runs
UNUSED = ("scipy.optimize", "scipy.fft", "scipy.special", "scipy.spatial")

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
    "statement", ["import repro.cli", "import repro.place.bonnplace"]
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
    names = UNUSED + (highs._CORE,)
    proc = run_child(PROBED_MAIN.format(names=names, argv=argv))
    loaded = json.loads(proc.stderr.strip().splitlines()[-1])
    # the LPs ran on the file-loaded bindings, and nothing else came in
    assert loaded == [highs._CORE]

    inproc = instance_dir / "inproc"
    assert main(
        ["place", "surface", "--dir", str(instance_dir), "--out", str(inproc)]
    ) == 0
    assert (out / "surface.pl").read_bytes() == (
        inproc / "surface.pl"
    ).read_bytes()


LOADER = """
import sys
from repro.flows import highs
core = highs._highs()
assert "scipy.optimize" not in sys.modules
assert sys.modules[highs._CORE] is core
import scipy.optimize._highspy._core as reused
from scipy.optimize import linprog
from scipy.optimize._highspy import _core
assert reused is core and _core is core
assert sys.modules[highs._CORE] is core
res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
assert res.status == 0 and abs(res.fun - 1.0) < 1e-9, res
"""


def test_loader_registers_the_module_scipy_reuses():
    run_child(LOADER)


FALLBACK = """
import importlib.machinery, sys
import numpy as np
from repro.flows import highs
# no extension suffix matches: the file is not found
importlib.machinery.EXTENSION_SUFFIXES = []
assert highs._core_file() is None
core = highs._highs()
assert "scipy.optimize" in sys.modules
assert sys.modules[highs._CORE] is core
one = np.ones(1)
# min x  s.t.  1 <= x <= 2,  0 <= x <= 1
lp = highs.run_highs(one, one, one, 2 * one, [0, 1], [0], one, False, None, "lp")
assert lp.feasible and lp.x.tolist() == [1.0]
"""


def test_loader_falls_back_to_the_package_import():
    run_child(FALLBACK)

