"""Golden identity of the legalizer: same decisions, byte for byte.

``detailed_place`` and ``abacus_legalize`` are performance-critical and
have been rewritten on arrays; their contract is that every decision —
and therefore every written coordinate — is unchanged.  There is no
retained reference implementation to diff against.  Instead the sha256
of ``x.tobytes() + y.tobytes()`` and the :class:`DetailedReport`
counts of seeded fixtures were recorded from the object-loop code and
live in ``tests/data/legalize_golden.json``.

Regenerate (only when a decision is changed *on purpose*)::

    PYTHONPATH=src python tests/test_legalize_identity.py --record
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.geometry import Rect
from repro.legalize import (
    abacus_legalize,
    build_segments,
    check_legality,
    legalize_with_movebounds,
)
from repro.legalize.detailed import detailed_place
from repro.movebounds import EXCLUSIVE, MoveBoundSet, decompose_regions
from repro.netlist import Netlist, Pin
from repro.workloads import (
    MoveBoundSpec,
    NetlistSpec,
    attach_movebounds,
    generate_netlist,
)

GOLDEN = os.path.join(
    os.path.dirname(__file__), "data", "legalize_golden.json"
)


def placement_sha(netlist: Netlist) -> str:
    return hashlib.sha256(
        netlist.x.tobytes() + netlist.y.tobytes()
    ).hexdigest()


# ----------------------------------------------------------------------
# fixtures: every one a pure function of its arguments
# ----------------------------------------------------------------------
def _add_offset_nets(netlist: Netlist, n_std: int, seed: int) -> None:
    """Nets the generator never makes: off-center pins, the same cell
    twice on one net (at different and at equal offsets), a pad."""
    rng = np.random.default_rng(seed)
    die = netlist.die
    for j in range(max(n_std // 6, 4)):
        k = int(rng.integers(2, 6))
        members = rng.integers(0, n_std, size=k).tolist()
        pins = [
            Pin(
                int(c),
                float(rng.uniform(-0.4, 0.4)),
                float(rng.uniform(-0.4, 0.4)),
            )
            for c in members
        ]
        if j % 3 == 0:
            pins.append(Pin(int(members[0]), 0.25, -0.25))
        if j % 4 == 0:
            pins.append(pins[0])
        if j % 5 == 0:
            pins.append(
                Pin.terminal(
                    float(rng.uniform(die.x_lo, die.x_hi)),
                    float(rng.uniform(die.y_lo, die.y_hi)),
                )
            )
        netlist.add_net(f"off{j}", pins, weight=float(rng.choice([1.0, 2.0, 0.5])))


def _jitter(netlist: Netlist, n_std: int, seed: int, sigma: float) -> None:
    """Seeded displacement of the standard cells, so refinement has
    real work after legalization."""
    rng = np.random.default_rng(seed)
    netlist.x[:n_std] += rng.normal(0.0, sigma, n_std)
    netlist.y[:n_std] += rng.normal(0.0, sigma, n_std)
    netlist.clamp_into_die()


def flat(cells: int = 600, seed: int = 11, utilization: float = 0.5):
    spec = NetlistSpec("flat", cells, utilization=utilization, num_pads=8)
    nl, _ = generate_netlist(spec, seed=seed)
    _add_offset_nets(nl, cells, seed + 1)
    _jitter(nl, cells, seed + 2, 3.0)
    return nl, None, None


def movebounds9(cells: int = 700, seed: int = 5):
    """Nine inclusive movebounds on 80 % of the cells, every third one
    L-shaped — the benchmark's ``mb2k`` recipe at test size."""
    for attempt in range(16):
        spec = NetlistSpec("mb9", cells, utilization=0.5, num_pads=8)
        nl, logical = generate_netlist(spec, seed=seed + attempt)
        specs = [
            MoveBoundSpec(
                name=f"mb{i}",
                cell_fraction=0.8 / 9,
                density=0.74 if i == 0 else 0.8 * 0.74,
                shape="L" if i % 3 == 2 else "rect",
                from_flattening=False,
            )
            for i in range(9)
        ]
        try:
            bounds = attach_movebounds(
                nl, logical, specs, seed=seed + attempt + 77
            )
        except ValueError:
            continue
        _add_offset_nets(nl, cells, seed + 1)
        dec = decompose_regions(nl.die, bounds, nl.blockages)
        return nl, bounds, dec
    raise AssertionError("no feasible movebound layout")


def exclusive_mix(cells: int = 300, seed: int = 3):
    """One exclusive and one inclusive bound plus default cells: the
    default bound's area is the die minus the exclusive one."""
    spec = NetlistSpec("excl", cells, utilization=0.4, num_pads=8)
    nl, _ = generate_netlist(spec, seed=seed)
    die = nl.die
    w, h = die.width, float(int(die.height))
    bounds = MoveBoundSet(die)
    bounds.add_rects(
        "X", [Rect(0.0, 0.0, round(0.3 * w), round(0.4 * h))], EXCLUSIVE
    )
    bounds.add_rects(
        "I", [Rect(round(0.5 * w), round(0.3 * h), round(0.9 * w), round(0.8 * h))]
    )
    bounds.normalize()
    for i in range(cells):
        if i % 7 == 0:
            nl.cells[i].movebound = "X"
        elif i % 3 == 0:
            nl.cells[i].movebound = "I"
    _add_offset_nets(nl, cells, seed + 1)
    dec = decompose_regions(die, bounds, nl.blockages)
    return nl, bounds, dec


def macros_blockages(cells: int = 400, seed: int = 2):
    spec = NetlistSpec(
        "mix",
        cells,
        utilization=0.45,
        num_pads=8,
        num_macros=4,
        blockage_fracs=((0.3, 0.3, 0.15, 0.2), (0.7, 0.1, 0.1, 0.3)),
    )
    nl, _ = generate_netlist(spec, seed=seed)
    _add_offset_nets(nl, cells, seed + 1)
    _jitter(nl, cells, seed + 2, 2.0)
    return nl, None, None


#: name -> (builder, detailed_place keyword arguments)
DETAILED_CASES = {
    "flat600": (flat, {}),
    "flat600_passes1": (flat, {"passes": 1}),
    "flat600_passes3_wide": (
        flat,
        {"passes": 3, "row_radius": 6, "max_candidates": 5},
    ),
    "flat600_density097": (
        lambda: flat(utilization=0.8), {"density_target": 0.97}
    ),
    "flat600_density085": (
        lambda: flat(utilization=0.8), {"density_target": 0.85}
    ),
    "flat600_scoped": (flat, {"cells": list(range(0, 600, 3))}),
    "mb9": (movebounds9, {}),
    "mb9_density097_scoped": (
        movebounds9,
        {"density_target": 0.97, "cells": list(range(100, 400))},
    ),
    "exclusive_mix": (exclusive_mix, {}),
    "macros_blockages": (macros_blockages, {"density_target": 0.97}),
}


def run_detailed_case(name: str) -> dict:
    builder, kwargs = DETAILED_CASES[name]
    nl, bounds, dec = builder()
    legalize_with_movebounds(nl, bounds, dec)
    legal_sha = placement_sha(nl)
    report = detailed_place(nl, bounds, dec, **kwargs)
    assert check_legality(nl, bounds).is_legal
    return {
        "legalized_sha": legal_sha,
        "detailed_sha": placement_sha(nl),
        "moves": report.moves,
        "swaps": report.swaps,
        "passes": report.passes,
        "hpwl_before": report.hpwl_before.hex(),
        "hpwl_after": report.hpwl_after.hex(),
    }


def fragmented_abacus():
    """Cells piled into one corner of a die whose rows are cut into
    many short segments: the 4 (then 16) nearest segments cannot hold
    them, so the candidate limit has to widen."""
    die = Rect(0.0, 0.0, 60.0, 12.0)
    nl = Netlist(die, row_height=1.0, site_width=0.25, name="frag")
    rng = np.random.default_rng(9)
    n = 150
    nl.add_cells(
        [f"c{i}" for i in range(n)],
        rng.choice([1.0, 1.5, 2.0, 3.0], size=n),
        1.0,
        x=rng.uniform(1.0, 9.0, n),
        y=rng.uniform(0.5, 4.0, n),
    )
    nl.finalize()
    for k in range(1, 10):
        nl.add_blockage(Rect(6.0 * k, 0.0, 6.0 * k + 0.5, 12.0))
    return nl


def tight_abacus(fill: float = 0.93, seed: int = 1):
    """Short segments filled to ``fill`` with cells up to half a
    segment wide: rounding the transportation overloads segments, the
    slack repair strands a cell, first-fit decreasing takes over."""
    rows, cols = 8, 6
    die = Rect(0.0, 0.0, 6.0 * cols, float(rows))
    nl = Netlist(die, row_height=1.0, site_width=0.25, name="tight")
    rng = np.random.default_rng(seed)
    capacity = rows * cols * 5.5 + rows * 0.5
    widths = []
    while sum(widths) < fill * capacity:
        widths.append(float(rng.choice([1.0, 1.5, 2.0, 3.0])))
    widths.pop()
    n = len(widths)
    nl.add_cells(
        [f"c{i}" for i in range(n)],
        widths,
        1.0,
        x=rng.uniform(1.0, die.x_hi - 1.0, n),
        y=rng.uniform(0.5, rows - 0.5, n),
    )
    nl.finalize()
    for k in range(1, cols):
        nl.add_blockage(Rect(6.0 * k, 0.0, 6.0 * k + 0.5, float(rows)))
    return nl


#: name -> (builder, row_search_radius)
ABACUS_CASES = {
    "fragmented_radius4": (fragmented_abacus, 4),
    "fragmented_radius24": (fragmented_abacus, 24),
    "tight_first_fit": (tight_abacus, 6),
}


def run_abacus_case(name: str) -> dict:
    builder, radius = ABACUS_CASES[name]
    nl = builder()
    sq = abacus_legalize(
        nl,
        list(range(nl.num_cells)),
        build_segments(nl),
        row_search_radius=radius,
    )
    assert check_legality(nl).is_legal
    return {"sha": placement_sha(nl), "total_sq": float(sq).hex()}


def test_abacus_packing_failure_message_unchanged():
    nl = tight_abacus(fill=0.97, seed=0)
    with pytest.raises(ValueError, match="first-fit decreasing"):
        abacus_legalize(
            nl, list(range(nl.num_cells)), build_segments(nl),
            row_search_radius=6,
        )


CLI_CASES = {
    "cli_flat": ["generate", "Dagmar", "--seed", "2"],
    "cli_movebounds": ["generate", "Rabe", "--movebounds", "--seed", "1"],
}


def _pinned_env() -> dict:
    env = dict(os.environ)
    import repro

    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _pl_sha(out: str, design: str) -> str:
    with open(os.path.join(out, f"{design}.pl"), "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_cli_case(name: str, tmp: str) -> dict:
    """`python -m repro place` on a generated Bookshelf fixture; the
    written ``.pl`` is what users see."""
    env = _pinned_env()
    design = CLI_CASES[name][1]
    base = [sys.executable, "-m", "repro"]
    subprocess.run(
        base + CLI_CASES[name] + ["--out", tmp],
        check=True, env=env, capture_output=True,
    )
    out = os.path.join(tmp, "out")
    subprocess.run(
        base + ["place", design, "--dir", tmp, "--out", out],
        check=True, env=env, capture_output=True,
    )
    return {"pl_sha": _pl_sha(out, design)}


# global placement only (``legalize=False``): what the benchmark's
# ``global12k`` op runs — FBP realization with external flow, the
# rounded-transportation repair and the final reflow, no legalizer
GLOBAL_CASES = {
    "global_flat": ["generate", "Dagmar", "--seed", "2"],
    "global_movebounds": ["generate", "Rabe", "--movebounds", "--seed", "1"],
}

_GLOBAL_PLACE = """
import sys
from repro.bookshelf import load_instance, save_instance
from repro.obs import get_tracer
from repro.place.bonnplace import BonnPlaceFBP, BonnPlaceOptions

directory, design, out = sys.argv[1:]
netlist, bounds = load_instance(directory, design)
BonnPlaceFBP(BonnPlaceOptions(legalize=False)).place(netlist, bounds)
save_instance(out, netlist, bounds)
print(int(get_tracer().counters.get("realize.arcs_realized", 0)))
"""


def run_global_case(name: str, tmp: str) -> dict:
    env = _pinned_env()
    design = GLOBAL_CASES[name][1]
    subprocess.run(
        [sys.executable, "-m", "repro"] + GLOBAL_CASES[name] + ["--out", tmp],
        check=True, env=env, capture_output=True,
    )
    out = os.path.join(tmp, "out")
    done = subprocess.run(
        [sys.executable, "-c", _GLOBAL_PLACE, tmp, design, out],
        check=True, env=env, capture_output=True, text=True,
    )
    return {
        "pl_sha": _pl_sha(out, design),
        "arcs_realized": int(done.stdout.split()[-1]),
    }


def _golden() -> dict:
    with open(GOLDEN) as f:
        return json.load(f)


def _environment() -> dict:
    import scipy

    return {"numpy": np.__version__, "scipy": scipy.__version__}


def assert_golden(actual: dict, kind: str, name: str) -> None:
    """The fixtures' legal inputs come out of HiGHS LPs, whose choice
    among degenerate optima may change with the solver version: a
    mismatch under other library versions than the recorded ones is a
    skip, under the recorded ones a failure."""
    golden = _golden()
    if actual != golden[kind][name] and _environment() != golden["environment"]:
        pytest.skip(
            f"golden recorded under {golden['environment']}, "
            f"running under {_environment()}"
        )
    assert actual == golden[kind][name]


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(DETAILED_CASES))
def test_detailed_place_reproduces_golden(name):
    assert_golden(run_detailed_case(name), "detailed", name)


@pytest.mark.parametrize("name", sorted(ABACUS_CASES))
def test_abacus_reproduces_golden(name):
    assert_golden(run_abacus_case(name), "abacus", name)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_place_pl_reproduces_golden(name, tmp_path):
    assert_golden(run_cli_case(name, str(tmp_path)), "cli", name)


@pytest.mark.parametrize("name", sorted(GLOBAL_CASES))
def test_global_place_pl_reproduces_golden(name, tmp_path):
    assert_golden(run_global_case(name, str(tmp_path)), "global", name)


def test_golden_cases_are_not_vacuous():
    """Every kind of decision is actually taken somewhere."""
    golden = _golden()["detailed"]
    assert all(g["moves"] > 0 for g in golden.values())
    assert sum(g["swaps"] for g in golden.values()) > 0
    # the density filter, the scope and the pass count all bite
    assert golden["flat600_density085"]["detailed_sha"] != (
        golden["flat600_density097"]["detailed_sha"]
    )
    assert golden["flat600_scoped"]["moves"] < golden["flat600"]["moves"]
    assert golden["flat600_passes1"]["detailed_sha"] != (
        golden["flat600"]["detailed_sha"]
    )
    abacus = _golden()["abacus"]
    assert abacus["fragmented_radius4"]["sha"] != (
        abacus["fragmented_radius24"]["sha"]
    )
    # both global fixtures ship cells over window boundaries
    assert all(g["arcs_realized"] > 0 for g in _golden()["global"].values())


def test_median_target_counts_duplicate_pins():
    """Current behaviour, pinned: a net listed twice for a cell (two
    pins of the cell on it) contributes its other pins twice to the
    median target.  With the other pins at x = 10, 10 (net ``dup``,
    counted twice) and 30, 30, 30 (three single nets) the multiset is
    {10,10,10,10,30,30,30} -> median 10, so the cell moves to the left
    partner; counted once it would be {10,10,30,30,30} -> 30."""
    die = Rect(0, 0, 40, 4)
    nl = Netlist(die, row_height=1.0, site_width=0.5)
    m = nl.add_cell("m", 2, 1, x=20, y=2.5)
    left = [nl.add_cell(f"l{i}", 2, 1, x=10, y=0.5, fixed=True) for i in range(2)]
    right = [nl.add_cell(f"r{i}", 2, 1, x=30, y=0.5, fixed=True) for i in range(3)]
    nl.finalize()
    nl.add_net(
        "dup",
        [Pin(m.index, -0.5, 0.0), Pin(m.index, 0.5, 0.0)]
        + [Pin(c.index) for c in left],
        weight=4.0,
    )
    for c in right:
        nl.add_net(f"n{c.name}", [Pin(m.index), Pin(c.index)])
    report = detailed_place(nl, passes=1)
    assert report.moves == 1
    assert nl.x[m.index] < 20.0


def record() -> None:
    import tempfile

    golden = {
        "environment": _environment(),
        "detailed": {n: run_detailed_case(n) for n in sorted(DETAILED_CASES)},
        "abacus": {n: run_abacus_case(n) for n in sorted(ABACUS_CASES)},
        "cli": {},
        "global": {},
    }
    for kind, cases, run in (
        ("cli", CLI_CASES, run_cli_case),
        ("global", GLOBAL_CASES, run_global_case),
    ):
        for name in sorted(cases):
            with tempfile.TemporaryDirectory() as tmp:
                golden[kind][name] = run(name, tmp)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    record()
