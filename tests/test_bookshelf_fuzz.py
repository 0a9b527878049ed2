"""The Bookshelf reader on cut and corrupted files.

Every instance file is truncated and byte-flipped in turn.  Each
outcome is either a load or an :class:`InfeasibleInputError` of stage
``bookshelf.load`` that names the file and the line — never a raw
traceback — and a ``.nets`` cut anywhere after its header is always
refused.  The CLI maps the refusal to exit code 2.
"""

import os
import random
import re
import shutil

import pytest

from repro.bookshelf import load_instance, save_instance
from repro.cli import main as cli_main
from repro.geometry import Rect
from repro.movebounds import MoveBoundSet
from repro.netlist import Pin
from repro.resilience.errors import EXIT_INFEASIBLE, InfeasibleInputError
from repro.workloads import NetlistSpec, generate_netlist

NAME = "fz"
EXTS = ("aux", "nodes", "nets", "pl", "scl", "mb")


@pytest.fixture(scope="module")
def original(tmp_path_factory):
    """A tiny instance with pads, a macro, a fixed node, a degree-1
    net, weights, a blockage and a movebound, saved once; the files'
    bytes."""
    nl, _logical = generate_netlist(
        NetlistSpec(NAME, 10, num_pads=3, num_macros=1), seed=5
    )
    nl.add_net("single", [Pin(0, 0.5, -0.5)], weight=2.5)
    x, y = nl.x.copy(), nl.y.copy()
    x[0] = y[0] = 4.5  # a .pl line the checks below can find
    nl.set_positions(x, y)
    nl.set_net_weights({1: 3.0})
    nl.add_blockage(Rect(0.0, 0.0, 1.0, 1.0))
    nl.set_cells([2, 3], movebound="mb")
    nl.set_cells([4], fixed=True)
    bounds = MoveBoundSet(nl.die)
    die = nl.die
    bounds.add_rects("mb", [Rect(die.x_lo, die.y_lo, die.center[0],
                                 die.center[1])])
    d = str(tmp_path_factory.mktemp("fuzz_original"))
    save_instance(d, nl, bounds)
    return {
        ext: open(os.path.join(d, f"{NAME}.{ext}"), "rb").read()
        for ext in EXTS
    }


def _load(tmp_path, original, ext, data):
    """Load the instance with ``ext``'s bytes replaced by ``data``:
    ``None`` on a load, the refusal otherwise."""
    d = tmp_path / "inst"
    if not d.exists():
        d.mkdir()
        for e, raw in original.items():
            (d / f"{NAME}.{e}").write_bytes(raw)
    path = d / f"{NAME}.{ext}"
    path.write_bytes(data)
    try:
        load_instance(str(d), NAME)
        return None
    except InfeasibleInputError as exc:
        # a fault may show in another file: a corrupted node name, in
        # the .pl line that places it
        assert exc.stage == "bookshelf.load"
        assert re.match(
            re.escape(str(d / NAME)) + r"\.(nodes|nets|pl|scl|mb):\d+: ",
            exc.message,
        ), exc.message
        return exc
    finally:
        path.write_bytes(original[ext])


def test_the_original_loads(tmp_path, original):
    assert _load(tmp_path, original, "nets", original["nets"]) is None


@pytest.mark.parametrize("ext", EXTS)
def test_truncated_files_load_or_are_refused(tmp_path, original, ext):
    raw = original[ext]
    for cut in range(len(raw)):
        _load(tmp_path, original, ext, raw[:cut])


@pytest.mark.parametrize("ext", EXTS)
def test_flipped_bytes_load_or_are_refused(tmp_path, original, ext):
    raw = original[ext]
    rng = random.Random(f"flip-{ext}")
    for _ in range(200):
        at = rng.randrange(len(raw))
        flipped = bytearray(raw)
        flipped[at] ^= rng.choice([0x01, 0x20, 0x80, rng.randrange(1, 256)])
        _load(tmp_path, original, ext, bytes(flipped))


@pytest.mark.parametrize("ext", ["nodes", "nets", "pl", "scl"])
def test_a_byte_that_is_not_utf8_is_refused(tmp_path, original, ext):
    raw = original[ext]
    exc = _load(tmp_path, original, ext, raw[:3] + b"\xff" + raw[4:])
    assert exc is not None and "not UTF-8" in exc.message


def test_a_nets_file_cut_after_its_header_is_always_refused(
    tmp_path, original
):
    raw = original["nets"]
    header = raw.index(b"\n") + 1
    for cut in range(header, len(raw)):
        assert _load(tmp_path, original, "nets", raw[:cut]) is not None, cut


@pytest.mark.parametrize("ext, old, new, what", [
    ("nets", b"NetDegree : 2 ", b"NetDegree : 3 ", "pin lines for NetDegree"),
    ("nets", b"NumNets : ", b"NumNets : 9", "NumNets says"),
    ("nodes", b"NumNodes : ", b"NumNodes : 9", "NumNodes says"),
    ("nets", b"  c0 :", b"  zz :", "no node is named 'zz'"),
    ("pl", b"c1 ", b"c0 ", "placed twice"),
    ("pl", b"c1 ", b"c1 x", "ValueError"),
    ("pl", b"c0 4.5 ", b"c0 nan ", "a position is not a finite"),
    ("nets", b"  PAD : 0.0 ", b"  PAD : inf ", "a pin offset is not a"),
    ("nets", b"single 2.5", b"single nan", "'nan' is not a positive"),
    ("nets", b"single 2.5", b"single 0", "'0' is not a positive"),
    ("nets", b"single 2.5", b"single -1", "'-1' is not a positive"),
    ("nodes", b"c0 2.0", b"c0 -2.0", "'-2.0' is not a positive"),
    ("scl", b"Die 0.0", b"Die nan", "'nan' is not a finite number"),
    ("scl", b"RowHeight 1.0", b"RowHeight 0", "'0' is not a positive"),
    ("scl", b"SiteWidth 0.25", b"SiteWidth inf", "'inf' is not a positive"),
    ("scl", b"Blockage 0.0", b"Blockage -inf", "not a finite number"),
    ("mb", b"inclusive ", b"inclusive nan ", "'nan' is not a finite"),
    ("scl", b"Die", b"Dye", "unknown record"),
    ("nodes", b" terminal", b" terminus", "unknown attribute"),
])
def test_each_check_names_its_fault(tmp_path, original, ext, old, new,
                                    what):
    raw = original[ext]
    assert old in raw
    exc = _load(tmp_path, original, ext, raw.replace(old, new, 1))
    assert exc is not None and what in exc.message


def test_the_cli_exits_2_on_a_malformed_instance(tmp_path, original,
                                                 capsys):
    d = tmp_path / "cli"
    d.mkdir()
    for e, raw in original.items():
        (d / f"{NAME}.{e}").write_bytes(raw)
    (d / f"{NAME}.nets").write_bytes(original["nets"][:-1])
    assert cli_main(["check", NAME, "--dir", str(d)]) == EXIT_INFEASIBLE
    assert "[bookshelf.load]" in capsys.readouterr().err
    shutil.rmtree(d)
