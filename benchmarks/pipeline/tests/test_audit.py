"""The independent audit flags planted defects and fails the op."""

import os

import pytest

import audit
import run

CELLS = {  # name: (width, x_lo, row)
    "a": (2.0, 0.0, 0),
    "b": (1.0, 2.0, 0),
    "c": (3.0, 4.0, 1),
    "d": (1.5, 0.5, 2),
}
NETS = [("n0", 2.0, ["a", "b", "c"]), ("n1", 1.0, ["c", "d", "PAD"])]


def write_design(directory, name="t", moved=None, movebounds=None):
    """A legal 4-cell design on a 10 x 4 die; ``moved`` overrides cell
    centres, ``movebounds`` maps cell -> bound name."""
    os.makedirs(directory, exist_ok=True)
    base = os.path.join(str(directory), name)
    movebounds = movebounds or {}
    with open(base + ".scl", "w") as f:
        f.write("Die 0.0 0.0 10.0 4.0 RowHeight 1.0 SiteWidth 0.5\n")
    with open(base + ".nodes", "w") as f:
        f.write(f"NumNodes : {len(CELLS)}\n")
        for cell, (w, _x, _r) in CELLS.items():
            extra = f" movebound={movebounds[cell]}" if cell in movebounds else ""
            f.write(f"{cell} {w} 1.0{extra}\n")
    with open(base + ".pl", "w") as f:
        for cell, (w, x_lo, row) in CELLS.items():
            x, y = (moved or {}).get(cell, (x_lo + w / 2, row + 0.5))
            f.write(f"{cell} {x} {y}\n")
    with open(base + ".nets", "w") as f:
        f.write(f"NumNets : {len(NETS)}\n")
        for net, weight, pins in NETS:
            f.write(f"NetDegree : {len(pins)} {net} {weight}\n")
            for pin in pins:
                f.write("  PAD : 9.0 3.0\n" if pin == "PAD" else f"  {pin} : 0.25 0.0\n")
    if movebounds:
        with open(base + ".mb", "w") as f:
            f.write("left inclusive 0.0 0.0 3.0 2.0 0.0 2.0 2.0 4.0\n")


# n0: x 1.25..5.75, y 0.5..1.5 -> 5.5 * 2; n1: x 1.5..9, y 1.5..3 -> 9.0
TRUE_HPWL = 2.0 * 5.5 + 9.0


def test_clean_design_passes(tmp_path):
    write_design(tmp_path, movebounds={"a": "left", "d": "left"})
    report = audit.audit(str(tmp_path), "t", True, TRUE_HPWL, reported_legal=True)
    assert report.ok, report.problems
    assert report.hpwl == pytest.approx(TRUE_HPWL)
    assert not any(report.violations.values())
    # 4 cells make a 2 x 2 map of 5 x 2 bins; the fullest holds area 3
    assert report.max_bin_util == pytest.approx(3.0 / 10.0)
    # on a 4 x 4 map 'c' (area 3) sits alone in a bin of 2.5 x 1.0
    d = audit.read_design(str(tmp_path), "t")
    assert audit.max_bin_util(d, 4) == pytest.approx(3.0 / 2.5)


@pytest.mark.parametrize(
    "moved, movebounds, reported, expect",
    [
        ({"b": (1.5, 0.5)}, None, None, "overlaps=1"),
        ({"c": (5.5, 1.8)}, None, None, "off_row=1"),
        ({"b": (2.6, 0.5)}, None, None, "off_site=1"),
        ({"c": (9.5, 1.5)}, None, None, "out_of_die=1"),
        ({"d": (4.25, 2.5)}, {"a": "left", "d": "left"}, None, "movebound=1"),
        (None, None, TRUE_HPWL * 1.001, "HPWL disagrees"),
    ],
)
def test_planted_defect_fails_the_op(tmp_path, moved, movebounds, reported, expect):
    write_design(tmp_path, moved=moved, movebounds=movebounds)
    d = audit.read_design(str(tmp_path), "t")
    said = audit.hpwl(d) if reported is None else reported
    op = run.Op(ok=True, out_dir=str(tmp_path), reported_hpwl=said, reported_legal=True)
    run.check_op(op, "t", True, ref_hpwl=1.0)
    assert not op.ok
    assert any(expect in p for p in op.problems), op.problems


def test_exclusive_bound_keeps_foreign_cells_out(tmp_path):
    write_design(tmp_path, movebounds={"a": "left"})
    with open(os.path.join(str(tmp_path), "t.mb"), "w") as f:
        f.write("left exclusive 0.0 0.0 3.0 1.0\n")
    d = audit.read_design(str(tmp_path), "t")
    assert audit.count_movebound_violations(d) == 1  # 'b' squats in it


def test_global_result_answers_only_for_the_die(tmp_path):
    write_design(tmp_path, moved={"b": (1.5, 0.7)})  # overlapping, off-row
    d = audit.read_design(str(tmp_path), "t")
    report = audit.audit(str(tmp_path), "t", False, audit.hpwl(d))
    assert report.ok and report.violations["overlaps"] == 1


def test_missing_output_fails_the_op(tmp_path):
    op = run.Op(ok=True, out_dir=str(tmp_path), reported_hpwl=1.0)
    run.check_op(op, "absent", True, ref_hpwl=1.0)
    assert not op.ok and "unreadable output" in op.problems[0]
