"""compare.py verdicts on synthetic records."""

import json

import compare


def _record(path, walls, hpwl=1.25, pivots=100.0, failed=0):
    runs = []
    for wall in walls:
        e2e = {
            "setup_s": 1.0, "op_wall_s": wall, "op_cpu_s": wall, "peak_rss_mb": 100.0,
            "hpwl": hpwl, "max_bin_util": 1.1,
        }
        runs.append({
            "stamp": {"seed": 0, "scale": 1.0, "git_commit": "x"},
            "records": [
                {"workload": "flat3k", "trace": 0, "failed": failed,
                 "end_to_end": {k: {"value": v, "unit": "u"} for k, v in e2e.items()}},
                {"workload": "flat3k", "trace": 1, "failed": 0, "end_to_end": {},
                 "per_layer": {"n.mcf.pivots": {"value": pivots, "unit": "count"}}},
            ],
        })
    path.write_text(json.dumps(runs))
    return str(path)


def test_same_numbers_are_ok(tmp_path, capsys):
    a = _record(tmp_path / "a.json", [4.0, 4.1])
    b = _record(tmp_path / "b.json", [4.1, 4.0])
    assert compare.main([a, b]) == 0
    assert "0 regressed, 0 unresolved, 0 changed" in capsys.readouterr().out


def test_slower_than_the_bound_regresses(tmp_path, capsys):
    a = _record(tmp_path / "a.json", [4.0])
    b = _record(tmp_path / "b.json", [5.2])
    assert compare.main([a, b]) == 1
    assert "regressed" in capsys.readouterr().out


def test_wide_spread_is_unresolved_not_ok(tmp_path, capsys):
    a = _record(tmp_path / "a.json", [4.0, 5.6])
    b = _record(tmp_path / "b.json", [4.2, 4.3])
    assert compare.main([a, b]) == 0
    assert "unresolved" in capsys.readouterr().out


def test_result_metrics_and_counts_must_repeat_exactly(tmp_path, capsys):
    a = _record(tmp_path / "a.json", [4.0])
    b = _record(tmp_path / "b.json", [4.0], hpwl=1.2501, pivots=101.0)
    assert compare.main([a, b]) == 0
    assert "2 changed" in capsys.readouterr().out
    c = _record(tmp_path / "c.json", [4.0], hpwl=1.5)
    assert compare.main([a, c]) == 1


def test_new_failures_regress_and_other_seed_is_refused(tmp_path):
    a = _record(tmp_path / "a.json", [4.0])
    b = _record(tmp_path / "b.json", [4.0], failed=1)
    assert compare.main([a, b]) == 1
    other = json.loads((tmp_path / "a.json").read_text())
    other[0]["stamp"]["seed"] = 1
    (tmp_path / "o.json").write_text(json.dumps(other))
    assert compare.main([a, str(tmp_path / "o.json")]) == 2
