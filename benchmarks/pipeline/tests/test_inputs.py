"""Seeded inputs, and BENCHMARK.json in step with the code."""

import json
import os
import re
import shutil

import pytest

import audit
import layers
import run
import workloads


def _fingerprint(name, seed):
    w = workloads.WORKLOADS[name].scaled(workloads.SMOKE_SCALE)
    work = os.path.join(run.SCRATCH, f"test-{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        run.set_up(w, seed, work, reps=1)
        return audit.fingerprint(os.path.join(work, "input"), workloads.instance_names(w))
    finally:
        shutil.rmtree(work, ignore_errors=True)


@pytest.mark.parametrize("name", ["flat3k", "mb2k"])
def test_same_seed_same_input_other_seed_other_input(name):
    first = _fingerprint(name, 5)
    assert _fingerprint(name, 5) == first
    assert _fingerprint(name, 6) != first


def test_instance_seeds_do_not_collide_across_seeds():
    seen = {
        workloads.instance_seed(w, seed, i)
        for w in workloads.WORKLOADS
        for seed in range(20)
        for i in range(4)
    }
    assert len(seen) == len(workloads.WORKLOADS) * 20 * 4


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == [os.path.relpath(run.HERE, run.ROOT)]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why and len(w["why"]) <= 200
    assert {m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]} == layers.END_TO_END
    assert all(m["better"] == "lower" and m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.per_layer_units()
    assert len(spec["per_layer"]) <= 128
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        assert name_ok.match(m["name"]), m["name"]


def test_committed_fingerprints_cover_every_workload():
    with open(os.path.join(run.HERE, "fingerprints.json")) as f:
        committed = json.load(f)
    assert set(committed["0"]) == set(workloads.WORKLOADS)
