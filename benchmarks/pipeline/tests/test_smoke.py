"""``run.py --smoke``: all four workloads, both modes, under 90 s."""

import json
import os
import subprocess
import sys
import time

import layers
import run
import workloads


def test_smoke_run_completes_clean(tmp_path):
    out = str(tmp_path / "record.json")
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--smoke", "--out", out],
        capture_output=True, text=True, timeout=170,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 90.0
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}

    with open(out) as f:
        (entry,) = json.load(f)
    assert entry["stamp"]["thread_env"]["OMP_NUM_THREADS"] == "1"
    records = entry["records"]
    assert [(r["workload"], r["trace"]) for r in records] == [
        (w, t) for w in workloads.WORKLOADS for t in (0, 1)
    ]
    for record in records:
        assert record["failed"] == 0 and record["attempted"] >= 1, record["problems"]
        assert set(record["end_to_end"]) == set(layers.END_TO_END)
        assert all(m["value"] > 0 for m in record["end_to_end"].values())
        if record["trace"]:
            assert set(record["per_layer"]) == set(layers.per_layer_units())
            assert record["per_layer"]["trace.unbound"]["value"] == 0
    # the scratch directory is gone once the run is over
    assert not os.path.exists(run.SCRATCH)
