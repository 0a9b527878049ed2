#!/usr/bin/env python3
"""The repo's one benchmark: end-to-end and per-layer placement metrics.

    python3 benchmarks/pipeline/run.py [--workload NAME] [--seed 0]
        [--seconds 20] [--trace 0|1] [--scale 1] [--smoke] [--out FILE]

One run measures one workload in one mode.  ``--trace 0`` places the
workload's instances untraced, each op in a fresh child process, and
reports the end-to-end metrics; ``--trace 1`` places fewer instances,
each once untraced and once with the outside tracer installed, checks
that both wrote the same bytes, and reports the per-layer metrics.
Without ``--workload`` / ``--trace`` every workload runs in both modes.

Phases of a run, each in its own process(es):

1. set-up (``adapter.py setup``, run ``SETUP_REPS`` times, median
   reported): instances from the seed, Bookshelf files, warm-up place,
   and for the ECO workload the base placement and its deltas;
2. ops, closed loop with one client: one pass over the instances, then
   further ops until ``--seconds`` have passed; same input, same bytes
   out, so extra passes only add timing samples;
3. audit (``audit.py``, in this process): every written result is read
   back and checked with code that shares nothing with ``src/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from statistics import fmean, median
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
ADAPTER = os.path.join(HERE, "adapter.py")
SCRATCH = os.path.join(ROOT, ".bench_pipeline")

#: the placement itself changes with the BLAS thread count (README),
#: so every process of the benchmark is pinned to one thread
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)
sys.path.insert(0, HERE)

import audit  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3
CHILD_TIMEOUT_S = 170.0


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
@dataclass
class Exit:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv: List[str], log: str, t_spawn_arg: bool = False) -> Exit:
    """Run ``argv`` to completion, timed fork -> ``wait4``; with
    ``t_spawn_arg`` the child is told the parent's clock at spawn."""
    with open(log, "w") as sink:
        t0 = time.perf_counter()
        if t_spawn_arg:
            argv = argv[:2] + ["--t-spawn", repr(t0)] + argv[2:]
        proc = subprocess.Popen(
            argv, env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
            stdout=sink, stderr=subprocess.STDOUT,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


def tail(path: str, lines: int = 12) -> str:
    with open(path, errors="replace") as f:
        return "".join(f.readlines()[-lines:])


# ----------------------------------------------------------------------
# one op and what the program said about it
# ----------------------------------------------------------------------
@dataclass
class Op:
    ok: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    out_dir: str = ""
    reported_hpwl: Optional[float] = None
    reported_legal: Optional[bool] = None
    hpwl_abs_tol: float = 0.0
    window: Optional[Tuple[float, float]] = None
    problems: List[str] = field(default_factory=list)
    pl_sha: str = ""
    hpwl: float = 0.0
    hpwl_ratio: float = 0.0
    max_bin_util: float = 0.0


@dataclass
class ChildRun:
    """One child process: one op (cli, global) or one pass of deltas."""

    ops: List[Op]
    rss_mb: float
    spans_path: Optional[str] = None
    report: dict = field(default_factory=dict)


_CLI_HPWL = re.compile(r"HPWL=([0-9.eE+-]+)")
_CLI_LEGAL = re.compile(r"^legality: (.*)$", re.M)


def run_child(w: workloads.Workload, work: str, name: str, tag: str, traced: bool) -> ChildRun:
    out = os.path.join(work, "out", tag)
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "log.txt")
    report_path = os.path.join(out, "report.json")
    spans_path = os.path.join(out, "spans.json") if traced else None
    trace_args = ["--spans", spans_path] if traced else []
    inputs = os.path.join(work, "input")

    if w.op == "cli":
        place = ["place", name, "--dir", inputs, "--out", out]
        if traced:
            argv = [sys.executable, ADAPTER, "cli", "--argv", json.dumps(place)] + trace_args
        else:
            argv = [sys.executable, "-m", "repro"] + place
    elif w.op == "global":
        argv = [sys.executable, ADAPTER, "global", "--dir", inputs, "--name", name,
                "--out", out, "--report", report_path] + trace_args
    else:
        argv = [sys.executable, ADAPTER, "eco", "--dir", os.path.join(work, "base"),
                "--name", name, "--deltas", os.path.join(work, f"{name}.deltas.json"),
                "--run-dir", os.path.join(out, "journal"), "--out", out,
                "--report", report_path] + trace_args
    done = spawn(argv, log, t_spawn_arg=traced)

    report: dict = {}
    if os.path.exists(report_path):
        with open(report_path) as f:
            report = json.load(f)
    if w.op == "cli":
        text = tail(log, 1000)
        hp, legal = _CLI_HPWL.search(text), _CLI_LEGAL.search(text)
        op = Op(
            ok=done.rc == 0,
            wall_s=done.wall_s,
            cpu_s=done.cpu_s,
            out_dir=out,
            reported_hpwl=float(hp.group(1)) if hp else None,
            reported_legal=(legal.group(1).strip() == "legal") if legal else None,
            hpwl_abs_tol=0.051,  # the CLI prints one decimal
        )
        ops = [op]
    elif w.op == "global":
        said = (report.get("ops") or [{}])[0]
        ops = [Op(ok=done.rc == 0 and bool(said.get("ok")), wall_s=done.wall_s,
                  cpu_s=done.cpu_s, out_dir=out, reported_hpwl=said.get("hpwl"))]
    else:
        ops = []
        for j, said in enumerate(report.get("ops", [])):
            if said.get("ok"):
                ops.append(Op(ok=True, wall_s=said["wall_s"], cpu_s=said["cpu_s"],
                              out_dir=os.path.join(out, f"op{j}"),
                              reported_hpwl=said["hpwl"], reported_legal=said["legal"],
                              window=tuple(said["window"])))
            else:
                ops.append(Op(ok=False, problems=[said.get("error", "failed")]))
        if done.rc != 0 or not ops:
            ops.append(Op(ok=False))
    for op in ops:
        if not op.ok and not op.problems:
            op.problems.append(f"exit code {done.rc}: {tail(log, 3).strip()}")
    return ChildRun(ops=ops, rss_mb=done.rss_mb, spans_path=spans_path, report=report)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def set_up(w: workloads.Workload, seed: int, work: str, reps: int) -> List[float]:
    names = workloads.instance_names(w)
    spec = {
        "workload": asdict(w),
        "names": names,
        "seeds": [workloads.instance_seed(w.name, seed, i) for i in range(len(names))],
        "warmup_cells": workloads.WARMUP_CELLS,
    }
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    samples, prints = [], set()
    for rep in range(reps):
        for sub in ("input", "base", "warmup"):
            shutil.rmtree(os.path.join(work, sub), ignore_errors=True)
        log = os.path.join(work, f"setup{rep}.log")
        done = spawn([sys.executable, ADAPTER, "setup", "--spec", spec_path, "--out", work], log)
        if done.rc != 0:
            sys.stderr.write(f"set-up of {w.name} failed (exit {done.rc}):\n{tail(log)}")
            raise SystemExit(2)
        samples.append(done.wall_s)
        prints.add(audit.fingerprint(os.path.join(work, "input"), names))
    if len(prints) != 1:
        sys.stderr.write(f"set-up of {w.name} is not deterministic in its seed\n")
        raise SystemExit(2)
    return samples


def committed_fingerprint(w: workloads.Workload, seed: int, scale: float) -> Optional[str]:
    path = os.path.join(HERE, "fingerprints.json")
    if scale != 1.0 or not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f).get(str(seed), {}).get(w.name)


# ----------------------------------------------------------------------
# measuring one workload
# ----------------------------------------------------------------------
def check_op(op: Op, name: str, legalized: bool, ref_hpwl: float) -> None:
    """Audit one finished op in place; problems fail it."""
    if not op.ok:
        return
    try:
        found = audit.audit(op.out_dir, name, legalized, op.reported_hpwl,
                            op.hpwl_abs_tol, op.reported_legal)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        op.ok = False
        op.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return
    op.pl_sha = audit.file_sha256(os.path.join(op.out_dir, f"{name}.pl"))
    op.hpwl, op.max_bin_util = found.hpwl, found.max_bin_util
    op.hpwl_ratio = found.hpwl / ref_hpwl
    if not found.ok:
        op.ok = False
        op.problems.extend(found.problems)


def measure(w: workloads.Workload, seed: int, seconds: float, trace: int,
            scale: float, setup_reps: int) -> dict:
    """Set up, run and audit one workload in one mode; the record."""
    work = os.path.join(SCRATCH, f"{w.name}.s{seed}.t{trace}.{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _measure(w, seed, seconds, trace, scale, setup_reps, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(SCRATCH) and not os.listdir(SCRATCH):
            os.rmdir(SCRATCH)


def _measure(w, seed, seconds, trace, scale, setup_reps, work) -> dict:
    setup_samples = set_up(w, seed, work, setup_reps)
    names = workloads.instance_names(w)
    inputs = os.path.join(work, "input")
    legalized = w.op != "global"
    # ``hpwl`` is relative to the placement the op is given: the
    # generator's reference placement, or the ECO engine's base design
    given = os.path.join(work, "base") if w.op == "eco" else inputs
    ref_hpwl = [audit.hpwl(audit.read_design(given, n)) for n in names]
    fingerprint = audit.fingerprint(inputs, names)
    expected = committed_fingerprint(w, seed, scale)
    input_problem = None
    if expected is not None and expected != fingerprint:
        input_problem = f"generated input {fingerprint[:12]} differs from the committed {expected[:12]}"

    if trace:
        slots = [(i, t) for i in range(w.traced_instances) for t in (False, True)]
    else:
        slots = [(i, False) for i in range(w.instances)]
    runs: Dict[Tuple[int, bool], List[ChildRun]] = {s: [] for s in slots}
    started = time.perf_counter()
    turn = 0
    while turn < len(slots) or time.perf_counter() - started < seconds:
        i, traced = slot = slots[turn % len(slots)]
        npass = turn // len(slots)
        run = run_child(w, work, names[i], f"{names[i]}.{'t' if traced else 'u'}{npass}", traced)
        first = runs[slot][0] if runs[slot] else None
        for j, op in enumerate(run.ops):
            check_op(op, names[i], legalized, ref_hpwl[i])
            if input_problem:
                op.ok = False
                op.problems.append(input_problem)
            if op.ok and first and j < len(first.ops) and first.ops[j].pl_sha != op.pl_sha:
                op.ok = False
                op.problems.append("same input, different output on a repeat")
        runs[slot].append(run)
        turn += 1

    # identity guard: the tracer must not change what is computed
    if trace:
        for i in range(w.traced_instances):
            plain, traced_run = runs[(i, False)][0], runs[(i, True)][0]
            same = len(plain.ops) == len(traced_run.ops) and all(
                a.pl_sha == b.pl_sha for a, b in zip(plain.ops, traced_run.ops)
            )
            if not same:
                for op in traced_run.ops:
                    op.ok = False
                    op.problems.append("traced output differs from untraced output")

    all_ops = [op for rs in runs.values() for r in rs for op in r.ops]
    problems = sorted({p for op in all_ops for p in op.problems})
    record = {
        "workload": w.name,
        "trace": trace,
        "cells": w.cells,
        "fingerprint": fingerprint,
        "attempted": len(all_ops),
        "failed": sum(not op.ok for op in all_ops),
        "problems": problems,
        "end_to_end": end_to_end(runs, setup_samples),
    }
    if trace:
        record["per_layer"] = per_layer(w, runs)
    return record


def _slot_samples(rs: List[ChildRun], attr: str) -> List[float]:
    return [getattr(op, attr) for r in rs for op in r.ops if op.ok]


def end_to_end(runs, setup_samples) -> Dict[str, dict]:
    plain = [rs for (i, traced), rs in sorted(runs.items()) if not traced]
    out: Dict[str, dict] = {}

    def put(name: str, value: float, n: int) -> None:
        out[name] = {"value": value, "unit": layers.END_TO_END[name][0], "n": n}

    put("setup_s", median(setup_samples), len(setup_samples))
    for name, attr in (("op_wall_s", "wall_s"), ("op_cpu_s", "cpu_s")):
        per_slot = [_slot_samples(rs, attr) for rs in plain]
        per_slot = [s for s in per_slot if s]
        if per_slot:
            put(name, median([median(s) for s in per_slot]), sum(map(len, per_slot)))
    put("peak_rss_mb", median([median([r.rss_mb for r in rs]) for rs in plain]),
        sum(len(rs) for rs in plain))
    # results, not timings: first pass only, so the value does not
    # depend on how many extra passes fitted into --seconds
    first_ops = [op for rs in plain for op in rs[0].ops if op.ok]
    if first_ops:
        put("hpwl", fmean(op.hpwl_ratio for op in first_ops), len(first_ops))
        put("max_bin_util", fmean(op.max_bin_util for op in first_ops), len(first_ops))
        out["hpwl"]["raw"] = [op.hpwl for op in first_ops]
    return out


def per_layer(w: workloads.Workload, runs) -> Dict[str, dict]:
    """Per-op layer metrics of the traced slots.  Timings are the
    median over passes, then the mean over instances; counts come from
    the first pass only, so they repeat exactly.  ``None`` marks what
    could not be measured: a layer none of whose entry points resolved,
    a counter the program never touched, a ratio over nothing."""
    units = layers.per_layer_units()
    per_slot: List[Dict[str, float]] = []
    counters: Dict[str, float] = {}
    unbound: set = set()
    for (i, is_traced), rs in sorted(runs.items()):
        if not is_traced:
            continue
        timing: Dict[str, List[float]] = {}
        for npass, run in enumerate(rs):
            ok_ops = [op for op in run.ops if op.ok]
            if not ok_ops or not os.path.exists(run.spans_path):
                continue
            payload = spans.load(run.spans_path)
            n = len(ok_ops)
            windows = [op.window for op in ok_ops] if w.op == "eco" else None
            by_layer = spans.self_times(payload, windows)
            op_wall = sum(op.wall_s for op in ok_ops)
            attributed = sum(self_s for self_s, _calls in by_layer.values())
            timing.setdefault("trace.unattributed_s", []).append((op_wall - attributed) / n)
            timing.setdefault("traced_wall", []).append(op_wall / n)
            for layer, (self_s, calls) in by_layer.items():
                timing.setdefault(f"{layer}.self_s", []).append(self_s / n)
                if npass == 0:
                    timing[f"{layer}.calls"] = [calls / n]
            if npass == 0:
                unbound.update(payload["unbound"])
                for key, value in payload["counters"].items():
                    counters[key] = counters.get(key, 0.0) + value
                counters["ops"] = counters.get("ops", 0.0) + n
                counters["finest_windows"] = counters.get("finest_windows", 0.0) + run.report.get("finest_windows", 0)
        if not timing:
            continue
        slot = {k: median(v) for k, v in timing.items()}
        slot["trace.unattributed_frac"] = slot["trace.unattributed_s"] / slot["traced_wall"]
        untraced_wall = _slot_samples(runs[(i, False)], "wall_s")
        if untraced_wall:
            slot["trace.overhead_frac"] = median(_slot_samples(rs, "wall_s")) / median(untraced_wall) - 1.0
        per_slot.append(slot)

    dead = {layer for layer, specs in layers.ENTRY_POINTS.items() if unbound.issuperset(specs)}
    values: Dict[str, Optional[float]] = {}
    for name in units:
        seen = [slot[name] for slot in per_slot if name in slot]
        layer = name.rsplit(".", 1)[0]
        if seen:
            values[name] = fmean(seen)
        else:  # a live layer that was not called reads 0, a dead one null
            values[name] = 0.0 if per_slot and layer in layers.LAYERS and layer not in dead else None
    ops = counters.get("ops", 0.0)
    for counter in layers.COUNTERS:
        values[f"n.{counter}"] = counters[counter] / ops if counter in counters and ops else None
    for ratio, (num, den) in layers.RATIOS.items():
        below = sum(counters.get(c, 0.0) for c in den)
        values[ratio] = sum(counters.get(c, 0.0) for c in num) / below if below else None
    values["trace.unbound"] = float(len(unbound))
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` directly (the driver's
    checkout is not a repository; never walk up to a parent's)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return None


def machine_stamp(seed: int, scale: float, seconds: float) -> dict:
    versions = {}
    for package in ("numpy", "scipy", "networkx"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        **versions,
        "thread_env": THREAD_ENV,
        "git_commit": git_commit(),
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
    }


def print_record(record: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"== {record['workload']} ({record['cells']} cells, {mode}) "
          f"ops {record['attempted']} ops_failed {record['failed']} "
          f"fail_frac {record['failed'] / max(record['attempted'], 1):.4f} "
          f"input {record['fingerprint']}")
    for section in ("end_to_end", "per_layer"):
        for name, m in record.get(section, {}).items():
            n = f"  n={m['n']}" if "n" in m else ""
            value = "null" if m["value"] is None else f"{m['value']:.6f}"
            print(f"{name:<34} {value:>16} {m['unit']}{n}")
    for problem in record["problems"]:
        print(f"PROBLEM: {problem}")


def result_line(record: dict) -> str:
    section = record["per_layer"] if record["trace"] else record["end_to_end"]
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        # the driver takes numbers only: what could not be measured reads 0
        "metrics": {k: {"value": m["value"] or 0.0, "unit": m["unit"]} for k, m in section.items()},
    })


def default_seconds() -> float:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return float(json.load(f)["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 20.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every cell count (offline ledger runs)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances, one pass, one set-up: self-test")
    parser.add_argument("--out", default=None, help="append the record to this JSON file")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(f"no program to measure: {SRC}/repro is missing\n")
        return 2
    seconds = default_seconds() if args.seconds is None else args.seconds
    scale, setup_reps = args.scale, SETUP_REPS
    if args.smoke:
        scale, seconds, setup_reps = workloads.SMOKE_SCALE, 0.0, 1

    picked = [args.workload] if args.workload else list(workloads.WORKLOADS)
    modes = [args.trace] if args.trace is not None else [0, 1]
    stamp = machine_stamp(args.seed, scale, seconds)
    print("machine " + json.dumps(stamp, sort_keys=True))
    records = []
    for name in picked:
        w = workloads.WORKLOADS[name].scaled(scale)
        if args.smoke:
            w = replace(w, instances=1, traced_instances=1)
        for trace in modes:
            record = measure(w, args.seed, seconds, trace, scale, setup_reps)
            records.append(record)
            print_record(record)
            print(result_line(record), flush=True)
    if args.out:
        history = []
        if os.path.exists(args.out):
            with open(args.out) as f:
                history = json.load(f)
        history.append({"stamp": stamp, "records": records})
        with open(args.out, "w") as f:
            json.dump(history, f, indent=1)
            f.write("\n")
    return 0 if all(r["failed"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
