"""Command-line interface: ``repro-place`` (or ``python -m repro``).

Subcommands:

``generate``  — synthesize a suite instance and write Bookshelf files.
``place``     — place a Bookshelf instance with a chosen placer.
``check``     — feasibility (Theorem 2) and legality audit.
``score``     — HPWL + ISPD2006-style scoring of a placed instance.
``replace``   — transactional incremental re-place (ECO deltas with a
                durable journal; docs/incremental.md).

Service mode (docs/service.md):

``serve``     — run the placement-service daemon on a state dir.
``submit``    — submit a place/check/replace job to a daemon.
``status``    — one job's lifecycle state.
``result``    — a job's result (``--wait`` blocks); exits with the
                job's mapped code on failure (overload/cancel = 5).
``cancel``    — cancel a queued or running job.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from repro.bookshelf import load_instance, save_instance
from repro.feasibility import check_feasibility
from repro.legalize import check_legality
from repro.metrics import density_penalty
from repro.obs import (
    get_tracer,
    set_invariants_enabled,
    write_stats_json,
)
from repro.place import PLACERS
from repro.resilience import (
    ReproError,
    SolverBudget,
    install_fault_plan,
    set_default_budget,
)


def _make_placer(name: str):
    if name not in PLACERS:
        raise SystemExit(
            f"unknown placer {name!r}; choose from {sorted(PLACERS)}"
        )
    return PLACERS[name]()


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.workloads import (
        ISPD_SUITE,
        MOVEBOUND_SUITE,
        TABLE2_SUITE,
        ispd_like_instance,
        movebound_instance,
        table2_instance,
    )

    name = args.instance
    if args.suite == "table2" or (args.suite == "auto" and name in TABLE2_SUITE and not args.movebounds):
        inst = table2_instance(name, seed=args.seed)
    elif args.suite == "movebound" or (args.suite == "auto" and name in MOVEBOUND_SUITE and args.movebounds):
        inst = movebound_instance(name, seed=args.seed, exclusive=args.exclusive)
    elif args.suite == "ispd" or (args.suite == "auto" and name in ISPD_SUITE):
        inst = ispd_like_instance(name, seed=args.seed)
    else:
        raise SystemExit(f"unknown instance {name!r}")
    save_instance(args.out, inst.netlist, inst.bounds)
    print(
        f"wrote {inst.netlist.num_cells} cells, {inst.netlist.num_nets} nets, "
        f"{len(inst.bounds)} movebounds to {args.out}/{name}.*"
    )
    return 0


def cmd_place(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.runstate import DurableRunState, WindowSolverPool, activated

    if args.resume and not args.run_dir:
        raise SystemExit("--resume requires --run-dir")
    placer = _make_placer(args.placer)
    # options only the fbp placer reads: refused elsewhere, not dropped
    given = {
        "relax_infeasible": args.relax_infeasible or None,
        "shard_tiles": args.shard_tiles,
    }
    for name, value in given.items():
        if value is None:
            continue
        if not hasattr(getattr(placer, "options", None), name):
            raise SystemExit(
                f"--{name.replace('_', '-')} is only supported by the fbp "
                f"placer, not {args.placer!r}"
            )
        setattr(placer.options, name, value)
    netlist, bounds = load_instance(args.dir, args.instance)
    if args.run_dir:
        if not hasattr(placer, "run_state"):
            raise SystemExit(
                f"--run-dir is only supported by the fbp placer, "
                f"not {args.placer!r}"
            )
        placer.run_state = DurableRunState(
            args.run_dir, resume=args.resume
        )
    with ExitStack() as stack:
        if args.pool_workers > 0:
            pool = stack.enter_context(
                WindowSolverPool(
                    args.pool_workers,
                    task_timeout=args.pool_task_timeout,
                )
            )
            stack.enter_context(activated(pool))
        result = placer.place(netlist, bounds)
    factor = getattr(placer, "relax_factor", 1.0)
    if factor > 1.0:
        print(
            f"warning: infeasible instance placed with capacities "
            f"relaxed {factor:.2f}x",
            file=sys.stderr,
        )
    save_instance(args.out or args.dir, netlist, bounds)
    print(
        f"{result.placer} on {result.instance}: HPWL={result.hpwl:.1f} "
        f"global={result.global_seconds:.1f}s legal={result.legal_seconds:.1f}s"
    )
    if result.legality is not None:
        print(f"legality: {result.legality.summary()}")
    return 0 if (result.legality and result.legality.is_legal) else 1


def cmd_check(args: argparse.Namespace) -> int:
    from repro.resilience.diagnose import (
        diagnose_infeasibility,
        relax_to_feasible,
    )

    netlist, bounds = load_instance(args.dir, args.instance)
    report = check_feasibility(netlist, bounds, density_target=args.density)
    print(
        f"feasible: {report.feasible} "
        f"(cell area {report.total_cell_area:.1f}, "
        f"routable {report.routed_area:.1f})"
    )
    if not report.feasible:
        diagnosis = diagnose_infeasibility(
            netlist, bounds, density_target=args.density, report=report
        )
        if diagnosis is not None:
            print(f"diagnosis: {diagnosis.summary()}")
        if args.relax_infeasible:
            factor, _relaxed_report = relax_to_feasible(
                netlist, bounds, density_target=args.density
            )
            print(
                f"feasible with capacities relaxed {factor:.2f}x "
                f"(density target {args.density * factor:.2f})"
            )
    legality = check_legality(netlist, bounds)
    print(f"current placement: {legality.summary()}")
    return 0 if report.feasible else 1


def cmd_score(args: argparse.Namespace) -> int:
    netlist, bounds = load_instance(args.dir, args.instance)
    hpwl = netlist.hpwl()
    dens = density_penalty(netlist, args.density)
    print(f"HPWL        : {hpwl:.1f}")
    print(f"density D   : {100 * dens:.2f}%")
    print(f"HPWL*(1+D)  : {hpwl * (1 + dens):.1f}")
    violations = bounds.violations(netlist) if len(bounds) else []
    print(f"movebound violations: {len(violations)}")
    return 0


def cmd_replace(args: argparse.Namespace) -> int:
    import json

    from repro.eco import EcoEngine, EcoOptions, PlacementDelta
    from repro.place import BonnPlaceFBP

    netlist, bounds = load_instance(args.dir, args.instance)
    if args.delta_file:
        with open(args.delta_file) as f:
            delta = PlacementDelta.from_dict(json.load(f))
    else:
        delta = PlacementDelta()
    engine = EcoEngine(
        netlist,
        bounds,
        placer=BonnPlaceFBP(),
        run_dir=args.run_dir,
        options=EcoOptions(
            verify_solve=args.eco_verify,
            max_hpwl_drift=args.max_hpwl_drift,
            allow_fallback=not args.no_fallback,
        ),
    )
    res = engine.apply(delta)
    save_instance(args.out or args.dir, netlist, engine.bounds)
    print(
        f"eco {res.mode}: txn {res.txn_seq} delta {res.delta_digest} "
        f"HPWL {res.hpwl_pre:.1f} -> {res.hpwl_post:.1f} "
        f"(frontier {res.frontier_windows} windows)"
    )
    if res.fallback_reason:
        print(
            f"degraded to full re-solve: {res.fallback_reason}",
            file=sys.stderr,
        )
    legality = check_legality(netlist, engine.bounds)
    print(f"legality: {legality.summary()}")
    return 0 if legality.is_legal else 1


def _service_client(args: argparse.Namespace):
    from repro.service import ServiceClient

    return ServiceClient(
        socket_path=args.socket, tcp_port=args.tcp
    )


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import AdmissionPolicy, ServiceDaemon

    policy = AdmissionPolicy(
        max_queue=args.max_queue,
        max_running=args.max_running,
        tenant_max_running=args.tenant_max_running,
        tenant_max_queued=args.tenant_max_queued,
        tenant_quota_seconds=args.tenant_quota,
        job_timeout=args.job_timeout,
        max_attempts=args.max_attempts,
        backoff_base=args.backoff_base,
        backoff_cap=args.backoff_cap,
        respawn_window=args.respawn_window,
        respawn_cap=args.respawn_cap,
    )
    daemon = ServiceDaemon(
        args.state_dir,
        policy=policy,
        socket_path=args.socket,
        tcp_port=args.tcp,
    )
    daemon.serve_forever()
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.service import JobSpec

    options = {}
    if args.relax_infeasible:
        options["relax_infeasible"] = True
    if args.no_legalize:
        options["legalize"] = False
    if args.density is not None:
        options["density"] = args.density
    if args.no_eco:
        options["eco"] = False
    if args.eco_verify:
        options["eco_verify"] = True
    patch = []
    if args.movebound_patch is not None:
        patch = json.loads(args.movebound_patch)
    spec = JobSpec(
        kind=args.kind,
        instance=args.instance,
        dir=os.path.abspath(args.dir),
        tenant=args.tenant,
        priority=args.priority,
        options=options,
        movebound_patch=patch,
    )
    job_id = _service_client(args).submit(spec)
    print(job_id)
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    import json

    job = _service_client(args).status(args.job_id)
    print(json.dumps(job, indent=1, sort_keys=True))
    return 0


def cmd_result(args: argparse.Namespace) -> int:
    import json

    reply = _service_client(args).result(
        args.job_id, wait=args.wait, timeout=args.timeout
    )
    if reply.get("pending"):
        print(f"job {args.job_id} is {reply['job']['state']}")
        return 1
    print(json.dumps(reply.get("result"), indent=1, sort_keys=True))
    return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    reply = _service_client(args).cancel(args.job_id)
    print(f"job {args.job_id}: {reply['state']}")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-place",
        description="Flow-based partitioning placement (DATE 2011 reproduction)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the span/counter report to stderr when done",
    )
    parser.add_argument(
        "--trace-json",
        metavar="PATH",
        default=None,
        help="write the trace + counters as JSON to PATH when done",
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="enable the runtime invariant checks "
        "(same as REPRO_CHECK_INVARIANTS=1)",
    )
    parser.add_argument(
        "--max-solver-iters",
        type=int,
        default=None,
        metavar="N",
        help="HiGHS simplex iteration budget per flow LP "
        "(same as REPRO_MAX_SOLVER_ITERS)",
    )
    parser.add_argument(
        "--solver-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-time budget per flow solve "
        "(same as REPRO_SOLVER_TIMEOUT)",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help="deterministic fault-injection plan, e.g. "
        "'solver.lp=budget;stage.legalize=stage@2' "
        "(same as REPRO_FAULT_PLAN)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a suite instance")
    g.add_argument("instance")
    g.add_argument("--out", default=".")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--suite", default="auto",
                   choices=["auto", "table2", "movebound", "ispd"])
    g.add_argument("--movebounds", action="store_true")
    g.add_argument("--exclusive", action="store_true")
    g.set_defaults(func=cmd_generate)

    p = sub.add_parser("place", help="place a Bookshelf instance")
    p.add_argument("instance")
    p.add_argument("--dir", default=".")
    p.add_argument("--out", default=None)
    p.add_argument("--placer", default="fbp", choices=tuple(PLACERS))
    p.add_argument(
        "--relax-infeasible",
        action="store_true",
        help="on an infeasible instance, relax capacities uniformly "
        "and place anyway instead of exiting with code 2",
    )
    p.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="durable run directory: every completed level's placement "
        "is checkpointed (atomic + fsynced) so a killed run can be "
        "resumed with --resume",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume a killed run from the last durable level in "
        "--run-dir; the result is bit-identical to an uninterrupted "
        "run (fresh start when the run directory is empty)",
    )
    p.add_argument(
        "--pool-workers",
        type=int,
        default=0,
        metavar="N",
        help="solve the independent per-window transportation and "
        "realization problems on N supervised worker processes "
        "(0 = serial; parallel and serial are bit-identical)",
    )
    p.add_argument(
        "--shard-tiles",
        type=int,
        default=None,
        metavar="N",
        help="shard each level's FBP flow solve into an N x N grid of "
        "window tiles solved independently (exact when no flow crosses "
        "tile cuts, reported approximation otherwise; default: "
        "monolithic solve)",
    )
    p.add_argument(
        "--pool-task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-window deadline of the worker pool; a worker past "
        "its deadline is killed and its window requeued "
        "(default derives from --solver-timeout)",
    )
    p.set_defaults(func=cmd_place)

    c = sub.add_parser("check", help="feasibility + legality audit")
    c.add_argument("instance")
    c.add_argument("--dir", default=".")
    c.add_argument("--density", type=float, default=0.97)
    c.add_argument(
        "--relax-infeasible",
        action="store_true",
        help="also report the smallest capacity relaxation that "
        "restores feasibility",
    )
    c.set_defaults(func=cmd_check)

    s = sub.add_parser("score", help="HPWL and density scoring")
    s.add_argument("instance")
    s.add_argument("--dir", default=".")
    s.add_argument("--density", type=float, default=0.97)
    s.set_defaults(func=cmd_score)

    rp = sub.add_parser(
        "replace",
        help="transactional incremental re-place "
        "(ECO deltas; docs/incremental.md)",
    )
    rp.add_argument("instance")
    rp.add_argument("--dir", default=".")
    rp.add_argument("--out", default=None)
    rp.add_argument(
        "--delta-file",
        default=None,
        metavar="JSON",
        help="the delta to apply: a JSON object with any of "
        '"movebounds", "assign", "unassign", "net_weights", '
        '"density_target" — or a bare movebound-patch list (the '
        "service replace wire format); omitted = committed no-op",
    )
    rp.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="durable delta journal (<DIR>/eco): the commit point is "
        "an atomic checksummed journal entry, so a SIGKILL at any "
        "instant recovers to the pre- or post-delta placement "
        "bit-identically; re-running the same delta replays its "
        "committed entry instead of re-solving",
    )
    rp.add_argument(
        "--eco-verify",
        action="store_true",
        help="force the obs invariant registry on during the "
        "incremental solve (containment/legality/HPWL-drift "
        "verification runs regardless)",
    )
    rp.add_argument(
        "--max-hpwl-drift",
        type=float,
        default=4.0,
        metavar="FACTOR",
        help="verification gate: post-delta HPWL above FACTOR x "
        "pre-delta HPWL degrades to the full re-solve",
    )
    rp.add_argument(
        "--no-fallback",
        action="store_true",
        help="fail (exit 4) instead of degrading to the full "
        "multilevel solve when the incremental result is rejected",
    )
    rp.set_defaults(func=cmd_replace)

    # ---- service mode (docs/service.md) ------------------------------
    sv = sub.add_parser(
        "serve", help="run the placement-service job daemon"
    )
    sv.add_argument(
        "--state-dir",
        required=True,
        metavar="DIR",
        help="durable service state: job table, per-job run dirs; a "
        "restarted daemon recovers every accepted job from here",
    )
    sv.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="Unix socket to listen on (default <state-dir>/service.sock)",
    )
    sv.add_argument(
        "--tcp",
        type=int,
        default=None,
        metavar="PORT",
        help="listen on localhost TCP instead of a Unix socket "
        "(0 = pick a free port, printed in the readiness line)",
    )
    sv.add_argument("--max-running", type=int, default=2, metavar="N",
                    help="concurrent running jobs (all tenants)")
    sv.add_argument("--max-queue", type=int, default=64, metavar="N",
                    help="bound of the global queue; beyond it jobs are "
                    "shed (lowest priority, oldest first) or refused "
                    "with ServiceOverloadError (exit 5)")
    sv.add_argument("--tenant-max-running", type=int, default=2, metavar="N")
    sv.add_argument("--tenant-max-queued", type=int, default=32, metavar="N")
    sv.add_argument(
        "--tenant-quota",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock quota per tenant; remaining quota also caps "
        "each job's solver budget (graceful lp→heur degradation)",
    )
    sv.add_argument("--job-timeout", type=float, default=300.0,
                    metavar="SECONDS",
                    help="per-attempt deadline; a child past it is "
                    "killed and the job retried with backoff")
    sv.add_argument("--max-attempts", type=int, default=3, metavar="N",
                    help="child attempts before the in-daemon fallback")
    sv.add_argument("--backoff-base", type=float, default=0.25,
                    metavar="SECONDS")
    sv.add_argument("--backoff-cap", type=float, default=5.0,
                    metavar="SECONDS")
    sv.add_argument("--respawn-window", type=float, default=10.0,
                    metavar="SECONDS")
    sv.add_argument("--respawn-cap", type=int, default=50, metavar="N",
                    help="max child spawns per respawn window "
                    "(crash-loop fork protection)")
    sv.set_defaults(func=cmd_serve)

    def _client_args(p):
        p.add_argument(
            "--socket",
            default=None,
            metavar="PATH",
            help="daemon Unix socket (or env REPRO_SERVICE_SOCKET)",
        )
        p.add_argument("--tcp", type=int, default=None, metavar="PORT",
                       help="daemon localhost TCP port")

    sb = sub.add_parser("submit", help="submit a job to the service")
    sb.add_argument("instance")
    sb.add_argument("--dir", default=".")
    sb.add_argument("--kind", default="place",
                    choices=["place", "check", "replace"])
    sb.add_argument("--tenant", default="default")
    sb.add_argument("--priority", type=int, default=0)
    sb.add_argument("--relax-infeasible", action="store_true")
    sb.add_argument("--no-legalize", action="store_true")
    sb.add_argument("--density", type=float, default=None)
    sb.add_argument(
        "--movebound-patch",
        default=None,
        metavar="JSON",
        help="replace jobs: JSON list of "
        '{"name", "rects": [[x_lo,y_lo,x_hi,y_hi],...], "cells": [...]}',
    )
    sb.add_argument(
        "--no-eco",
        action="store_true",
        help="replace jobs: bypass the transactional ECO engine and "
        "run a full re-place with the patch applied (legacy path)",
    )
    sb.add_argument(
        "--eco-verify",
        action="store_true",
        help="replace jobs: invariant checks on during the "
        "incremental solve",
    )
    _client_args(sb)
    sb.set_defaults(func=cmd_submit)

    st = sub.add_parser("status", help="one job's lifecycle state")
    st.add_argument("job_id")
    _client_args(st)
    st.set_defaults(func=cmd_status)

    r = sub.add_parser(
        "result",
        help="a job's result; exits with the job's mapped code on "
        "failure (overload/cancelled = 5)",
    )
    r.add_argument("job_id")
    r.add_argument("--wait", action="store_true",
                   help="block until the job is terminal")
    r.add_argument("--timeout", type=float, default=None, metavar="SECONDS")
    _client_args(r)
    r.set_defaults(func=cmd_result)

    cn = sub.add_parser("cancel", help="cancel a queued or running job")
    cn.add_argument("job_id")
    _client_args(cn)
    cn.set_defaults(func=cmd_cancel)

    args = parser.parse_args(argv)
    if args.check_invariants:
        set_invariants_enabled(True)
    if args.max_solver_iters is not None or args.solver_timeout is not None:
        set_default_budget(
            SolverBudget(
                max_iters=args.max_solver_iters,
                max_seconds=args.solver_timeout,
            )
        )
    if args.fault_plan is not None:
        install_fault_plan(args.fault_plan)
    try:
        rc = args.func(args)
    except ReproError as exc:
        # structured failure: one diagnostic line + the mapped exit
        # code (2 infeasible / 3 budget / 4 internal / 5 service), no
        # traceback
        print(f"error: {exc.diagnosis()}", file=sys.stderr)
        rc = exc.exit_code
    finally:
        if args.trace:
            print(get_tracer().report_ascii(), file=sys.stderr)
        if args.trace_json:
            write_stats_json(args.trace_json)
            print(f"trace written to {args.trace_json}", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
