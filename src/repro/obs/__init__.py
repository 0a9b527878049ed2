"""Unified observability for the FBP pipeline.

Three pieces, all zero-dependency:

* :mod:`repro.obs.tracer` — nested spans (wall + CPU time, aggregated
  by path) and monotonic counters, with a process-wide default tracer;
* :mod:`repro.obs.invariants` — an opt-in registry of pipeline
  invariant checks (flow conservation, capacity condition (1),
  movebound containment) gated by ``REPRO_CHECK_INVARIANTS``;
* :mod:`repro.obs.report` — the canonical JSON stats payload shared by
  the CLI (``--trace-json``) and the benchmark harness.

See docs/observability.md for the span naming convention and schemas.
"""

from repro.obs.invariants import (
    ENV_VAR,
    InvariantViolation,
    check_flow_conservation,
    check_hpwl_threaded,
    check_movebound_containment,
    check_region_capacity,
    checking,
    invariants_enabled,
    maybe_check,
    registered_checks,
    run_check,
    set_invariants_enabled,
)
from repro.obs.report import STATS_SCHEMA, stats_payload, write_stats_json
from repro.obs.tracer import (
    TRACE_SCHEMA,
    SpanNode,
    Tracer,
    get_tracer,
    incr,
    reset_tracer,
    set_tracer,
    span,
)

__all__ = [
    # tracer
    "TRACE_SCHEMA",
    "SpanNode",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "reset_tracer",
    "span",
    "incr",
    # invariants
    "ENV_VAR",
    "InvariantViolation",
    "invariants_enabled",
    "set_invariants_enabled",
    "checking",
    "maybe_check",
    "run_check",
    "registered_checks",
    "check_flow_conservation",
    "check_region_capacity",
    "check_movebound_containment",
    "check_hpwl_threaded",
    # reporting
    "STATS_SCHEMA",
    "stats_payload",
    "write_stats_json",
]
