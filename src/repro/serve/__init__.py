"""Resilient compile-and-serve runtime for CIM programs (:mod:`repro.serve`).

The TDO-CIM line of work compiles offload candidates ahead of time and
decides at run time whether a request executes on the CIM fabric or falls
back to the CPU.  This package is that runtime for the Sherlock compiler:

* :mod:`repro.serve.cache` — the artifact cache (:mod:`repro.core.cache`):
  compiled programs in memory and on disk, keyed by DAG structure, target,
  configuration and fault-map content, tolerant of corrupted entries;
* :mod:`repro.serve.breaker` — a circuit breaker that trips the service
  to the CPU baseline after consecutive CIM failures and probes half-open;
* :mod:`repro.serve.health` — the per-array health registry: EWMA /
  rolling-window failure-rate estimation against the technology baseline,
  the HEALTHY/DEGRADED/QUARANTINED state machine with probation recovery,
  and the fault-density bridge to multi-array exclusions;
* :mod:`repro.serve.scrub` — the patrol scrubber: deterministic budgeted
  march-test sweeps that find *latent* faults (the ones input preloads
  hit silently) before live traffic does;
* :mod:`repro.serve.service` — the job queue + compile-worker pool with
  admission control (pluggable shed policies), per-job deadlines,
  retries, the remap rung run inside the service loop, health-aware
  placement, voted redundant execution, and the health registry's
  adaptive responses;
* :mod:`repro.serve.server` — request parsing, the batch request-file
  runner, and the line-delimited-JSON TCP server behind ``sherlock serve``.
"""

from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.cache import ARTIFACT_SCHEMA, ArtifactCache
from repro.serve.health import (
    ArrayHealth,
    HealthPolicy,
    HealthRegistry,
    assess_fault_map,
    subarray_exclusions,
    subarray_penalties,
)
from repro.serve.scrub import PatrolScrubber, ScrubPolicy, ScrubReport
from repro.serve.server import (
    handle_request_file,
    parse_request,
    result_to_dict,
    serve_tcp,
)
from repro.serve.service import (
    VALID_PLACEMENTS,
    VALID_SHED_POLICIES,
    CompileService,
    ServeRequest,
    ServeResult,
    ServiceStats,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArrayHealth",
    "ArtifactCache",
    "BreakerState",
    "CircuitBreaker",
    "CompileService",
    "HealthPolicy",
    "HealthRegistry",
    "PatrolScrubber",
    "ScrubPolicy",
    "ScrubReport",
    "ServeRequest",
    "ServeResult",
    "ServiceStats",
    "VALID_PLACEMENTS",
    "VALID_SHED_POLICIES",
    "assess_fault_map",
    "handle_request_file",
    "parse_request",
    "result_to_dict",
    "serve_tcp",
    "subarray_exclusions",
    "subarray_penalties",
]
