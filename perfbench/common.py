"""Shared pieces of the benchmark: run outcome, statistics, program profile,
and the list of program entry points the traced run wraps."""

from __future__ import annotations

import math
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from tracer import Tracer


@dataclass
class Outcome:
    """What one timed run of a workload produced."""

    #: (seconds, weight) per op, one list per round; a weight is the number
    #: of ops a sample stands for
    rounds: list[list[tuple[float, float]]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: monotonic start and end of the timed window
    start: float = 0.0
    end: float = 0.0
    #: workload-specific report lines: name -> (value, unit)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: per-layer counts: name -> value
    counts: dict[str, float] = field(default_factory=dict)
    #: problems that make the run incorrect beyond failed ops
    errors: list[str] = field(default_factory=list)

    @property
    def samples(self) -> list[tuple[float, float]]:
        """Every round's samples in one list."""
        return [sample for group in self.rounds for sample in group]

    def latency_ms(self, q: float) -> float:
        """Median over rounds of each round's percentile ``q``, in ms."""
        values = [percentile(group, q) for group in self.rounds if group]
        return statistics.median(values) * 1e3 if values else 0.0

    @property
    def wall_s(self) -> float:
        """Length of the timed window."""
        return self.end - self.start

    def fail(self, what: str, count: int = 1) -> None:
        """Count ``count`` failed ops; keep the first few descriptions."""
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(what)


def now() -> float:
    """The benchmark's clock."""
    return time.perf_counter()


def spanner(tracer: Tracer | None):
    """``tracer.span`` for a traced run, a no-op context otherwise."""
    if tracer is None:
        return lambda name, request=None: nullcontext()
    return tracer.span


def percentile(samples: list[tuple[float, float]], q: float) -> float:
    """Weighted nearest-rank percentile ``q`` (0-100) of ``(value, weight)``."""
    ordered = sorted(samples)
    target = q / 100.0 * sum(weight for _, weight in ordered)
    acc = 0.0
    for value, weight in ordered:
        acc += weight
        if acc >= target:
            return value
    return ordered[-1][0]


def weight_above(samples: list[tuple[float, float]], value: float) -> float:
    """Total weight of samples strictly above ``value``."""
    return sum(weight for v, weight in samples if v > value)


def geomean(values) -> float:
    """Geometric mean of the positive values (0.0 when there are none)."""
    logs = [math.log(v) for v in values if v > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def program_profile(program) -> dict[str, float]:
    """The deterministic facts of one compiled program.

    These must repeat exactly for the same kernel and configuration: the
    paper's modelled cost (latency, energy, ``P_app``), code size, IR size
    after the pipeline, the mapper's data movement and the ladder rungs.
    """
    metrics = program.metrics
    return {
        "instructions": len(program.instructions),
        "latency_cycles": metrics.total_latency_cycles,
        "energy_pj": metrics.total_energy_pj,
        "p_app": metrics.p_app,
        "ir_ops": program.pass_events[-1].after.ops,
        "reads": metrics.plain_reads + metrics.cim_reads,
        "writes": metrics.writes,
        "shifts": metrics.shifts,
        "ladder_rungs": len(program.ladder),
    }


def profile_counts(profiles: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer counts summarizing a workload's program profiles."""
    def total(key: str) -> float:
        return sum(p[key] for p in profiles)

    return {
        "core.ir_ops": total("ir_ops"),
        "core.ladder_rungs": total("ladder_rungs"),
        "mapping.reads": total("reads"),
        "mapping.writes": total("writes"),
        "mapping.shifts": total("shifts"),
        "sim.instructions": total("instructions"),
        "sim.latency_cycles": geomean(p["latency_cycles"] for p in profiles),
        "sim.energy_pj": geomean(p["energy_pj"] for p in profiles),
        "sim.p_app": geomean(p["p_app"] for p in profiles),
    }


def profile_report(profiles: list[dict[str, float]],
                   program) -> dict[str, tuple[float, str]]:
    """The ``sim_*`` report lines: modelled cost over a program set.

    ``program`` is any compiled program of the set; it supplies the
    target's clock to turn cycles into microseconds (every program of a
    set runs at the same clock).
    """
    cycle_us = program.target.cycle_ns * 1e-3
    return {
        "sim_latency_us": (geomean(p["latency_cycles"] * cycle_us
                                   for p in profiles), "us"),
        "sim_energy_uj": (geomean(p["energy_pj"] * 1e-6 for p in profiles),
                          "uJ"),
        "sim_instructions": (sum(p["instructions"] for p in profiles),
                             "count"),
        "sim_p_app": (geomean(p["p_app"] for p in profiles), "probability"),
    }


def install(tracer: Tracer) -> None:
    """Wrap the program's layer entry points so they record spans.

    Functions are patched on every module that looks them up by name at
    call time (``evaluate`` is imported by name into several modules), so
    the wrapper sits where the caller finds it.
    """
    from repro.core import compiler
    from repro.reliability import campaign, recovery
    from repro.serve import service
    from repro.serve.cache import ArtifactCache
    from repro.sim import vectorized
    from repro.sim.executor import ArrayMachine

    tracer.wrap(compiler.SherlockCompiler, "compile", "core.compile",
                after=lambda span, program: tracer.add_events(
                    span, program.pass_events))
    tracer.wrap(compiler.CompiledProgram, "execute", "core.execute")
    tracer.wrap(compiler.CompiledProgram, "execute_many", "core.execute")
    tracer.wrap_cached_property(compiler.CompiledProgram, "metrics",
                                "sim.metrics.analyze")
    tracer.wrap_cached_property(compiler.CompiledProgram, "overlap",
                                "sim.metrics.analyze")
    tracer.wrap(vectorized, "vector_program", "sim.vectorized.lower")
    tracer.wrap(vectorized.VectorProgram, "run_packed", "sim.vectorized.run")
    tracer.wrap(vectorized, "campaign_trials",
                "sim.vectorized.campaign_trials")
    tracer.wrap(ArrayMachine, "run", "sim.executor.run")
    for module in (sys.modules["repro.dfg.evaluate"], sys.modules["repro.dfg"],
                   compiler, campaign, recovery, service):
        tracer.wrap(module, "evaluate", "dfg.evaluate")
    tracer.wrap(service, "evaluate_many", "dfg.evaluate")
    tracer.wrap(ArtifactCache, "get", "serve.cache.get")
    tracer.wrap(ArtifactCache, "put", "serve.cache.put")
    tracer.wrap(service.CompileService, "_process", "serve.worker",
                request_of=lambda _service, job: job.request.request_id)
