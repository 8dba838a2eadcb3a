"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload compile_paper --seed 1 \\
        --seconds 25 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``.
``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload untraced and then traced, and reports the
per-layer metrics of the traced run plus the tracing overhead; the spans
go to ``.perfbench/trace-<workload>-seed<seed>.jsonl``.  Human-readable
report lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every answer was correct.  See README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compile_paper", "campaign_faults", "serve_mixed")
#: set-up runs per untraced run; ``setup_s`` reports their median
SETUP_REPEATS = 3
#: top-level spans must cover at least this share of the timed window
MIN_COVERAGE = 0.9

#: name -> unit of every end-to-end metric (``--trace 0``)
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}
#: span names whose self time is reported as a share of the traced wall
SHARES = (
    "frontend.build_dag", "workloads.check", "core.compile",
    "core.pass.fold-duplicates", "core.pass.cse", "core.pass.mra-substitute",
    "core.pass.nand-lower", "core.pass.arity-clamp", "core.pass.validate",
    "mapping.map", "core.ladder", "core.execute", "sim.metrics.analyze",
    "sim.vectorized.lower", "sim.vectorized.run",
    "sim.vectorized.campaign_trials", "sim.executor.run", "dfg.evaluate",
    "reliability.campaign", "serve.worker", "serve.cache.get",
    "serve.cache.put", "serve.queue_wait",
)
#: name -> unit of every per-layer count (``--trace 1``)
COUNTS = {
    "core.compiles": "count",
    "core.ladder_rungs": "count",
    "core.ir_ops": "count",
    "mapping.reads": "count",
    "mapping.writes": "count",
    "mapping.shifts": "count",
    "sim.instructions": "count",
    "sim.latency_cycles": "cycles",
    "sim.energy_pj": "pJ",
    "sim.p_app": "probability",
    "reliability.trials": "count",
    "reliability.decision_failures": "count",
    "reliability.output_failures": "count",
    "reliability.recovery_events": "count",
    "serve.cache.hit_ratio": "ratio",
    "serve.votes": "count",
    "serve.vote_disagreements": "count",
    "serve.remaps": "count",
    "serve.retries": "count",
    "serve.cpu_served": "count",
    "serve.shed": "count",
    "serve.queue_high_water": "count",
    "serve.scrub_faults": "count",
    "serve.hard_faults": "count",
    "serve.quarantines": "count",
    "trace.spans": "count",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}
#: per-layer metrics that must repeat exactly for the same seed
DETERMINISTIC = (
    "core.ladder_rungs", "core.ir_ops", "mapping.reads", "mapping.writes",
    "mapping.shifts", "sim.instructions", "sim.latency_cycles",
    "sim.energy_pj", "sim.p_app", "reliability.trials",
    "reliability.decision_failures", "reliability.output_failures",
    "reliability.recovery_events", "serve.scrub_faults",
)


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric (``--trace 1``)."""
    units = {f"{name}_share": "ratio" for name in SHARES}
    units.update(COUNTS)
    return units


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test size of each workload")
    return parser.parse_args(argv)


def _ops_per_s(out) -> float:
    return (out.attempted - out.failed) / out.wall_s if out.wall_s else 0.0


def _untraced(module, args, scratch):
    from common import now

    module.warm()
    once_s = now() - _T0
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            module.close(state)
        t0 = now()
        state = module.setup(args.seed, args.scale, scratch, args.seconds)
        setups.append(now() - t0)
    try:
        out = module.run(state, args.seconds)
        module.finish(state, out)
    finally:
        module.close(state)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": once_s + statistics.median(setups),
               "peak_rss_mb": rss, "ops_per_s": _ops_per_s(out),
               "latency_p50_ms": out.latency_ms(50),
               "latency_p99_ms": out.latency_ms(99)}
    return metrics, [out]


def _queue_wait_s(tracer) -> float:
    """Client-side request time not spent inside the service's worker."""
    worker = {s.request: s.end - s.start for s in tracer.spans
              if s.name == "serve.worker"}
    return sum(s.end - s.start - worker.get(s.request, 0.0)
               for s in tracer.spans if s.name == "serve.request")


def _traced(module, args, scratch):
    from common import install, now
    from tracer import Tracer

    module.warm()
    state = module.setup(args.seed, args.scale, scratch, args.seconds)
    try:
        base = module.run(state, args.seconds)
        module.finish(state, base)
    finally:
        module.close(state)
    tracer = Tracer()
    install(tracer)
    start = now()
    try:
        state = module.setup(args.seed, args.scale, scratch, args.seconds,
                             tracer)
        out = module.run(state, args.seconds, tracer)
    finally:
        tracer.uninstall()
    try:
        module.finish(state, out)
    finally:
        module.close(state)
    wall = out.end - start
    self_s = tracer.self_time()
    self_s["serve.queue_wait"] = _queue_wait_s(tracer)
    metrics = {f"{name}_share": self_s.get(name, 0.0) / wall
               for name in SHARES}
    traced_rate = _ops_per_s(out)
    metrics.update({name: float(out.counts.get(name, 0)) for name in COUNTS})
    metrics.update({
        "core.compiles": float(sum(1 for s in tracer.spans
                                   if s.name == "core.compile")),
        "trace.spans": float(len(tracer.spans)),
        "trace.coverage": tracer.coverage(out.start, out.end),
        "trace.overhead_ratio": (_ops_per_s(base) / traced_rate
                                 if traced_rate else 0.0),
    })
    trace_path = (ROOT / ".perfbench"
                  / f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_jsonl(trace_path)
    print(f"trace: {len(tracer.spans)} spans -> "
          f"{trace_path.relative_to(ROOT)}")
    calls = tracer.calls()
    for name in sorted(self_s, key=self_s.get, reverse=True):
        print(f"trace: {name:34s} self {self_s[name]:9.4f} s "
              f"in {calls.get(name, 0)} calls")
    if metrics["trace.coverage"] < MIN_COVERAGE:
        print(f"trace: top-level spans cover only "
              f"{metrics['trace.coverage']:.1%} of the timed window "
              f"(want >= {MIN_COVERAGE:.0%})")
    return metrics, [base, out]


def _print_report(args, metrics, units, outs) -> None:
    from common import percentile, weight_above

    last = outs[-1]
    attempted = sum(out.attempted for out in outs)
    failed = sum(out.failed for out in outs)
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    for name, (value, unit) in last.report.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    samples = last.samples
    if samples:
        beyond = sum(weight_above(group, percentile(group, 99))
                     for group in last.rounds if group)
        print(f"  latency samples {sum(w for _, w in samples):g} in "
              f"{len(last.rounds)} round(s), {beyond:g} beyond each "
              f"round's p99")
    rate = failed / attempted if attempted else 0.0
    print(f"  error_rate {rate:.6g} ratio ({failed} failed of {attempted} "
          f"attempted)")
    for out in outs:
        for error in out.errors:
            print(f"  ERROR {error}")


def main(argv=None) -> int:
    """Run the workload; print the report and the JSON result line."""
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    module = importlib.import_module(args.workload)
    scratch = ROOT / ".perfbench" / f"tmp-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, outs = _traced(module, args, scratch)
            units = per_layer_units()
        else:
            metrics, outs = _untraced(module, args, scratch)
            units = END_TO_END
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted = sum(out.attempted for out in outs)
    failed = sum(out.failed for out in outs)
    correct = failed == 0 and not any(out.errors for out in outs)
    _print_report(args, metrics, units, outs)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
