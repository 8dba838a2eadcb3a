"""Command-line interface: ``sherlock compile|run|sweep|campaign|serve|workloads``.

Examples::

    sherlock serve --requests requests.jsonl --cache-dir .sherlock-cache --stats
    sherlock serve --port 7453 --workers 4 --queue-limit 32

    sherlock compile kernel.c --tech reram --size 512 --mapper sherlock
    sherlock compile kernel.c --schedule multi --arrays 4 --report
    sherlock run --workload bitweaving --tech stt-mram --size 1024
    sherlock sweep --workload bitweaving --tech reram --size 512
    sherlock campaign --synthetic 40 --trials 500 --variability 0.35
    sherlock campaign --workload bitweaving --trials 1000 --workers 4
    sherlock run --workload bitweaving --fault-map faults.json
    sherlock wear --workload bitweaving --tech pcm
    sherlock lifetime --synthetic 30 --trials 20 --endurance 100
    sherlock workloads
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import time

from repro.arch.target import TargetSpec
from repro.core.compiler import SherlockCompiler
from repro.core.config import CompilerConfig
from repro.core.passes import get_pass
from repro.core.report import (
    CompileReport,
    MultiArrayReport,
    PassReport,
    ProgramReport,
    RecoveryReport,
    format_table,
    render_reports,
)
from repro.devices import FaultMap, get_technology
from repro.errors import CapacityError, SherlockError
from repro.frontend import c_to_dfg
from repro.reliability import POLICIES, mra_sweep, run_campaign
from repro.sim.vectorized import validate_engine
from repro.workloads import WORKLOADS, get_workload


def _positive_int(text: str) -> int:
    """Argparse type for integer options that must be >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer (>= 1), got {value}")
    return value


def _positive_float(text: str) -> float:
    """Argparse type for float options that must be > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number of seconds (> 0), got {value}")
    return value


def _engine_arg(text: str) -> str:
    """Argparse type for ``--engine``: reject unknown names with exit 2."""
    try:
        return validate_engine(text)
    except SherlockError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _add_target_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tech", default="reram",
                        help="technology: reram | stt-mram | pcm")
    parser.add_argument("--size", type=int, default=512,
                        help="square array dimension (rows = cols)")
    parser.add_argument("--arrays", type=int, default=16,
                        help="number of arrays in the target")
    parser.add_argument("--mra", type=int, default=2,
                        help="rows in multi-row activation (2 = binary DAG)")
    parser.add_argument("--mapper", default="sherlock",
                        choices=("sherlock", "naive"))
    parser.add_argument("--schedule", default="single",
                        choices=("single", "multi"),
                        help="execution model: single (one logical array, "
                             "spill for capacity) or multi (co-schedule "
                             "the DAG across --arrays concurrent arrays)")
    parser.add_argument("--fallback", default="ladder",
                        choices=("ladder", "strict"),
                        help="on capacity failure: walk the graceful-"
                             "degradation ladder (recycle, partition) or "
                             "fail fast (strict)")
    parser.add_argument("--recycle", default="auto",
                        choices=("auto", "always", "never"),
                        help="liveness-based cell recycling: auto (only "
                             "under pressure), always, or never")


def _add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pipeline", default=None,
                        help="comma-separated pass list overriding the "
                             "default pipeline (must end in a map-* pass)")
    parser.add_argument("--print-passes", action="store_true",
                        help="print the resolved pass pipeline before "
                             "compiling")
    parser.add_argument("--timings", action="store_true",
                        help="print the per-pass timing/IR-delta table")
    parser.add_argument("--dump-ir", metavar="DIR", default=None,
                        help="write one DOT+JSON IR snapshot per pass "
                             "into DIR")


def _add_fault_map_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fault-map", metavar="FILE", default=None,
                        help="JSON hard-fault map (sherlock exits 1 on a "
                             "malformed map); the program is compiled "
                             "around its faults and executed on a machine "
                             "that honors them")


def _fault_map_of(args: argparse.Namespace) -> FaultMap | None:
    """Load and validate ``--fault-map`` (DeviceError on a malformed file)."""
    path = getattr(args, "fault_map", None)
    if path is None:
        return None
    fault_map = FaultMap.load(path)
    print(f"loaded fault map: {fault_map!r}", file=sys.stderr)
    return fault_map


def _target_of(args: argparse.Namespace) -> TargetSpec:
    return TargetSpec.square(
        args.size, get_technology(args.tech), num_arrays=args.arrays,
        max_activated_rows=max(2, args.mra))


def _config_of(args: argparse.Namespace) -> CompilerConfig:
    return CompilerConfig(mapper=args.mapper, mra=max(2, args.mra),
                          pipeline=getattr(args, "pipeline", None),
                          schedule=getattr(args, "schedule", "single"),
                          fallback=getattr(args, "fallback", "ladder"),
                          recycle=getattr(args, "recycle", "auto"))


def _compiler_of(args: argparse.Namespace) -> SherlockCompiler:
    config = _config_of(args)
    compiler = SherlockCompiler(_target_of(args), config,
                                dump_ir_dir=getattr(args, "dump_ir", None),
                                fault_map=_fault_map_of(args))
    if getattr(args, "print_passes", False):
        rows = [[i, name, "terminal" if get_pass(name).terminal else "",
                 get_pass(name).description]
                for i, name in enumerate(config.effective_pipeline(), 1)]
        print(format_table(["#", "pass", "kind", "description"], rows),
              file=sys.stderr)
    return compiler


def _report_passes(args: argparse.Namespace, program) -> None:
    if getattr(args, "timings", False):
        print(PassReport.from_program(program).render(), file=sys.stderr)
    if program.degradation != "none":
        print(f"warning: capacity exhausted; compiled via degradation "
              f"rung {program.degradation!r}", file=sys.stderr)
        print(CompileReport.from_program(program).render(), file=sys.stderr)


def _cmd_compile(args: argparse.Namespace) -> int:
    with open(args.source) as handle:
        dag = c_to_dfg(handle.read(), args.function)
    program = _compiler_of(args).compile(dag)
    _report_passes(args, program)
    if args.report:
        print(MultiArrayReport.from_program(program).render())
    if args.emit:
        print(program.text())
    if args.output:
        from repro.core.serialize import save_program

        save_program(program, args.output)
        print(f"saved compiled program to {args.output}", file=sys.stderr)
    report = ProgramReport.from_program(program)
    print(render_reports([report]), file=sys.stderr)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    """Reload a saved program, report it, optionally re-verify it."""
    from repro.core.serialize import load_program
    import random as _random

    program = load_program(args.program)
    print(render_reports([ProgramReport.from_program(program)]))
    if args.verify:
        rng = _random.Random(args.seed)
        inputs = {o.name: rng.getrandbits(args.lanes)
                  for o in program.source_dag.inputs()}
        program.verify(inputs, args.lanes)
        print(f"functional re-verification passed on {args.lanes} lanes")
    return 0


def _batch_input_sets(path: str, workload, lanes: int,
                      rng: random.Random) -> list[dict[str, int]]:
    """Load ``--batch FILE``: a JSON list of input objects.

    Each entry overrides a fresh ``workload.make_inputs`` draw, so ``{}``
    is a valid set (fully random but structurally well-formed for the
    workload) and explicit keys pin individual operands.
    """
    try:
        raw = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise SherlockError(f"cannot read batch file {path!r}: {error}"
                            ) from None
    if not isinstance(raw, list) or not raw:
        raise SherlockError(
            f"batch file {path!r} must hold a non-empty JSON list of "
            "input objects")
    sets = []
    for index, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise SherlockError(
                f"batch entry {index} must be a JSON object, "
                f"got {type(entry).__name__}")
        for name, value in entry.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise SherlockError(
                    f"batch entry {index} input {name!r} must be an "
                    f"integer lane bitmask, got {value!r}")
        inputs = workload.make_inputs(rng, lanes)
        inputs.update(entry)
        sets.append(inputs)
    return sets


def _cmd_run(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    program = _compiler_of(args).compile(workload.build_dag())
    _report_passes(args, program)
    rng = random.Random(args.seed)
    lanes = args.lanes
    if args.batch is not None:
        from repro.dfg.evaluate import evaluate

        sets = _batch_input_sets(args.batch, workload, lanes, rng)
        t0 = time.perf_counter()
        outputs = program.execute_many(sets, lanes, engine=args.engine)
        elapsed = time.perf_counter() - t0
        for index, (inputs, out) in enumerate(zip(sets, outputs)):
            if out != evaluate(program.source_dag, inputs, lanes):
                raise SherlockError(
                    f"batch entry {index} mismatches the reference "
                    "evaluation")
        rate = len(sets) / elapsed if elapsed > 0 else float("inf")
        print(f"functional check passed on {len(sets)} input sets "
              f"x {lanes} lanes ({rate:.0f} sets/s, engine={args.engine})")
        print(render_reports(
            [ProgramReport.from_program(program, workload.name)]))
        return 0
    inputs = workload.make_inputs(rng, lanes)
    outputs = program.execute(inputs, lanes, engine=args.engine)
    workload.check(inputs, outputs, lanes)
    print(f"functional check passed on {lanes} lanes")
    print(render_reports([ProgramReport.from_program(program, workload.name)]))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    target = _target_of(args).with_(max_activated_rows=max(4, args.mra))
    points = mra_sweep(workload.build_dag(), target, args.mapper)
    rows = [[p.allowed_fraction, f"{p.achieved_fraction:.1%}", p.latency_us,
             p.energy_uj, p.p_app, p.instructions] for p in points]
    print(format_table(
        ["allowed", "achieved", "latency_us", "energy_uJ", "P_app", "insts"],
        rows))
    return 0


def _dag_of(args: argparse.Namespace):
    """The campaign DAG: a registered workload or a seeded synthetic graph."""
    if getattr(args, "synthetic", None) is not None:
        from repro.workloads.synthetic import synthetic_dag

        return synthetic_dag(num_ops=args.synthetic, num_inputs=8,
                             seed=args.seed,
                             name=f"synthetic{args.synthetic}")
    return get_workload(args.workload).build_dag()


def _cmd_campaign(args: argparse.Namespace) -> int:
    policies = args.policy or sorted(POLICIES)
    for name in policies:  # validate before spending compile/campaign time
        if name not in POLICIES:
            raise SherlockError(
                f"unknown recovery policy {name!r}; valid policies: "
                f"{', '.join(sorted(POLICIES))}")
    if args.checkpoint is not None and len(policies) != 1:
        raise SherlockError(
            "--checkpoint journals one run; pick exactly one --policy "
            f"(got {len(policies)}: {', '.join(policies)})")
    target = _target_of(args)
    if args.variability is not None:
        tech = target.technology.with_variability(args.variability,
                                                  args.variability)
        target = target.with_(technology=tech)
    dag = _dag_of(args)
    config = _config_of(args)
    program = SherlockCompiler(target, config,
                               fault_map=_fault_map_of(args)).compile(dag)
    results = [run_campaign(program, trials=args.trials, seed=args.seed,
                            policy=name, lanes=args.lanes,
                            workers=args.workers, engine=args.engine,
                            checkpoint=args.checkpoint)
               for name in policies]
    print(RecoveryReport.from_results(results).render())
    return 0


def _cmd_wear(args: argparse.Namespace) -> int:
    """Static write-traffic report plus lifetime bounds per technology."""
    from repro.devices import TECHNOLOGIES
    from repro.sim import static_write_counts, wear_by_array, wear_from_counts

    program = _compiler_of(args).compile(_dag_of(args))
    _report_passes(args, program)
    counts = static_write_counts(program.instructions)
    report = wear_from_counts(counts)
    print(f"program: {program.dag.name} "
          f"({len(program.instructions)} instructions)")
    print(format_table(
        ["total writes", "cells written", "max/cell", "mean/cell",
         "hottest cell"],
        [[report.total_cell_writes, report.cells_written,
          report.max_writes_per_cell,
          f"{report.mean_writes_per_cell:.2f}",
          str(report.hottest_cell)]]))
    per_array = wear_by_array(counts)
    if len(per_array) > 1:
        print(format_table(
            ["array", "writes", "cells", "max/cell", "hottest cell"],
            [[array, r.total_cell_writes, r.cells_written,
              r.max_writes_per_cell, str(r.hottest_cell)]
             for array, r in per_array.items()]))
    rows = []
    for name, tech in sorted(TECHNOLOGIES.items()):
        life = report.lifetime_executions(tech)
        rows.append([name, f"{tech.endurance_cycles:.0e}",
                     "inf" if life == float("inf") else f"{life:.3e}"])
    print(format_table(
        ["technology", "endurance (cycles)", "executions to wear-out"],
        rows))
    return 0


def _cmd_lifetime(args: argparse.Namespace) -> int:
    """Seeded wear-out campaign: baseline vs wear-leveling + remap."""
    from repro.reliability import run_lifetime

    result = run_lifetime(
        _dag_of(args), _target_of(args), _config_of(args),
        trials=args.trials, seed=args.seed, endurance=args.endurance,
        endurance_spread=args.spread,
        wear_leveling=not args.no_wear_leveling,
        rotation_stride=args.stride, horizon=args.horizon,
        fault_map=_fault_map_of(args), validate=args.validate,
        lanes=args.lanes, checkpoint=args.checkpoint)
    summary = result.summary()
    print(f"lifetime campaign: {result.program_name} on "
          f"{result.technology.lower()} "
          f"(endurance {result.endurance:g} +/- {result.endurance_spread:.0%}"
          f", {result.trials} trials, seed {result.seed})")
    rows = [
        ["baseline (no mitigation)",
         f"{summary['baseline_mean_death']:.1f}",
         f"{summary['baseline_dead_frac']:.0%}",
         f"[{summary['baseline_dead_ci95_lo']:.2f}, "
         f"{summary['baseline_dead_ci95_hi']:.2f}]"],
        ["wear-leveling + remap" if result.wear_leveling else "remap only",
         f"{summary['mitigated_mean_death']:.1f}",
         f"{summary['mitigated_dead_frac']:.0%}",
         f"[{summary['mitigated_dead_ci95_lo']:.2f}, "
         f"{summary['mitigated_dead_ci95_hi']:.2f}]"],
    ]
    print(format_table(
        ["configuration", "mean executions to death", "dead",
         "dead 95% CI"], rows))
    first = result.mean_first_remap
    print(f"mean executions to first remap: "
          f"{'-' if first is None else f'{first:.1f}'}")
    print(f"mean recompiles per trial: {summary['mean_recompiles']:.1f}")
    print(f"lifetime extension factor: {summary['extension_factor']:.2f}x")
    if args.validate:
        print(f"functional validations after recompile: "
              f"{result.validation_failures} failure(s)")
        if result.validation_failures:
            return 1
    return 0


def _cmd_workloads(_args: argparse.Namespace) -> int:
    rows = [[w.name, w.description] for w in WORKLOADS.values()]
    print(format_table(["name", "description"], rows))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the compile-and-serve runtime in batch or socket mode."""
    from repro.serve import (
        ArtifactCache,
        CompileService,
        ScrubPolicy,
        handle_request_file,
        result_to_dict,
        serve_tcp,
    )

    if (args.requests is None) == (args.port is None):
        raise SherlockError(
            "serve needs exactly one of --requests FILE (batch mode) or "
            "--port N (socket mode)")
    cache = (ArtifactCache(args.cache_dir)
             if args.cache_dir is not None else None)
    fault_map = _fault_map_of(args)
    fault_maps = {0: fault_map} if fault_map is not None else None
    # the loaded map doubles as the machine's ground truth so patrol
    # scrubbing has real cells to march (known == ground: no latents
    # until the hardware drifts, but the cadence counters stay live)
    machine_faults = ({0: fault_map.copy()} if fault_map is not None
                      else None)
    scrub = (ScrubPolicy(budget=args.scrub_budget,
                         every_requests=args.scrub_every)
             if args.scrub_every else None)
    service = CompileService(
        _target_of(args), _config_of(args), cache=cache,
        workers=args.workers, queue_limit=args.queue_limit,
        deadline_s=args.deadline, fault_maps=fault_maps,
        machine_faults=machine_faults,
        shed_policy=args.shed_policy, placement=args.placement,
        scrub=scrub)
    failures = 0
    with service:
        if args.requests is not None:
            results = handle_request_file(service, args.requests,
                                          default_lanes=args.lanes)
            for result in results:
                print(json.dumps(result_to_dict(result)))
                if result.error is not None:
                    failures += 1
        else:
            server = serve_tcp(service, args.host, args.port)
            host, port = server.server_address[:2]
            print(f"serving on {host}:{port}", file=sys.stderr)
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                pass
            finally:
                server.shutdown()
                server.server_close()
        if args.stats:
            print(service.stats_text(), file=sys.stderr)
    return 1 if failures else 0


def _cmd_health(args: argparse.Namespace) -> int:
    """Static health assessment of a target's sub-arrays from a fault map."""
    from repro.serve import assess_fault_map, subarray_exclusions

    target = _target_of(args)
    fault_map = _fault_map_of(args) or FaultMap()
    assessment = assess_fault_map(fault_map, target)
    if args.json:
        document = {
            "target": {"num_arrays": target.num_arrays,
                       "rows": target.rows, "cols": target.cols,
                       "technology": target.technology.name.lower()},
            "baseline_write_failure_probability":
                target.technology.write_failure_probability,
            "arrays": {str(array): {"faults": entry["faults"],
                                    "density": entry["density"],
                                    "state": entry["state"].value}
                       for array, entry in sorted(assessment.items())},
            "exclusions": list(subarray_exclusions(fault_map, target)),
        }
        print(json.dumps(document, indent=2))
        return 0
    print(f"target: {target.num_arrays} x {target.rows}x{target.cols} "
          f"{target.technology.name.lower()}")
    print(f"baseline soft write-failure probability: "
          f"{target.technology.write_failure_probability:.2e}")
    rows = [[array, entry["faults"], f"{entry['density']:.2%}",
             entry["state"].value]
            for array, entry in sorted(assessment.items())]
    print(format_table(["array", "hard faults", "density", "state"], rows))
    excluded = subarray_exclusions(fault_map, target)
    if excluded:
        print(f"suggested multi-array exclusions: "
              f"{', '.join(str(a) for a in excluded)}")
    else:
        print("suggested multi-array exclusions: none")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="sherlock",
        description="Sherlock: bulk-bitwise CIM mapping and scheduling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a C kernel to CIM code")
    p.add_argument("source", help="C-subset source file")
    p.add_argument("--function", default=None, help="kernel function name")
    p.add_argument("--emit", action="store_true",
                   help="print the generated instructions")
    p.add_argument("--report", action="store_true",
                   help="print the per-array occupancy / transfer report "
                        "(overlap model)")
    p.add_argument("--output", "-o", default=None,
                   help="save the compiled program as JSON")
    _add_target_args(p)
    _add_pipeline_args(p)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("inspect",
                       help="report (and re-verify) a saved program")
    p.add_argument("program", help="JSON file from 'compile -o'")
    p.add_argument("--verify", action="store_true",
                   help="re-execute against the reference semantics")
    p.add_argument("--lanes", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("run", help="compile, execute and verify a workload")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--lanes", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", type=_engine_arg, default="auto",
                   help="execution backend: auto | interpreted | vectorized")
    p.add_argument("--batch", metavar="FILE", default=None,
                   help="execute every input set in FILE (a JSON list of "
                        "input objects; missing operands filled from "
                        "--seed) through one compile")
    _add_target_args(p)
    _add_pipeline_args(p)
    _add_fault_map_arg(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="latency/reliability MRA sweep (Fig. 6)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    _add_target_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "campaign",
        help="Monte-Carlo fault-injection campaign with recovery policies")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=sorted(WORKLOADS),
                       help="campaign over a registered workload DAG")
    group.add_argument("--synthetic", type=int, metavar="OPS",
                       help="campaign over a random synthetic DAG of OPS ops")
    p.add_argument("--trials", type=_positive_int, default=200,
                   help="Monte-Carlo trials per policy (>= 1)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (same seed -> same fault sequences)")
    p.add_argument("--lanes", type=int, default=16,
                   help="simulated lanes per trial")
    p.add_argument("--policy", action="append", metavar="NAME",
                   help="recovery policy to campaign (repeatable; "
                        "default: all registered policies)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="shard trials across N worker processes "
                        "(bit-identical to --workers 1 on the same seed)")
    p.add_argument("--variability", type=float, default=None,
                   help="override the technology's relative resistance "
                        "spread (e.g. 0.35) to stress the fault model")
    p.add_argument("--engine", type=_engine_arg, default="interpreted",
                   help="trial execution backend: auto | interpreted | "
                        "vectorized (vectorized batches 'none'-policy "
                        "trials through the bit-packed op-table)")
    p.add_argument("--checkpoint", metavar="FILE", default=None,
                   help="journal completed trial blocks to FILE; rerunning "
                        "with the same seed resumes where the last run "
                        "stopped, bit-identical to an uninterrupted run "
                        "(requires exactly one --policy)")
    _add_target_args(p)
    _add_fault_map_arg(p)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "wear",
        help="static write-traffic report and per-technology lifetime bound")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=sorted(WORKLOADS))
    group.add_argument("--synthetic", type=int, metavar="OPS",
                       help="report on a random synthetic DAG of OPS ops")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for --synthetic DAG generation")
    _add_target_args(p)
    _add_pipeline_args(p)
    _add_fault_map_arg(p)
    p.set_defaults(func=_cmd_wear)

    p = sub.add_parser(
        "lifetime",
        help="wear-out campaign: baseline vs wear-leveling + remap/recompile")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=sorted(WORKLOADS))
    group.add_argument("--synthetic", type=int, metavar="OPS",
                       help="age a random synthetic DAG of OPS ops")
    p.add_argument("--trials", type=_positive_int, default=20,
                   help="paired aging trials (>= 1)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (same seed -> same endurance draws)")
    p.add_argument("--endurance", type=float, default=150.0,
                   help="simulation-scale nominal endurance in writes per "
                        "cell (real devices: 1e8+; keep this small so the "
                        "campaign finishes)")
    p.add_argument("--spread", type=float, default=0.15,
                   help="relative Gaussian spread of per-cell endurance")
    p.add_argument("--no-wear-leveling", action="store_true",
                   help="disable the per-epoch row rotation (remap only)")
    p.add_argument("--stride", type=_positive_int, default=1,
                   help="row-rotation stride per execution epoch")
    p.add_argument("--horizon", type=_positive_int, default=1_000_000,
                   help="censor trials after this many executions")
    p.add_argument("--validate", action="store_true",
                   help="functionally validate every recompiled program "
                        "(exit 1 on any mismatch)")
    p.add_argument("--lanes", type=int, default=16,
                   help="lanes for --validate executions")
    p.add_argument("--checkpoint", metavar="FILE", default=None,
                   help="journal completed aging trials to FILE; rerunning "
                        "with the same seed resumes the campaign "
                        "bit-identically")
    _add_target_args(p)
    _add_fault_map_arg(p)
    p.set_defaults(func=_cmd_lifetime)

    p = sub.add_parser(
        "serve",
        help="compile-and-serve runtime: artifact cache, worker pool, "
             "CPU-offload circuit breaker")
    p.add_argument("--requests", metavar="FILE", default=None,
                   help="batch mode: serve the JSON(-lines) requests in "
                        "FILE, one JSON result line per request on stdout")
    p.add_argument("--port", type=int, default=None,
                   help="socket mode: serve line-delimited JSON requests "
                        "on this TCP port (0 = ephemeral)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address for --port mode")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="persistent artifact-cache directory (omit to "
                        "disable persistence)")
    p.add_argument("--workers", type=_positive_int, default=2,
                   help="compile worker threads")
    p.add_argument("--queue-limit", type=_positive_int, default=16,
                   help="job-queue bound; beyond it requests are shed "
                        "with a structured overload error")
    p.add_argument("--shed-policy", default="reject",
                   choices=("reject", "oldest", "deadline"),
                   help="who loses when the queue is full: the newcomer "
                        "(reject), the oldest queued job (oldest), or the "
                        "queued job with the least deadline slack "
                        "(deadline)")
    p.add_argument("--placement", default="sticky",
                   choices=("sticky", "health"),
                   help="array placement: honor the requested array "
                        "(sticky) or steer around DEGRADED/QUARANTINED "
                        "arrays (health)")
    p.add_argument("--scrub-every", type=int, default=0, metavar="N",
                   help="patrol-scrub the fleet after every N completed "
                        "requests (0 = scrubbing off)")
    p.add_argument("--scrub-budget", type=_positive_int, default=256,
                   help="cells march-tested per scrub pass")
    p.add_argument("--deadline", type=_positive_float, default=None,
                   help="default per-request deadline in seconds (> 0)")
    p.add_argument("--lanes", type=int, default=16,
                   help="default lanes for requests that do not set one")
    p.add_argument("--stats", action="store_true",
                   help="print the service health/stats surface (cache "
                        "hits/misses/quarantines, queue depth, breaker "
                        "state, latency percentiles) to stderr at exit")
    _add_target_args(p)
    _add_fault_map_arg(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "health",
        help="assess per-sub-array health of a target from a fault map")
    p.add_argument("--json", action="store_true",
                   help="emit the assessment as a JSON document instead "
                        "of the table")
    _add_target_args(p)
    _add_fault_map_arg(p)
    p.set_defaults(func=_cmd_health)

    p = sub.add_parser("workloads", help="list available workloads")
    p.set_defaults(func=_cmd_workloads)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as error:
        print(f"error: {error}", file=sys.stderr)
        for line in error.details():
            print(f"  {line}", file=sys.stderr)
        return 1
    except SherlockError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
