"""Spill-and-partition fallback: split a DAG that does not fit into stages.

When a mapper runs out of capacity even with cell recycling, the schedule
is bisected along a *min-cut* — the cut point (restricted to the middle
third, so stages stay balanced) crossed by the fewest live values — and
each side is retried recursively until every stage fits the target on its
own.  Stages execute back to back on the same arrays: each stage is an
independent sub-DAG whose foreign operands become boundary inputs named
``__b<oid>`` and whose results needed later become boundary outputs.

Between two adjacent stages the boundary values are carried *in-array* by
bridge instructions (plain read → transfer → shift → write from the cell
the producing stage left them in to the cell the consuming stage expects),
ordered so no copy overwrites a cell another copy still reads.  Values
that skip a stage, or copies forming an overwrite cycle, fall back to
host staging: the executor re-pokes them from the boundary values it
extracted after the producing stage — the same channel that preloads
program inputs.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.arch.isa import Instruction, ReadInst, ShiftInst, TransferInst, WriteInst
from repro.arch.target import TargetSpec
from repro.dfg.blevel import blevel_order
from repro.dfg.graph import DataFlowGraph, OperandKind, input_ids
from repro.errors import CapacityError, MappingError, SimulationError
from repro.mapping.base import MappingResult, MappingStats
from repro.sim.executor import ArrayMachine, extract_outputs, preload_sources

#: prefix of the synthetic input/output names carrying values across stages
BOUNDARY_PREFIX = "__b"

#: hard ceiling on the number of stages recursive bisection may produce
MAX_STAGES = 64

MapperFn = Callable[[DataFlowGraph], MappingResult]


@dataclass
class Stage:
    """One partition: a sub-DAG that fits the target, plus its glue."""

    dag: DataFlowGraph
    mapping: MappingResult
    #: boundary input name (``__b<oid>``) -> operand id in the *full* DAG
    imports: dict[str, int]
    #: boundary output name (``__b<oid>``) -> operand id in the *full* DAG
    exports: dict[str, int]
    #: instructions run before this stage to carry values handed over from
    #: the immediately preceding stage into this stage's cells
    bridge: list[Instruction] = field(default_factory=list)
    #: boundary input names the bridge carries (the rest are host-poked)
    bridged: set[str] = field(default_factory=set)


@dataclass
class _StagePlan:
    dag: DataFlowGraph
    imports: dict[str, int]
    exports: dict[str, int]


def _build_stage(dag: DataFlowGraph, schedule: list[int],
                 pos: dict[int, int], lo: int, hi: int) -> _StagePlan:
    """Extract schedule positions [lo, hi) as a self-contained sub-DAG."""
    sub = DataFlowGraph(f"{dag.name}.part{lo}_{hi}")
    id_map: dict[int, int] = {}  # full-DAG operand id -> sub-DAG id
    imports: dict[str, int] = {}
    exports: dict[str, int] = {}
    output_ids = set(dag.outputs.values())

    def import_operand(oid: int) -> int:
        if oid in id_map:
            return id_map[oid]
        operand = dag.operand(oid)
        if operand.kind is OperandKind.CONST:
            nid = sub.add_const(operand.const_value, operand.name)
        elif operand.kind is OperandKind.INPUT:
            nid = sub.add_input(operand.name)
        else:
            # produced by an earlier stage: becomes a boundary input
            name = f"{BOUNDARY_PREFIX}{oid}"
            nid = sub.add_input(name)
            imports[name] = oid
        id_map[oid] = nid
        return nid

    for op_id in schedule[lo:hi]:
        node = dag.op(op_id)
        operands = [import_operand(oid) for oid in node.operands]
        id_map[node.result] = sub.add_op(node.op, operands)

    for op_id in schedule[lo:hi]:
        result = dag.op(op_id).result
        needed_later = any(pos[c] >= hi for c in dag.consumers(result))
        if needed_later or result in output_ids:
            name = f"{BOUNDARY_PREFIX}{result}"
            sub.mark_output(id_map[result], name)
            exports[name] = result
    return _StagePlan(dag=sub, imports=imports, exports=exports)


def _best_cut(dag: DataFlowGraph, schedule: list[int],
              pos: dict[int, int], lo: int, hi: int) -> int:
    """The middle-third cut point crossed by the fewest live values.

    A value produced at schedule position ``i`` crosses every cut in
    ``(i, last use]`` (every cut after ``i`` for an output), so one sweep
    over the last-use positions counts the crossings of all cuts at once.
    """
    output_ids = set(dag.outputs.values())
    third = max(1, (hi - lo) // 3)
    candidates = range(lo + third, hi - third + 1)
    if not candidates:
        candidates = range(lo + (hi - lo) // 2, lo + (hi - lo) // 2 + 1)

    # delta[c - lo]: change in the crossing count from cut c - 1 to cut c
    delta = [0] * (hi - lo + 2)
    for i in range(lo, hi):
        result = dag.op(schedule[i]).result
        if result in output_ids:
            last = hi
        else:
            last = min(max((pos[c] for c in dag.consumers(result)),
                           default=i), hi)
        if last > i:
            delta[i + 1 - lo] += 1
            delta[last + 1 - lo] -= 1
    crossing, count = {}, 0
    for cut in range(lo, candidates.stop):
        count += delta[cut - lo]
        crossing[cut] = count
    return min(candidates, key=lambda c: (crossing[c], c))


def _build_bridge(prev: Stage, stage: Stage) -> None:
    """Emit in-array copies handing adjacent boundary values over.

    Each copy reads the value from the cell the previous stage's layout
    keeps it in and writes it to the cell the next stage's layout expects.
    Copies are ordered so that none overwrites a cell another copy has yet
    to read; copies caught in an overwrite cycle stay host-poked.
    """
    stage_inputs = input_ids(stage.dag)
    copies: dict[str, tuple] = {}  # name -> (src, dst)
    for name in sorted(stage.imports):
        if name not in prev.exports:
            continue  # produced before the previous stage: host-poked
        src = prev.mapping.layout.primary(prev.dag.outputs[name])
        dst = stage.mapping.layout.primary(stage_inputs[name])
        if src == dst:
            # the value already sits where the next stage expects it
            stage.bridged.add(name)
            continue
        copies[name] = (src, dst)
    # copy A must run before copy B when B's write clobbers A's read, so a
    # copy is ready only when no pending copy still reads the cell it writes
    remaining = dict(copies)
    while remaining:
        ready = [name for name, (_, dst) in remaining.items()
                 if not any(src == dst for other, (src, _) in
                            remaining.items() if other != name)]
        if not ready:
            break  # overwrite cycle: leave the rest to host staging
        for name in sorted(ready):
            src, dst = remaining.pop(name)
            stage.bridge.append(
                ReadInst(src.array, (src.col,), (src.row,), None))
            if src.array != dst.array:
                stage.bridge.append(
                    TransferInst(src.array, dst.array, (src.col,)))
            delta = dst.col - src.col
            if delta:
                stage.bridge.append(ShiftInst(dst.array, delta))
            stage.bridge.append(WriteInst(dst.array, (dst.col,), dst.row))
            stage.bridged.add(name)


def map_partitioned(dag: DataFlowGraph, target: TargetSpec,
                    mapper: MapperFn) -> list[Stage]:
    """Bisect the schedule until every stage fits; map each stage.

    ``mapper`` maps one sub-DAG (typically :func:`repro.mapping.naive.
    map_naive` or :func:`~repro.mapping.optimized.map_sherlock` with
    recycling on).  Raises :class:`CapacityError` when even a single
    schedule position does not fit, or the stage count explodes.
    """
    dag.validate()
    schedule = blevel_order(dag)
    if not schedule:
        raise CapacityError(
            "cannot partition a DAG with no operations; the passthrough "
            "outputs alone exceed the target")
    pos = {op_id: i for i, op_id in enumerate(schedule)}
    stages: list[Stage] = []
    pending = [(0, len(schedule))]  # schedule ranges still to fit, LIFO
    while pending:
        lo, hi = pending.pop()
        if len(stages) >= MAX_STAGES:
            raise CapacityError(
                f"partitioning exceeded {MAX_STAGES} stages; the target is "
                "far too small for this DAG")
        plan = _build_stage(dag, schedule, pos, lo, hi)
        try:
            mapping = mapper(plan.dag)
        except MappingError as exc:
            if hi - lo <= 1:
                raise CapacityError(
                    f"partitioning bottomed out: op {lo} of the schedule "
                    f"does not fit the target on its own ({exc})",
                    num_arrays=target.num_arrays) from exc
            cut = _best_cut(dag, schedule, pos, lo, hi)
            # the left half is fitted (and staged) first
            pending += [(cut, hi), (lo, cut)]
            continue
        stages.append(Stage(dag=plan.dag, mapping=mapping,
                            imports=plan.imports, exports=plan.exports))
    for prev, stage in zip(stages, stages[1:]):
        _build_bridge(prev, stage)
    return stages


def combined_mapping(dag: DataFlowGraph, target: TargetSpec,
                     stages: list[Stage], mapper_name: str) -> MappingResult:
    """One MappingResult view over a staged program, for metrics/reports.

    The instruction list concatenates every stage's bridge and body in
    execution order, so latency/energy metrics price the full fallback
    cost.  The layout is the final stage's (stages reuse physical cells,
    so no single layout describes the whole run).
    """
    instructions: list[Instruction] = []
    stats = MappingStats(mapper_name)
    for stage in stages:
        instructions.extend(stage.bridge)
        instructions.extend(stage.mapping.instructions)
        stats.gather_moves += stage.mapping.stats.gather_moves
        stats.merged_instruction_savings += \
            stage.mapping.stats.merged_instruction_savings
        stats.recycled_cells += stage.mapping.stats.recycled_cells
        stats.duplicates += stage.mapping.stats.duplicates
        stats.columns_used = max(stats.columns_used,
                                 stage.mapping.stats.columns_used)
        stats.arrays_used = max(stats.arrays_used,
                                stage.mapping.stats.arrays_used)
        stats.cells_used = max(stats.cells_used,
                               stage.mapping.stats.cells_used)
    return MappingResult(dag=dag, target=target,
                         layout=stages[-1].mapping.layout,
                         instructions=instructions, stats=stats)


def execute_staged(stages: list[Stage], dag: DataFlowGraph,
                   target: TargetSpec, inputs: dict[str, int],
                   lanes: int = 64, fault_rng=None, observer=None,
                   strict_shift: bool = True,
                   machine: ArrayMachine | None = None) -> dict[str, int]:
    """Run a staged program end to end on one shared :class:`ArrayMachine`.

    ``dag`` is the full (transformed) DAG the stages were cut from; its
    outputs name the values to return.  Boundary values are extracted
    after each stage and re-injected into later stages — by the bridge
    instructions where possible, by host pokes otherwise.  A caller may
    supply a pre-configured ``machine`` (fault map, verify-after-write);
    the other machine knobs are then ignored.
    """
    if machine is None:
        machine = ArrayMachine(target, lanes, fault_rng,
                               strict_shift=strict_shift, observer=observer)
    boundary: dict[int, int] = {}
    for stage in stages:
        machine.run(stage.bridge)
        stage_inputs: dict[str, int] = {}
        for operand in stage.dag.inputs():
            if operand.name in stage.imports:
                stage_inputs[operand.name] = boundary[
                    stage.imports[operand.name]]
            else:
                stage_inputs[operand.name] = inputs[operand.name]
        poked = {name for name in stage_inputs if name not in stage.bridged}
        preload_sources(machine, stage.mapping.layout, stage.dag,
                        stage_inputs, only=poked)
        machine.run(stage.mapping.instructions)
        for name, value in extract_outputs(
                machine, stage.mapping.layout, stage.dag).items():
            boundary[stage.exports[name]] = value
    results: dict[str, int] = {}
    for name, oid in dag.outputs.items():
        operand = dag.operand(oid)
        if operand.producer is None:
            if operand.kind is OperandKind.CONST:
                results[name] = machine.mask if operand.const_value else 0
            elif operand.name not in inputs:
                raise SimulationError(
                    f"missing input value for passthrough output {name!r}")
            else:
                results[name] = inputs[operand.name] & machine.mask
        else:
            results[name] = boundary[oid]
    return results


def run_program(program, machine: ArrayMachine,
                inputs: dict[str, int]) -> dict[str, int]:
    """Run a compiled program on a configured machine; return its outputs.

    The one interpreted run path every caller shares: preload the inputs,
    run the trace, read the outputs back — or, for a staged
    (spill-and-partition) program, :func:`execute_staged` on the same
    machine.  ``program`` is anything with the compiled-program surface
    (``stages``, ``dag``, ``target``, ``layout``, ``instructions``).
    """
    if program.stages is not None:
        return execute_staged(program.stages, program.dag, program.target,
                              inputs, machine.lanes, machine=machine)
    preload_sources(machine, program.layout, program.dag, inputs)
    machine.run(program.instructions)
    return extract_outputs(machine, program.layout, program.dag)
