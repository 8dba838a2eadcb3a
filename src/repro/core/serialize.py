"""Saving and loading compiled programs as JSON artifacts.

A :class:`repro.core.compiler.CompiledProgram` is fully determined by its
DAGs, target, configuration, layout and instruction stream; this module
round-trips all of it through a single JSON document so compiled kernels can
be archived, diffed, shipped to a device controller, and re-executed without
recompiling.  Instructions serialize in the Fig. 4 text format.

Format version 2 extends the single-layout version 1 document with the
degraded-compile state a resilient artifact cache must hold: staged
(spill-and-partition) programs serialize one sub-document per stage (its
sub-DAG, per-stage layout, instruction body, bridge copies, and boundary
import/export tables), and the degradation ``ladder``, ``degradation``
rung name, hard-fault map, and every column's bottom-up and top-down
fill lines (``fills``, which fix the spare rows) travel along.  Older
documents still load (they simply carry less of that state).

The dict-level entry points (:func:`program_to_dict` /
:func:`program_from_dict`) exist so the artifact cache
(:mod:`repro.core.cache`) and the file round-trip share one codec.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from repro.arch.layout import CellAddr, Layout
from repro.arch.parse import parse_program
from repro.arch.target import TargetSpec
from repro.core.compiler import CompiledProgram, LadderAttempt
from repro.core.config import CompilerConfig
from repro.arch.isa import program_text
from repro.devices.faultmap import FaultMap
from repro.devices.technology import TECHNOLOGIES, Technology
from repro.dfg.graph import DataFlowGraph, OperandKind
from repro.errors import SherlockError
from repro.mapping.base import MappingResult, MappingStats
from repro.mapping.partition import Stage, combined_mapping

FORMAT_VERSION = 2
#: document versions :func:`program_from_dict` accepts
SUPPORTED_VERSIONS = (1, 2)


# ----------------------------------------------------------------------
# DAG <-> dict
# ----------------------------------------------------------------------
def dag_to_dict(dag: DataFlowGraph) -> dict:
    """Serialize a DAG to plain JSON-compatible dictionaries."""
    operands = []
    for operand in sorted(dag.operand_nodes(), key=lambda o: o.node_id):
        operands.append({
            "id": operand.node_id,
            "kind": operand.kind.value,
            "name": operand.name,
            "const": operand.const_value,
        })
    ops = []
    for node in sorted(dag.op_nodes(), key=lambda n: n.node_id):
        ops.append({
            "id": node.node_id,
            "op": node.op.value,
            "operands": list(node.operands),
            "result": node.result,
        })
    return {"name": dag.name, "operands": operands, "ops": ops,
            "outputs": dag.outputs}


def dag_from_dict(data: dict) -> tuple[DataFlowGraph, dict[int, int]]:
    """Rebuild a DAG; also return old-id -> new-id for operand nodes."""
    from repro.dfg.ops import OpType

    dag = DataFlowGraph(data["name"])
    id_map: dict[int, int] = {}
    produced = {op["result"]: op for op in data["ops"]}
    for operand in data["operands"]:
        if operand["id"] in produced:
            continue  # results are recreated by add_op
        kind = OperandKind(operand["kind"])
        if kind is OperandKind.INPUT:
            id_map[operand["id"]] = dag.add_input(operand["name"])
        elif kind is OperandKind.CONST:
            id_map[operand["id"]] = dag.add_const(operand["const"],
                                                  operand["name"])
        else:
            raise SherlockError(
                f"intermediate operand {operand['id']} has no producing op")
    # ops serialized in creation (id) order are already topological for
    # graphs built through the public API; fall back to a worklist otherwise
    pending = list(data["ops"])
    progress = True
    while pending and progress:
        progress = False
        remaining = []
        for op in pending:
            if all(oid in id_map for oid in op["operands"]):
                result = dag.add_op(OpType(op["op"]),
                                    [id_map[oid] for oid in op["operands"]])
                id_map[op["result"]] = result
                progress = True
            else:
                remaining.append(op)
        pending = remaining
    if pending:
        raise SherlockError("serialized DAG has unresolvable dependencies")
    for name, oid in data["outputs"].items():
        dag.mark_output(id_map[oid], name)
    dag.validate()
    return dag, id_map


# ----------------------------------------------------------------------
# target / config
# ----------------------------------------------------------------------
def target_to_dict(target: TargetSpec) -> dict:
    """Serialize a target spec, keeping full technology parameters."""
    data = dataclasses.asdict(target)
    tech = data.pop("technology")
    data["technology"] = tech  # keep full parameters for custom technologies
    data["technology_name"] = target.technology.name
    return data


def target_from_dict(data: dict) -> TargetSpec:
    """Rebuild a target spec, reusing built-in technologies when equal."""
    data = dict(data)
    name = data.pop("technology_name")
    tech_params = data.pop("technology")
    builtin = TECHNOLOGIES.get(name)
    technology = (builtin if builtin is not None
                  and dataclasses.asdict(builtin) == tech_params
                  else Technology(**tech_params))
    return TargetSpec(technology=technology, **data)


# ----------------------------------------------------------------------
# layout / stage <-> dict
# ----------------------------------------------------------------------
def _layout_to_dict(layout: Layout) -> dict:
    """A layout's operand placements and column fill lines, JSON-ready."""
    return {
        "placements": {str(oid): [[a.array, a.row, a.col] for a in addrs]
                       for oid, addrs in layout.placements().items()},
        "fills": [[gcol, layout._fill.get(gcol, 0),
                   layout._top_fill.get(gcol, 0)]
                  for gcol in sorted(layout._touched_cols())],
    }


def _layout_from_dict(target: TargetSpec, data: dict,
                      id_map: dict[int, int], fault_map) -> Layout:
    """Rebuild a layout from :func:`_layout_to_dict` via the DAG id map."""
    layout = Layout(target, fault_map=fault_map)
    # placements refer to the serialized ids; translate through id_map and
    # restore the addresses verbatim
    for old_id, addrs in data["placements"].items():
        new_id = id_map.get(int(old_id))
        if new_id is None:
            raise SherlockError(f"placement for unknown operand {old_id}")
        layout._copies[new_id] = [CellAddr(a, r, c) for a, r, c in addrs]
        layout._duplicates += len(addrs) - 1
    if "fills" in data:
        for gcol, bottom, top in data["fills"]:
            layout._fill[gcol], layout._top_fill[gcol] = bottom, top
        return layout
    # no fill lines recorded: derive bottom-up ones from the highest rows
    for addrs in layout._copies.values():
        for addr in addrs:
            gcol = layout.global_col(addr.array, addr.col)
            layout._fill[gcol] = max(layout._fill.get(gcol, 0), addr.row + 1)
    return layout


def _stage_to_dict(stage: Stage) -> dict:
    """Serialize one spill-and-partition stage with all its glue."""
    return {
        "dag": dag_to_dict(stage.dag),
        **_layout_to_dict(stage.mapping.layout),
        "instructions": program_text(stage.mapping.instructions),
        "stats": stage.mapping.stats.as_dict(),
        "imports": dict(stage.imports),
        "exports": dict(stage.exports),
        "bridge": program_text(stage.bridge),
        "bridged": sorted(stage.bridged),
    }


def _stage_from_dict(data: dict, target: TargetSpec,
                     full_id_map: dict[int, int], fault_map) -> Stage:
    """Rebuild one stage; boundary ids translate via the full DAG's map."""
    stage_dag, stage_ids = dag_from_dict(data["dag"])
    layout = _layout_from_dict(target, data, stage_ids, fault_map)
    mapping = MappingResult(
        dag=stage_dag, target=target, layout=layout,
        instructions=parse_program(data["instructions"]),
        stats=MappingStats(**data["stats"]))

    def full_id(old: object) -> int:
        new = full_id_map.get(int(old))  # type: ignore[arg-type]
        if new is None:
            raise SherlockError(
                f"stage boundary refers to unknown operand {old}")
        return new

    return Stage(
        dag=stage_dag, mapping=mapping,
        imports={name: full_id(oid)
                 for name, oid in data["imports"].items()},
        exports={name: full_id(oid)
                 for name, oid in data["exports"].items()},
        bridge=parse_program(data["bridge"]),
        bridged=set(data["bridged"]))


# ----------------------------------------------------------------------
# program <-> dict
# ----------------------------------------------------------------------
def program_to_dict(program: CompiledProgram) -> dict:
    """Serialize a compiled program — staged or not — to one JSON document.

    Single-layout programs keep the version 1 shape (placements +
    instruction text); staged programs store one sub-document per stage
    instead, because no single layout describes a staged run.  The
    degradation ladder and any hard-fault map the program was placed
    around travel along, so a persistent artifact cache reproduces the
    *degraded* compile exactly.
    """
    document = {
        "format_version": FORMAT_VERSION,
        "source_dag": dag_to_dict(program.source_dag),
        "dag": dag_to_dict(program.dag),
        "target": target_to_dict(program.target),
        "config": dataclasses.asdict(program.config),
        "stats": program.mapping.stats.as_dict(),
        "ladder": [dataclasses.asdict(attempt)
                   for attempt in program.ladder],
        "degradation": program.degradation,
        "fault_map": (program.fault_map.to_dict()
                      if program.fault_map is not None else None),
    }
    if program.stages is None:
        document["instructions"] = program_text(program.instructions)
        document.update(_layout_to_dict(program.layout))
    else:
        document["stages"] = [_stage_to_dict(stage)
                              for stage in program.stages]
    return document


def program_from_dict(document: dict) -> CompiledProgram:
    """Rebuild a program from :func:`program_to_dict`'s document.

    Accepts every version in :data:`SUPPORTED_VERSIONS`; raises
    :class:`~repro.errors.SherlockError` on anything else (including
    documents that are not dictionaries at all — the artifact cache
    feeds this arbitrary on-disk bytes).
    """
    if not isinstance(document, dict):
        raise SherlockError("program document must be a JSON object")
    if document.get("format_version") not in SUPPORTED_VERSIONS:
        raise SherlockError(
            f"unsupported program format {document.get('format_version')!r}")
    try:
        source_dag, _ = dag_from_dict(document["source_dag"])
        dag, id_map = dag_from_dict(document["dag"])
        target = target_from_dict(document["target"])
        config = CompilerConfig(**document["config"])
        stats = MappingStats(**document["stats"])
    except (KeyError, TypeError, ValueError) as error:
        raise SherlockError(
            f"malformed program document: {error!r}") from error
    fault_doc = document.get("fault_map")
    fault_map = FaultMap.from_dict(fault_doc) if fault_doc else None
    ladder = [LadderAttempt(**attempt)
              for attempt in document.get("ladder", [])]
    degradation = document.get("degradation", "none")
    stage_docs = document.get("stages")
    if stage_docs is None:
        try:
            layout = _layout_from_dict(target, document, id_map, fault_map)
            instructions = parse_program(document["instructions"])
        except (KeyError, TypeError, ValueError) as error:
            raise SherlockError(
                f"malformed program document: {error!r}") from error
        mapping = MappingResult(dag=dag, target=target, layout=layout,
                                instructions=instructions, stats=stats)
        stages = None
    else:
        stages = [_stage_from_dict(stage_doc, target, id_map, fault_map)
                  for stage_doc in stage_docs]
        if not stages:
            raise SherlockError("staged program document has no stages")
        mapping = combined_mapping(dag, target, stages, stats.mapper)
        mapping.stats = stats  # keep the exact as-compiled statistics
    return CompiledProgram(source_dag=source_dag, dag=dag, target=target,
                           config=config, mapping=mapping, stages=stages,
                           ladder=ladder, degradation=degradation,
                           fault_map=fault_map)


# ----------------------------------------------------------------------
# program <-> file
# ----------------------------------------------------------------------
def save_program(program: CompiledProgram, path: str | pathlib.Path) -> None:
    """Write a compiled program to ``path`` as JSON.

    Staged (spill-and-partition) and multi-array programs round-trip too
    (format version 2); see :func:`program_to_dict`.
    """
    pathlib.Path(path).write_text(
        json.dumps(program_to_dict(program), indent=1))


def load_program(path: str | pathlib.Path) -> CompiledProgram:
    """Reload a program saved by :func:`save_program`."""
    try:
        document = json.loads(pathlib.Path(path).read_text())
    except json.JSONDecodeError as error:
        raise SherlockError(
            f"program file {path} is not valid JSON: {error}") from None
    return program_from_dict(document)

