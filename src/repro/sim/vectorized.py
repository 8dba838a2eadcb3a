"""Vectorized bit-packed execution backend for compiled programs.

The interpreted :class:`repro.sim.executor.ArrayMachine` is the semantic
reference: it walks one instruction at a time over per-cell Python-int
lane masks.  That is exact but slow — every campaign trial and every
served request re-interprets the same trace.  This module separates the
two concerns the way a bytecode VM does (schedule construction vs a fast
execution mapper): a :class:`CompiledProgram`'s instruction stream is
*lowered once* into a flat SSA op-table, and the table is executed with a
handful of batched numpy operations over ``values × batch × lane-words``
``uint64`` matrices.

Lowering symbolically replays the exact interpreted execution — preload,
every ISA instruction (``read``/``write``/``shift``/``not``/``xfer``),
staged boundary handling, output extraction — tracking cells, row
buffers and liveness per array.  Every static error the interpreter
would raise (uninitialized reads, empty row-buffer columns, strict-shift
violations, address bounds) is raised during lowering with the identical
message.  Stuck-at cells of the program's :class:`FaultMap` become
forced constants, so hard-fault forcing costs nothing at run time.

The resulting table is *lane-agnostic*: the same lowering serves any
lane count and any batch size.  :func:`vector_program` caches one
lowering per verify flag on the program and keys it by the content of
the program's fault map (the map object and its mutation
:attr:`~repro.devices.FaultMap.version`), so an in-place map edit or a
replaced map re-lowers and the packed engine never runs a stale map.
Two execution plans are derived from a lowering on demand:

* the **deterministic plan** (no fault injection) aliases away plain
  single-row copies entirely and executes only the real column ops —
  bit-identical to the interpreted machine with ``fault_rng=None``;
* the **injecting plan** keeps every sense (plain reads included, at
  ``P_DF(NOT, 1)``, exactly like the interpreter) as a flip point, and
  groups the flip positions by distinct ``P_DF``.  Each trial owns a
  counter-based Philox generator keyed by ``(seed, trial)``, so batched
  campaign shards are bit-identical no matter how the trial range is
  partitioned.  Per group it draws one Binomial(positions × lanes,
  ``P_DF``) flip count, then that many distinct cells, and the flips
  are XORed into the lane words at their sense step only: O(flips)
  work per trial, not O(positions × lanes).  ``P_DF >= 1`` flips every
  lane and ``P_DF = 0`` none, without a draw.  The draws differ from the
  interpreter's ``random.Random`` stream, but the per-lane flip
  distribution is the same independent Bernoulli(``P_DF``).

Verify-after-write is a second lowering variant: reads-after-write
return the written value through the dataflow (correct whether the cell
verified clean or was remapped to a spare).  Writes that cannot
escalate are bulk-counted; the rest run through the interpreter's own
ladder (:meth:`ArrayMachine.commit` — retry, declare dead, remap to a
same-column spare, :class:`HardFaultError` when the pool is dry), so
both engines share one set of fault semantics.

:func:`execute_many` streams thousands of independent input sets
through one lowered program in memory-bounded chunks — the batch half
of the compile-once/execute-many serving story.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.devices.faultmap import CellFault, FaultMap
from repro.dfg.ops import OpType
from repro.errors import SherlockError, SimulationError
from repro.sim.executor import ArrayMachine
from repro.sim.metrics import cached_p_df

__all__ = [
    "ENGINES",
    "VectorMachine",
    "VectorProgram",
    "campaign_trials",
    "execute",
    "execute_many",
    "mask_words",
    "pack_values",
    "resolve_engine",
    "unpack_values",
    "validate_engine",
    "vector_program",
]

#: the execution backends a caller may select by name ("auto" resolves)
ENGINES = ("interpreted", "vectorized")

_WORD_MASK = 0xFFFFFFFFFFFFFFFF

# SSA def kinds of the lowered value table
_K_INPUT, _K_CONST, _K_SENSE, _K_NOT = range(4)


def validate_engine(engine: str, allow_auto: bool = True) -> str:
    """Check an engine name, returning it; raise with the valid list.

    ``allow_auto`` additionally accepts ``"auto"`` (resolved later by
    :func:`resolve_engine`).  Raises :class:`SherlockError` naming the
    valid engines — the CLI turns this into an argparse exit-2 error.
    """
    valid = (("auto",) + ENGINES) if allow_auto else ENGINES
    if engine not in valid:
        raise SherlockError(
            f"unknown engine {engine!r} (valid engines: {', '.join(valid)})")
    return engine


def resolve_engine(engine: str, *, observer=None, fault_rng=None,
                   verify_writes: bool = False) -> str:
    """Resolve ``"auto"`` to a concrete backend for one execution.

    ``auto`` picks the vectorized backend only when nothing requires the
    interpreted machine: a sense observer (recovery policies hook the
    interpreter), a fault RNG (existing seeded campaigns rely on the
    interpreter's exact draw stream), or verify-after-write (kept on the
    reference path unless explicitly requested).  An explicit
    ``"vectorized"`` forces the vector path for everything it supports.
    """
    validate_engine(engine)
    if engine != "auto":
        return engine
    if observer is not None or fault_rng is not None or verify_writes:
        return "interpreted"
    return "vectorized"


# ----------------------------------------------------------------------
# bit packing
# ----------------------------------------------------------------------
def _word_count(lanes: int) -> int:
    return (lanes + 63) // 64


def mask_words(lanes: int) -> np.ndarray:
    """The all-lanes-set mask as a ``(W,)`` uint64 word vector."""
    if lanes < 1:
        raise SimulationError(f"lane count must be positive, got {lanes}")
    words = np.full(_word_count(lanes), _WORD_MASK, dtype=np.uint64)
    rem = lanes % 64
    if rem:
        words[-1] = np.uint64((1 << rem) - 1)
    return words


def pack_values(values, lanes: int) -> np.ndarray:
    """Pack lane-bitmask integers into a ``(B, W)`` uint64 word matrix."""
    mask = (1 << lanes) - 1
    width = _word_count(lanes)
    if width == 1:
        values = list(values)
        try:
            words = np.array(values, dtype=np.uint64)
        except OverflowError:  # negative or wider than a word
            words = np.array([v & mask for v in values], dtype=np.uint64)
        return (words & np.uint64(mask)).reshape(-1, 1)
    rows = []
    for value in values:
        value &= mask
        rows.append([(value >> (64 * w)) & _WORD_MASK for w in range(width)])
    return np.array(rows, dtype=np.uint64).reshape(-1, width)


def unpack_values(words: np.ndarray, lanes: int) -> list[int]:
    """Unpack a ``(B, W)`` uint64 word matrix back to Python lane masks."""
    if words.shape[1] == 1:
        return [int(v) for v in words[:, 0]]
    out = []
    for row in words:
        value = 0
        for w in range(words.shape[1] - 1, -1, -1):
            value = (value << 64) | int(row[w])
        out.append(value)
    return out


# ----------------------------------------------------------------------
# symbolic lowering
# ----------------------------------------------------------------------
@dataclass
class _WriteEntry:
    """One programmed cell, in program order (verify-mode escalation unit)."""

    logical: tuple[int, int, int]
    vid: int


class _Lowerer:
    """Symbolically replays one compiled program into an SSA value table.

    Mirrors :class:`repro.sim.executor.ArrayMachine` exactly: cells, row
    buffers and live-column tracking per array, fault forcing, strict
    shifts — except that cell and row-buffer contents are value *ids*
    instead of lane masks.  Static errors reproduce the interpreter's
    messages verbatim.
    """

    def __init__(self, target, fault_map: FaultMap | None,
                 verify: bool) -> None:
        self.target = target
        self.fault_map = fault_map
        self.verify = verify
        self.kinds: list[int] = []
        self.ops: list[OpType | None] = []
        self.ks: list[int] = []
        self.srcs: list[tuple[int, ...]] = []
        self.input_ids: dict[str, int] = {}
        self.const_ids: dict[bool, int] = {}
        self.cells: dict[tuple[int, int, int], int] = {}
        self.rowbuf: dict[int, dict[int, int]] = {}
        self.live: dict[int, set[int]] = {}
        #: programmed cells in order (the verify write pass replays these)
        self.writes: list[_WriteEntry] = []
        #: per-preload sets of global input names that must be provided
        self.input_checks: list[frozenset[str]] = []
        #: staged passthrough outputs: (output name, input name)
        self.passthrough_checks: list[tuple[str, str]] = []
        self.outputs: dict[str, int] = {}

    # -- value table ---------------------------------------------------
    def _new(self, kind: int, op: OpType | None, k: int,
             srcs: tuple[int, ...]) -> int:
        self.kinds.append(kind)
        self.ops.append(op)
        self.ks.append(k)
        self.srcs.append(srcs)
        return len(self.kinds) - 1

    def input_vid(self, name: str) -> int:
        vid = self.input_ids.get(name)
        if vid is None:
            vid = self._new(_K_INPUT, None, 0, ())
            self.input_ids[name] = vid
        return vid

    def const_vid(self, ones: bool) -> int:
        vid = self.const_ids.get(ones)
        if vid is None:
            vid = self._new(_K_CONST, None, 0, ())
            self.const_ids[ones] = vid
        return vid

    # -- cell model ----------------------------------------------------
    def _check_addr(self, array: int, row: int, col: int) -> None:
        t = self.target
        if not (0 <= array < t.num_arrays and 0 <= row < t.rows
                and 0 <= col < t.cols):
            raise SimulationError(
                f"address (array={array}, row={row}, col={col}) outside "
                f"target {t.num_arrays}x{t.rows}x{t.cols}")

    def _fault(self, key: tuple[int, int, int]) -> CellFault | None:
        if self.fault_map is not None:
            return self.fault_map.fault_at(*key)
        return None

    def _load(self, key: tuple[int, int, int], message: str) -> int:
        fault = self._fault(key)
        if self.verify and key in self.cells:
            # a verified write committed this value — either the cell
            # checked clean or it was remapped to a spare holding it
            return self.cells[key]
        if fault is not None:
            return self.const_vid(fault is CellFault.STUCK1)
        vid = self.cells.get(key)
        if vid is None:
            raise SimulationError(message)
        return vid

    def poke(self, addr, vid: int) -> None:
        self._check_addr(addr.array, addr.row, addr.col)
        key = (addr.array, addr.row, addr.col)
        fault = self._fault(key)
        if fault is None:
            self.cells[key] = vid
        elif self.verify:
            # the poke bounces: later reads sense the forced value.  A
            # flat program pokes only before its first write, and a staged
            # one has no spares, so no remap can redirect a poke
            self.cells[key] = self.const_vid(fault is CellFault.STUCK1)
        # plain mode: the poke bounces and _load's fault check covers reads

    def store(self, array: int, row: int, col: int, vid: int) -> None:
        key = (array, row, col)
        self.writes.append(_WriteEntry(key, vid))
        if self.verify or self._fault(key) is None:
            self.cells[key] = vid

    # -- instructions --------------------------------------------------
    def run(self, instructions) -> None:
        from repro.arch.isa import (
            NotInst,
            ReadInst,
            ShiftInst,
            TransferInst,
            WriteInst,
        )

        for inst in instructions:
            if isinstance(inst, ReadInst):
                self._read(inst)
            elif isinstance(inst, WriteInst):
                self._write(inst)
            elif isinstance(inst, ShiftInst):
                self._shift(inst)
            elif isinstance(inst, NotInst):
                self._not(inst)
            elif isinstance(inst, TransferInst):
                self._transfer(inst)
            else:
                raise SimulationError(f"unknown instruction {inst!r}")

    def _read(self, inst) -> None:
        buf = self.rowbuf.setdefault(inst.array, {})
        k = len(inst.rows)
        for idx, col in enumerate(inst.cols):
            vids = []
            for row in inst.rows:
                self._check_addr(inst.array, row, col)
                vids.append(self._load(
                    (inst.array, row, col),
                    f"read of uninitialized cell (array={inst.array}, "
                    f"row={row}, col={col})"))
            op = None if inst.ops is None else inst.ops[idx]
            buf[col] = self._new(_K_SENSE, op, k, tuple(vids))
        self.live[inst.array] = set(inst.cols)

    def _write(self, inst) -> None:
        buf = self.rowbuf.get(inst.array, {})
        for col in inst.cols:
            self._check_addr(inst.array, inst.row, col)
            if col not in buf:
                raise SimulationError(
                    f"write from empty row-buffer column {col} "
                    f"(array {inst.array})")
            self.store(inst.array, inst.row, col, buf[col])

    def _shift(self, inst) -> None:
        buf = self.rowbuf.get(inst.array, {})
        live = self.live.get(inst.array, set())
        shifted: dict[int, int] = {}
        shifted_live: set[int] = set()
        for col, vid in buf.items():
            new_col = col + inst.amount
            if 0 <= new_col < self.target.cols:
                shifted[new_col] = vid
                if col in live:
                    shifted_live.add(new_col)
            elif col in live:
                # compiled programs always execute in strict-shift mode
                raise SimulationError(
                    f"shift by {inst.amount} moves live row-buffer column "
                    f"{col} (array {inst.array}) outside [0, "
                    f"{self.target.cols}); the program would silently lose "
                    "sensed data")
        self.rowbuf[inst.array] = shifted
        self.live[inst.array] = shifted_live

    def _not(self, inst) -> None:
        buf = self.rowbuf.get(inst.array, {})
        for col in inst.cols:
            if col not in buf:
                raise SimulationError(
                    f"NOT of empty row-buffer column {col} "
                    f"(array {inst.array})")
            buf[col] = self._new(_K_NOT, None, 1, (buf[col],))

    def _transfer(self, inst) -> None:
        if not 0 <= inst.dst_array < self.target.num_arrays:
            raise SimulationError(
                f"xfer destination array {inst.dst_array} out of range for "
                f"target with {self.target.num_arrays} array(s)")
        src = self.rowbuf.get(inst.array, {})
        dst = self.rowbuf.setdefault(inst.dst_array, {})
        for col in inst.cols:
            if col not in src:
                raise SimulationError(
                    f"xfer from empty row-buffer column {col} "
                    f"(array {inst.array})")
            dst[col] = src[col]
        self.live[inst.dst_array] = set(inst.cols)

    # -- preload / extract ---------------------------------------------
    def preload(self, layout, dag, stage_inputs: dict[str, int],
                only: set[str] | None, check_names: frozenset[str]) -> None:
        """Mirror of :func:`repro.sim.executor.preload_sources` on vids."""
        from repro.dfg.graph import OperandKind

        self.input_checks.append(check_names)
        for operand in dag.operand_nodes():
            if operand.kind is OperandKind.INPUT:
                if only is not None and operand.name not in only:
                    continue
                vid = stage_inputs[operand.name]
            elif operand.kind is OperandKind.CONST:
                vid = self.const_vid(bool(operand.const_value))
            else:
                continue
            if layout.is_placed(operand.node_id):
                self.poke(layout.primary(operand.node_id), vid)

    def extract(self, layout, dag) -> dict[str, int]:
        """Mirror of :func:`repro.sim.executor.extract_outputs` on vids."""
        results: dict[str, int] = {}
        for name, oid in dag.outputs.items():
            addr = layout.primary(oid)
            self._check_addr(addr.array, addr.row, addr.col)
            results[name] = self._load(
                (addr.array, addr.row, addr.col),
                f"output {name!r} (operand {oid}) was never written to its "
                f"primary cell (array={addr.array}, row={addr.row}, "
                f"col={addr.col})")
        return results


def _lower(program, fault_map: FaultMap | None, verify: bool) -> _Lowerer:
    """Lower a compiled program (flat or staged) into an SSA value table."""
    from repro.dfg.graph import OperandKind

    low = _Lowerer(program.target, fault_map, verify)
    if program.stages is None:
        dag = program.dag
        names = frozenset(o.name for o in dag.inputs())
        stage_inputs = {name: low.input_vid(name) for name in names}
        low.preload(program.layout, dag, stage_inputs, only=None,
                    check_names=names)
        low.run(program.instructions)
        low.outputs = low.extract(program.layout, dag)
        return low

    boundary: dict[int, int] = {}
    for stage in program.stages:
        low.run(stage.bridge)
        stage_inputs = {}
        global_needed = set()
        for operand in stage.dag.inputs():
            if operand.name in stage.imports:
                stage_inputs[operand.name] = boundary[
                    stage.imports[operand.name]]
            else:
                stage_inputs[operand.name] = low.input_vid(operand.name)
                global_needed.add(operand.name)
        poked = {name for name in stage_inputs if name not in stage.bridged}
        low.preload(stage.mapping.layout, stage.dag, stage_inputs,
                    only=poked, check_names=frozenset(global_needed))
        low.run(stage.mapping.instructions)
        for name, vid in low.extract(stage.mapping.layout,
                                     stage.dag).items():
            boundary[stage.exports[name]] = vid
    for name, oid in program.dag.outputs.items():
        operand = program.dag.operand(oid)
        if operand.producer is None:
            if operand.kind is OperandKind.CONST:
                low.outputs[name] = low.const_vid(bool(operand.const_value))
            else:
                low.passthrough_checks.append((name, operand.name))
                low.outputs[name] = low.input_vid(operand.name)
        else:
            low.outputs[name] = boundary[oid]
    return low


# ----------------------------------------------------------------------
# execution plans
# ----------------------------------------------------------------------
@dataclass
class _Step:
    """One batched numpy operation: a level-group of same-signature defs."""

    op: OpType | None  # None = plain copy (injecting plans) or rowbuf NOT
    k: int
    sense: bool  # True = a sensing step (flip point on injecting plans)
    dst: np.ndarray  # (n,) storage slots defined by this step
    src: np.ndarray  # (n,) for k == 1 else (k, n) source storage slots
    invert: bool
    p: float = 0.0  # per-lane decision-failure probability (sense steps)
    pos: int = 0  # start offset in the flip-position layout


@dataclass
class _Plan:
    """An executable level-ordered schedule over storage slots."""

    n_slots: int
    inputs: dict[str, int]  # input name -> slot
    consts: list[tuple[int, bool]]  # (slot, all-ones?)
    steps: list[_Step]
    outputs: dict[str, int]  # output name -> slot
    writes: list[tuple[tuple[int, int, int], int]]  # (logical cell, slot)
    n_positions: int  # total flip positions (injecting plans)
    #: (P_DF, flip positions) per distinct sampled ``0 < P_DF < 1``
    p_groups: list[tuple[float, np.ndarray]]
    #: the writes whose logical cell is faulty in the lowered map, and
    #: the rest (the verify pass sends only the former up the ladder)
    faulty_writes: list[tuple[tuple[int, int, int], int]]
    clean_writes: list[tuple[tuple[int, int, int], int]]


def _build_plan(low: _Lowerer, tech, inject: bool) -> _Plan:
    n = len(low.kinds)
    resolve = list(range(n))
    if not inject:
        # plain single-row senses are exact copies: alias them away
        for vid in range(n):
            if low.kinds[vid] == _K_SENSE and low.ops[vid] is None:
                resolve[vid] = resolve[low.srcs[vid][0]]

    slots: dict[int, int] = {}
    levels = [0] * n
    groups: dict[tuple, list[tuple[int, list[int]]]] = {}
    order: dict[tuple, int] = {}
    for vid in range(n):
        kind = low.kinds[vid]
        if kind in (_K_INPUT, _K_CONST):
            slots[vid] = len(slots)
            continue
        if resolve[vid] != vid:
            levels[vid] = levels[resolve[vid]]
            continue
        src_reps = [resolve[s] for s in low.srcs[vid]]
        levels[vid] = 1 + max(levels[r] for r in src_reps)
        slots[vid] = len(slots)
        op = low.ops[vid]
        key = (levels[vid], kind,
               op.value if op is not None else None, low.ks[vid])
        order.setdefault(key, len(order))
        groups.setdefault(key, []).append((vid, src_reps))

    steps: list[_Step] = []
    pos = 0
    for key in sorted(groups, key=lambda k: (k[0], order[k])):
        level, kind, op_name, k = key
        members = groups[key]
        op = OpType(op_name) if op_name is not None else None
        dst = np.array([slots[vid] for vid, _ in members], dtype=np.intp)
        if k <= 1:
            src = np.array([slots[reps[0]] for _, reps in members],
                           dtype=np.intp)
        else:
            src = np.array([[slots[reps[i]] for _, reps in members]
                            for i in range(k)], dtype=np.intp)
        sense = kind == _K_SENSE
        invert = kind == _K_NOT or (sense and op is not None
                                    and op.is_inverted)
        step = _Step(op=op, k=k, sense=sense, dst=dst, src=src,
                     invert=invert)
        if sense and inject:
            step.p = (cached_p_df(tech, OpType.NOT, 1) if op is None
                      else cached_p_df(tech, op, k))
            step.pos = pos
            pos += len(dst)
        steps.append(step)

    by_p: dict[float, list[int]] = {}
    for step in steps:
        if step.sense and 0.0 < step.p < 1.0:
            by_p.setdefault(step.p, []).extend(
                range(step.pos, step.pos + len(step.dst)))

    writes = [(entry.logical, slots[resolve[entry.vid]])
              for entry in low.writes]
    faulty = []
    clean = writes
    if low.fault_map:
        fault_at = low.fault_map.fault_at
        faulty = [w for w in writes if fault_at(*w[0]) is not None]
        if faulty:
            clean = [w for w in writes if fault_at(*w[0]) is None]
    return _Plan(
        n_slots=len(slots),
        inputs={name: slots[vid] for name, vid in low.input_ids.items()},
        consts=[(slots[vid], ones)
                for ones, vid in low.const_ids.items()],
        steps=steps,
        outputs={name: slots[resolve[vid]]
                 for name, vid in low.outputs.items()},
        writes=writes,
        n_positions=pos,
        p_groups=[(p, np.array(members, dtype=np.int64))
                  for p, members in by_p.items()],
        faulty_writes=faulty,
        clean_writes=clean)


# ----------------------------------------------------------------------
# runtime
# ----------------------------------------------------------------------
class VectorMachine:
    """Counter surface of one vectorized run (mirrors ``ArrayMachine``).

    Holds the same accounting an interpreted machine would after the
    equivalent run: injected lane flips, verify-after-write counters,
    discovered faults, installed remaps and per-cell write counts — the
    fields the differential test suite compares bit-for-bit on
    deterministic runs.
    """

    def __init__(self, lanes: int) -> None:
        if lanes < 1:
            raise SimulationError(
                f"lane count must be positive, got {lanes}")
        self.lanes = lanes
        self.injected_faults = 0
        #: per-trial injected flip counts of the latest batched run
        self.trial_faults: np.ndarray | None = None
        self.writes_verified = 0
        self.write_retries_used = 0
        self.write_failures_injected = 0
        self.discovered_faults = FaultMap()
        self.remaps: list[tuple[tuple[int, int, int],
                                tuple[int, int, int]]] = []
        self.write_counts: dict[tuple[int, int, int], int] = {}


def _generator_of(fault_rng) -> np.random.Generator:
    """A numpy Philox generator from any accepted ``fault_rng`` form."""
    if isinstance(fault_rng, np.random.Generator):
        return fault_rng
    if isinstance(fault_rng, random.Random):
        return np.random.Generator(np.random.Philox(fault_rng.getrandbits(64)))
    return np.random.Generator(np.random.Philox(int(fault_rng)))


def _scalar_rng_of(fault_rng) -> random.Random:
    """A Python RNG (for the write-verify pass) from ``fault_rng``."""
    if isinstance(fault_rng, random.Random):
        return fault_rng
    if isinstance(fault_rng, np.random.Generator):
        return random.Random(int(fault_rng.integers(0, 2**63)))
    return random.Random(int(fault_rng))


def _sample_flips(p_groups, gens, lanes: int):
    """Draw the sense flips of a batch, one generator per trial, sparsely.

    A group's cells are its flip positions × ``lanes``.  Per trial, one
    Binomial(cells, p) count per group, then that many distinct cells of
    the group uniformly: the law of an independent Bernoulli(p) per cell
    in O(flips) draws.  Returns the per-trial counts and, when any flip
    was drawn, the flips as ``(position, trial, word, bit)`` arrays sorted
    by position.
    """
    counts = np.zeros(len(gens), dtype=np.int64)
    # scalar draws: one array-valued binomial call costs several of them
    groups = [(len(positions) * lanes, p, positions)
              for p, positions in p_groups]
    parts = []
    for t, gen in enumerate(gens):
        for size, p, positions in groups:
            n = gen.binomial(size, p)
            if n:
                counts[t] += n
                cells = gen.choice(size, n, replace=False)
                parts.append((positions[cells // lanes], np.full(n, t),
                              cells % lanes))
    if not parts:
        return counts, None
    pos, trial, lane = (np.concatenate(column) for column in zip(*parts))
    order = np.argsort(pos)
    lane = lane[order]
    return counts, (pos[order], trial[order], lane >> 6,
                    np.left_shift(np.uint64(1), (lane & 63).astype(np.uint64)))


class VectorProgram:
    """A compiled program lowered to the vectorized op-table, ready to run.

    The lowering is a function of the program's instructions, layout,
    verify flag and the content of its fault map when lowered (a private
    copy of that map drives the write ladder too); it keeps no reference
    to the program.  :func:`vector_program` caches one per verify flag on
    the program, so the lowering cost is paid once per map content and
    amortized over every later execution and batch.
    """

    def __init__(self, program, verify_writes: bool = False) -> None:
        self.verify = verify_writes
        self.target = program.target
        self.tech = program.target.technology
        self.write_retries = program.config.write_retries
        self.fault_map = (program.fault_map.copy()
                          if program.fault_map is not None else None)
        #: the remap spares of :meth:`CompiledProgram.machine` (staged
        #: programs get none)
        self.spare_pool = (program.spare_pool
                           if verify_writes and program.stages is None
                           else None)
        self._low = _lower(program, self.fault_map, verify_writes)
        self._plans: dict[bool, _Plan] = {}

    def plan(self, inject: bool) -> _Plan:
        """The executable schedule, with or without fault injection."""
        plan = self._plans.get(inject)
        if plan is None:
            plan = _build_plan(self._low, self.tech, inject)
            self._plans[inject] = plan
        return plan

    # ------------------------------------------------------------------
    def _check_inputs(self, inputs) -> None:
        for names in self._low.input_checks:
            missing = names - set(inputs)
            if missing:
                raise SimulationError(
                    f"missing input values: {sorted(missing)}")
        for out_name, in_name in self._low.passthrough_checks:
            if in_name not in inputs:
                raise SimulationError(
                    f"missing input value for passthrough output "
                    f"{out_name!r}")

    def run_packed(self, packed: dict[str, np.ndarray], batch: int,
                   lanes: int, machine: VectorMachine,
                   gens: list[np.random.Generator] | None = None,
                   scalar_rng: random.Random | None = None,
                   ) -> dict[str, np.ndarray]:
        """Execute the op-table over pre-packed ``(B, W)`` input words.

        ``gens`` (one Philox generator per batch element) turns on sense
        fault injection; ``scalar_rng`` drives transient write-failure
        injection on the verify path.  Returns packed output words.
        """
        if lanes < 1:
            raise SimulationError(
                f"lane count must be positive, got {lanes}")
        inject = gens is not None
        plan = self.plan(inject)
        maskw = mask_words(lanes)
        width = maskw.shape[0]
        values = np.empty((plan.n_slots, batch, width), dtype=np.uint64)
        for slot, ones in plan.consts:
            values[slot] = maskw if ones else 0
        for name, slot in plan.inputs.items():
            values[slot] = packed[name]

        flips = None
        if inject:
            counts, flips = _sample_flips(plan.p_groups, gens, lanes)
            counts += lanes * sum(len(step.dst) for step in plan.steps
                                  if step.p >= 1.0)
            machine.trial_faults = counts
            machine.injected_faults += int(counts.sum())

        for step in plan.steps:
            if step.k <= 1:
                result = values[step.src]
            else:
                srcv = values[step.src]
                base = step.op.base
                if step.k == 2:
                    if base is OpType.AND:
                        result = srcv[0] & srcv[1]
                    elif base is OpType.OR:
                        result = srcv[0] | srcv[1]
                    else:
                        result = srcv[0] ^ srcv[1]
                elif base is OpType.AND:
                    result = np.bitwise_and.reduce(srcv, axis=0)
                elif base is OpType.OR:
                    result = np.bitwise_or.reduce(srcv, axis=0)
                else:
                    result = np.bitwise_xor.reduce(srcv, axis=0)
            if step.invert:
                result = result ^ maskw
            if step.p >= 1.0:  # only injecting plans price their senses
                result ^= maskw
            elif flips is not None and step.sense:
                pos, trial, word, bit = flips
                lo, hi = np.searchsorted(pos, (step.pos,
                                               step.pos + len(step.dst)))
                if hi > lo:
                    np.bitwise_xor.at(result, (pos[lo:hi] - step.pos,
                                               trial[lo:hi], word[lo:hi]),
                                      bit[lo:hi])
            values[step.dst] = result

        if self.verify:
            self._run_writes(plan, values, lanes, machine, scalar_rng)
        else:
            _count_writes(machine, plan.writes)
        return {name: values[slot] for name, slot in plan.outputs.items()}

    # ------------------------------------------------------------------
    def _run_writes(self, plan: _Plan, values: np.ndarray, lanes: int,
                    machine: VectorMachine,
                    scalar_rng: random.Random | None) -> None:
        """Verify every write of a batch-of-1 run, in program order.

        Without transient write failures only a faulty target can
        escalate (a remap target is a healthy spare), so every other write
        verifies clean on its first read-back and is bulk-counted.  The
        writes that may escalate run through the interpreter's ladder.
        """
        inject = (scalar_rng is not None
                  and self.tech.write_failure_probability > 0.0)
        if not inject:
            machine.writes_verified += len(plan.clean_writes)
            _count_writes(machine, plan.clean_writes)
        ladder_writes = plan.writes if inject else plan.faulty_writes
        if not ladder_writes:
            return
        ladder = ArrayMachine(self.target, lanes,
                              scalar_rng if inject else None,
                              fault_map=self.fault_map, verify_writes=True,
                              write_retries=self.write_retries,
                              spare_pool=self.spare_pool)
        ladder.write_counts = machine.write_counts
        for (array, row, col), slot in ladder_writes:
            ladder.commit(array, row, col,
                          unpack_values(values[slot], lanes)[0])
        machine.writes_verified += ladder.writes_verified
        machine.write_retries_used += ladder.write_retries_used
        machine.write_failures_injected += ladder.write_failures_injected
        machine.discovered_faults.merge(ladder.discovered_faults)
        machine.remaps.extend(ladder.remaps)


def _count_writes(machine: VectorMachine, writes) -> None:
    """Count one write per ``(cell, slot)`` entry that cannot escalate."""
    counts = machine.write_counts
    for cell, _ in writes:
        counts[cell] = counts.get(cell, 0) + 1


def vector_program(program, verify_writes: bool = False) -> VectorProgram:
    """The (cached) vectorized lowering of a compiled program.

    One lowering per verify flag is cached on the program instance and
    reused — by repeated executions, batches and campaign shards — while
    the program's ``fault_map`` is the same object at the same
    :attr:`~repro.devices.FaultMap.version`.  Replacing the map or editing
    it in place lowers afresh, so a run always bakes the current map.
    """
    fault_map = program.fault_map
    version = None if fault_map is None else fault_map.version
    cache = program.__dict__.setdefault("_vector_cache", {})
    cached = cache.get(verify_writes)
    if (cached is None or cached[0] is not fault_map
            or cached[1] != version):
        cached = cache[verify_writes] = (
            fault_map, version, VectorProgram(program, verify_writes))
    return cached[2]


# ----------------------------------------------------------------------
# public execution entry points
# ----------------------------------------------------------------------
def _pack_inputs(plan: _Plan, input_sets, lanes: int) -> dict[str, np.ndarray]:
    return {name: pack_values([s[name] for s in input_sets], lanes)
            for name in plan.inputs}


def execute(program, inputs: dict[str, int], lanes: int = 64,
            fault_rng=None, verify_writes: bool = False,
            machine: VectorMachine | None = None) -> dict[str, int]:
    """Execute one input set on the vectorized backend.

    Mirrors :meth:`CompiledProgram.execute` semantics (minus sense
    observers, which need the interpreted machine).  ``fault_rng`` may
    be an int seed, a :class:`random.Random` or a numpy ``Generator``;
    the injected-fault *distribution* matches the interpreter but the
    draw stream is the vectorized backend's own.  Pass a ``machine`` to
    read back the run's counters.
    """
    vp = vector_program(program, verify_writes)
    vp._check_inputs(inputs)
    machine = machine if machine is not None else VectorMachine(lanes)
    gens = None
    scalar = None
    if fault_rng is not None:
        scalar = _scalar_rng_of(fault_rng) if verify_writes else None
        gens = [_generator_of(fault_rng)]
    packed = _pack_inputs(vp.plan(gens is not None), [inputs], lanes)
    out = vp.run_packed(packed, 1, lanes, machine, gens=gens,
                        scalar_rng=scalar)
    return {name: unpack_values(words, lanes)[0]
            for name, words in out.items()}


def execute_many(program, input_sets, lanes: int = 64,
                 chunk: int = 256) -> list[dict[str, int]]:
    """Stream many independent input sets through one lowered program.

    The program is lowered once (and the lowering is cached on the
    program instance); input sets run through the op-table in
    memory-bounded chunks of ``chunk`` sets.  Equivalent to calling
    :func:`execute` per set, just much faster.
    """
    if chunk < 1:
        raise SimulationError(f"chunk size must be positive, got {chunk}")
    vp = vector_program(program, False)
    sets = list(input_sets)
    results: list[dict[str, int]] = []
    for start in range(0, len(sets), chunk):
        block = sets[start:start + chunk]
        for inputs in block:
            vp._check_inputs(inputs)
        machine = VectorMachine(lanes)
        packed = _pack_inputs(vp.plan(False), block, lanes)
        out = vp.run_packed(packed, len(block), lanes, machine)
        unpacked = {name: unpack_values(words, lanes)
                    for name, words in out.items()}
        results.extend({name: unpacked[name][i] for name in unpacked}
                       for i in range(len(block)))
    return results


def _eval_packed(dag, packed: dict[str, np.ndarray],
                 lanes: int) -> dict[str, np.ndarray]:
    """Reference DAG evaluation over packed words (batched `evaluate`)."""
    from repro.dfg.graph import OperandKind

    maskw = mask_words(lanes)
    values: dict[int, np.ndarray] = {}
    for operand in dag.operand_nodes():
        if operand.kind is OperandKind.INPUT:
            values[operand.node_id] = packed[operand.name]
        elif operand.kind is OperandKind.CONST:
            base = packed[next(iter(packed))] if packed else None
            shape = (base.shape[0] if base is not None else 1,
                     maskw.shape[0])
            values[operand.node_id] = (
                np.broadcast_to(maskw if operand.const_value else
                                np.zeros_like(maskw), shape))
    for op_id in dag.topological_ops():
        node = dag.op(op_id)
        vals = [values[oid] for oid in node.operands]
        op = node.op
        if op is OpType.NOT:
            acc = vals[0] ^ maskw
        else:
            acc = vals[0]
            if op.base is OpType.AND:
                for v in vals[1:]:
                    acc = acc & v
            elif op.base is OpType.OR:
                for v in vals[1:]:
                    acc = acc | v
            else:
                for v in vals[1:]:
                    acc = acc ^ v
            if op.is_inverted:
                acc = acc ^ maskw
        values[node.result] = acc
    return {name: values[oid] for name, oid in dag.outputs.items()}


def campaign_trials(program, input_sets, rng_keys, lanes: int,
                    chunk: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Batched fault-injection trials for the campaign fast path.

    ``input_sets`` and ``rng_keys`` are parallel per-trial lists; each
    trial draws its sense flips from a Philox stream keyed by its own
    ``rng_keys`` entry, so results are independent of chunking *and* of
    how a campaign sharded the trial range.  Returns per-trial arrays:
    injected flip counts, and whether the trial's outputs mismatched the
    reference DAG evaluation.
    """
    vp = vector_program(program, False)
    sets = list(input_sets)
    keys = list(rng_keys)
    flips = np.zeros(len(sets), dtype=np.int64)
    mismatch = np.zeros(len(sets), dtype=bool)
    source_names = [o.name for o in program.source_dag.inputs()]
    for start in range(0, len(sets), chunk):
        block = sets[start:start + chunk]
        for inputs in block:
            vp._check_inputs(inputs)
        machine = VectorMachine(lanes)
        packed = {name: pack_values([s[name] for s in block], lanes)
                  for name in set(source_names) | set(vp.plan(True).inputs)}
        gens = [np.random.Generator(np.random.Philox(key))
                for key in keys[start:start + chunk]]
        out = vp.run_packed(packed, len(block), lanes, machine, gens=gens)
        flips[start:start + len(block)] = machine.trial_faults
        expected = _eval_packed(program.source_dag, packed, lanes)
        bad = np.zeros(len(block), dtype=bool)
        for name, words in expected.items():
            bad |= (out[name] != words).any(axis=1)
        mismatch[start:start + len(block)] = bad
    return flips, mismatch
