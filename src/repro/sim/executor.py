"""Functional execution of CIM instruction traces.

This is the correctness half of our gem5 substitute: it implements the exact
semantics of the ISA on a lane-parallel array model, so a compiled program
can be cross-checked against the reference evaluation of its source DAG.

Lane values are Python integers used as bitmasks (lane ``i`` = bit ``i``),
which keeps the machine exact for any lane count.  The *simulated* lane
count may be much smaller than the target's modeled data width: timing and
energy are lane-agnostic (lanes run in lockstep), so simulating 64 lanes
verifies the same program the cost model prices at 4096 lanes.

Decision failures can be injected: each CIM column-op flips sensed lanes
with the technology's ``P_DF``, letting tests observe the reliability model
end to end.  A :class:`SenseObserver` hook (see
:mod:`repro.reliability.recovery`) can intercept every sensed column value
to re-sense, vote, or degrade — the detect-and-recover half of the fault
model.

The machine also tracks which row-buffer columns hold *live* data — the
columns deposited by the most recent ``read`` into (or ``xfer`` to) each
array.  Columns surviving from before that are stale garbage a correct
program never consumes; shifting them off the array edge is harmless and
happens all the time in real schedules.  Shifting a *live* column off the
edge, however, silently destroys data the program just sensed, so in
``strict_shift`` mode (the default for compiled-program execution) it
raises :class:`SimulationError` instead.

Hard faults compose with all of the above.  A :class:`FaultMap` gives
cells a permanent stuck-at-0/1 or dead state: every sense of a faulty cell
returns its forced value (deterministically — unlike the Gaussian decision
failures), and writes to it silently bounce.  With ``verify_writes`` the
machine implements **verify-after-write**: every programmed cell is read
back, transient write failures (``Technology.write_failure_probability``)
are retried up to ``write_retries`` times, and a cell that keeps failing
is treated as newly dead — recorded in ``discovered_faults`` and remapped
to a healthy spare cell of the same column (``spare_pool``), transparently
redirecting every later access.  When retries and spares are both
exhausted the machine raises :class:`repro.errors.HardFaultError` naming
the cell, which the compiler's ``remap`` ladder rung turns into a
recompilation around the discovered faults.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial, reduce
from operator import and_, or_, xor
from typing import Protocol

from repro.arch.isa import (
    Instruction,
    NotInst,
    ReadInst,
    ShiftInst,
    TransferInst,
    WriteInst,
)
from repro.arch.layout import CellAddr, Layout
from repro.arch.target import TargetSpec
from repro.devices.faultmap import FaultMap
from repro.dfg.ops import OpType
from repro.errors import HardFaultError, SimulationError
from repro.sim.metrics import cached_p_df


class SenseObserver(Protocol):
    """Hook interception point for every sensed CIM column value.

    Recovery policies (:mod:`repro.reliability.recovery`) implement this to
    re-sense, majority-vote, or degrade a read.  ``resense`` redoes the same
    sensing operation with fresh fault draws; ``values`` are the true cell
    contents the sense combined (``op is None`` for plain single-row reads).
    """

    def on_sense(self, machine: "ArrayMachine", op: OpType | None, k: int,
                 values: list[int], result: int, resense) -> int:
        """Return the value to deposit in the row buffer for this column."""
        ...


#: marks a read loop that has not resolved its first column's op yet
_UNRESOLVED = object()

#: per-op sense kernels of the read loop.  ``ReadInst`` already guarantees
#: a CIM op senses at least two rows and is never NOT, so the arity check
#: of :func:`repro.dfg.ops.apply_op` is not repeated per column.
_SENSE_KERNELS = {
    OpType.AND: lambda values, mask: reduce(and_, values) & mask,
    OpType.OR: lambda values, mask: reduce(or_, values) & mask,
    OpType.XOR: lambda values, mask: reduce(xor, values) & mask,
    OpType.NAND: lambda values, mask: ~reduce(and_, values) & mask,
    OpType.NOR: lambda values, mask: ~reduce(or_, values) & mask,
    OpType.XNOR: lambda values, mask: ~reduce(xor, values) & mask,
}


@dataclass
class MachineState:
    """A restorable snapshot of one :class:`ArrayMachine` (checkpoint)."""

    cells: dict[tuple[int, int, int], int]
    rowbuf: dict[int, dict[int, int]]
    live: dict[int, set[int]]
    write_counts: dict[tuple[int, int, int], int]


class ArrayMachine:
    """Functional model of the CIM arrays plus their row buffers."""

    def __init__(self, target: TargetSpec, lanes: int = 64,
                 fault_rng: random.Random | int | None = None,
                 strict_shift: bool = False,
                 observer: SenseObserver | None = None,
                 fault_map: FaultMap | None = None,
                 verify_writes: bool = False,
                 write_retries: int = 2,
                 spare_pool: list[CellAddr] | None = None) -> None:
        if lanes < 1:
            raise SimulationError(f"lane count must be positive, got {lanes}")
        if write_retries < 0:
            raise SimulationError(
                f"write_retries must be non-negative, got {write_retries}")
        self.target = target
        self.lanes = lanes
        self.mask = (1 << lanes) - 1
        # an int is taken as a seed for a private stream: call sites that
        # cross a process boundary (parallel campaigns, bench workers) pass
        # plain seeds instead of sharing one mutable RNG object
        if isinstance(fault_rng, int):
            fault_rng = random.Random(fault_rng)
        self.fault_rng = fault_rng
        self.strict_shift = strict_shift
        #: recovery hook consulted after every sensed column (may be None)
        self.observer = observer
        self.injected_faults = 0
        #: known permanent faults (manufacturing map / wear); forced on sense
        self.fault_map = fault_map
        #: verify-after-write: read every programmed cell back and escalate
        self.verify_writes = verify_writes
        #: re-write attempts before a failing cell is declared dead
        self.write_retries = write_retries
        #: hard faults diagnosed by verify-after-write *during this run*
        self.discovered_faults = FaultMap()
        #: logical -> physical cell redirections installed by remapping
        self.remaps: list[tuple[tuple[int, int, int], tuple[int, int, int]]] = []
        self._remap: dict[tuple[int, int, int], tuple[int, int, int]] = {}
        #: spare rows per (array, col) available for remapping, ordered
        self._spares: dict[tuple[int, int], list[int]] = {}
        for addr in spare_pool or []:
            self._spares.setdefault((addr.array, addr.col), []).append(addr.row)
        for rows in self._spares.values():
            rows.sort()
        # transient write failures are only injected on the verify path:
        # without read-back a flipped write would silently corrupt the
        # functional result, and keeping the unverified path draw-free
        # preserves the RNG stream of existing seeded campaigns exactly
        self._inject_write_failures = (
            verify_writes and self.fault_rng is not None
            and target.technology.write_failure_probability > 0.0)
        self.write_failures_injected = 0
        self.writes_verified = 0
        self.write_retries_used = 0
        #: ``log(1 - P_DF)`` per sensed ``(op, k)``, filled on first use
        self._log_keep: dict[tuple[OpType | None, int], float] = {}
        self._cells: dict[tuple[int, int, int], int] = {}  # (array,row,col) -> lanes
        self._rowbuf: dict[int, dict[int, int]] = {}  # array -> col -> lanes
        #: per-array set of row-buffer columns holding live (unconsumed) data
        self._live: dict[int, set[int]] = {}
        #: number of writes each (array, row, col) cell received during the
        #: run — the wear input of :func:`repro.sim.endurance.wear_from_counts`
        self.write_counts: dict[tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # cell access
    # ------------------------------------------------------------------
    def _check_addr(self, array: int, row: int, col: int) -> None:
        t = self.target
        if not (0 <= array < t.num_arrays and 0 <= row < t.rows and 0 <= col < t.cols):
            raise SimulationError(
                f"address (array={array}, row={row}, col={col}) outside "
                f"target {t.num_arrays}x{t.rows}x{t.cols}")

    def _phys(self, key: tuple[int, int, int]) -> tuple[int, int, int]:
        """Translate a logical cell through the remap table (identity-fast)."""
        if self._remap:
            return self._remap.get(key, key)
        return key

    def _cell_fault(self, key: tuple[int, int, int]):
        """The permanent fault of a *physical* cell, or ``None`` if healthy."""
        if self.fault_map is not None:
            fault = self.fault_map.fault_at(*key)
            if fault is not None:
                return fault
        if self.discovered_faults:
            return self.discovered_faults.fault_at(*key)
        return None

    def _forcing(self) -> bool:
        """Whether any cell access may be remapped or fault-forced."""
        return bool(self.fault_map or self.discovered_faults or self._remap)

    def _forced_load(self, key: tuple[int, int, int]) -> int:
        """Cell contents as the sense amp sees them: remapped, fault-forced.

        Raises ``KeyError`` for a cell that was never written; callers
        turn that into the addressed :class:`SimulationError`.
        """
        key = self._phys(key)
        fault = self._cell_fault(key)
        if fault is not None:
            return fault.forced_value(self.mask)
        return self._cells[key]

    def _in_bounds(self, array: int, rows, cols) -> bool:
        """Whether every ``(row, col)`` of one instruction is on the target."""
        t = self.target
        return (0 <= array < t.num_arrays and 0 <= min(rows)
                and max(rows) < t.rows and 0 <= min(cols)
                and max(cols) < t.cols)

    def poke(self, addr: CellAddr, value: int) -> None:
        """Directly set a cell (used to preload resident input data).

        Pokes follow remapping and bounce off faulty cells exactly like
        programmed writes (minus verify): preloading an input onto a stuck
        cell cannot un-stick it.
        """
        self._check_addr(addr.array, addr.row, addr.col)
        key = self._phys((addr.array, addr.row, addr.col))
        if self._cell_fault(key) is None:
            self._cells[key] = value & self.mask

    def peek(self, addr: CellAddr) -> int:
        """Directly observe a cell (remapped and fault-forced like a sense)."""
        self._check_addr(addr.array, addr.row, addr.col)
        try:
            return self._forced_load((addr.array, addr.row, addr.col))
        except KeyError:
            raise SimulationError(
                f"cell (array={addr.array}, row={addr.row}, col={addr.col}) "
                "was never written") from None

    def rowbuf(self, array: int) -> dict[int, int]:
        """Snapshot of an array's row-buffer contents (col -> lanes)."""
        return dict(self._rowbuf.get(array, {}))

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> MachineState:
        """Copy the full machine state (cells, row buffers, liveness, wear).

        Fault accounting (``injected_faults``, ``discovered_faults``, the
        remap table and the spare pool) is *not* part of the snapshot: those
        model permanent physical facts and controller tables, so a rollback
        replaying a write to a remapped cell lands on its spare instead of
        re-diagnosing the dead cell and burning a second spare.
        """
        return MachineState(
            cells=dict(self._cells),
            rowbuf={a: dict(b) for a, b in self._rowbuf.items()},
            live={a: set(s) for a, s in self._live.items()},
            write_counts=dict(self.write_counts))

    def restore(self, state: MachineState) -> None:
        """Roll the machine back to a :meth:`snapshot`."""
        self._cells = dict(state.cells)
        self._rowbuf = {a: dict(b) for a, b in state.rowbuf.items()}
        self._live = {a: set(s) for a, s in state.live.items()}
        self.write_counts = dict(state.write_counts)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, instructions: list[Instruction]) -> None:
        """Execute a whole instruction trace in order."""
        for inst in instructions:
            self.execute(inst)

    def execute(self, inst: Instruction) -> None:
        """Execute one instruction."""
        try:
            handler = self._HANDLERS[type(inst)]
        except KeyError:
            raise SimulationError(f"unknown instruction {inst!r}") from None
        handler(self, inst)

    def _read(self, inst: ReadInst) -> None:
        array, rows, cols, ops = inst.array, inst.rows, inst.cols, inst.ops
        if not self._in_bounds(array, rows, cols):
            self._raise_read_error(inst)
        load = self._forced_load if self._forcing() else self._cells.__getitem__
        buf = self._rowbuf.setdefault(array, {})
        mask = self.mask
        flip = None if self.fault_rng is None else self._flip
        observer = self.observer
        k = len(rows)
        kernel = log_keep = None
        last_op = _UNRESOLVED
        try:
            for idx, col in enumerate(cols):
                values = [load((array, row, col)) for row in rows]
                op = None if ops is None else ops[idx]
                if op is not last_op:  # a read's columns mostly share an op
                    last_op = op
                    kernel = None if op is None else _SENSE_KERNELS[op]
                    if flip is not None:
                        log_keep = self._log_keep_of(op, k)
                true_value = values[0] if kernel is None else kernel(values, mask)
                result = true_value if flip is None else flip(true_value, log_keep)
                if observer is not None:
                    # a re-sense is another (possibly faulty) sensing of
                    # the same column, drawing fresh faults
                    resense = (partial(flip, true_value, log_keep)
                               if flip is not None
                               else partial(_identity, true_value))
                    result = observer.on_sense(self, op, k, values, result,
                                               resense)
                buf[col] = result
        except KeyError:
            self._raise_read_error(inst)
            raise
        self._live[array] = set(cols)

    def _raise_read_error(self, inst: ReadInst) -> None:
        """Raise the first per-cell error of a read, in execution order.

        The read loop checks bounds once per instruction and lets a missing
        cell surface as ``KeyError``; this re-walk names the exact cell.
        """
        array = inst.array
        for col in inst.cols:
            for row in inst.rows:
                self._check_addr(array, row, col)
                try:
                    self._forced_load((array, row, col))
                except KeyError:
                    raise SimulationError(
                        f"read of uninitialized cell (array={array}, "
                        f"row={row}, col={col})") from None

    def _log_keep_of(self, op: OpType | None, k: int) -> float:
        """``log(1 - P_DF)`` of one sense, memoized per ``(op, k)``.

        ``0.0`` means the sense never flips, ``-inf`` that it always does.
        """
        try:
            return self._log_keep[op, k]
        except KeyError:
            pass
        tech = self.target.technology
        if op is None:
            p = cached_p_df(tech, OpType.NOT, 1)
        else:
            p = cached_p_df(tech, op, k)
        if p <= 0.0:
            log_keep = 0.0
        elif p >= 1.0:
            log_keep = -math.inf
        else:
            log_keep = math.log1p(-p)
        self._log_keep[op, k] = log_keep
        return log_keep

    def _inject(self, value: int, op: OpType | None, k: int) -> int:
        """Flip sensed lanes with the per-lane decision-failure probability."""
        return self._flip(value, self._log_keep_of(op, k))

    def _flip(self, value: int, log_keep: float) -> int:
        """Flip lanes of one sensed value, each with ``1 - exp(log_keep)``.

        Flip positions are drawn with geometric gap sampling — the lane index
        jumps ahead by a Geometric(p) stride per flip — which is distribution-
        identical to the per-lane Bernoulli scan but runs in O(expected
        flips + 1) instead of O(lanes), keeping large-lane Monte-Carlo
        campaigns fast.
        """
        if log_keep == 0.0:
            return value
        if log_keep == -math.inf:
            self.injected_faults += self.lanes
            return value ^ self.mask
        draw = self.fault_rng.random
        log = math.log
        lanes = self.lanes
        lane = 0
        flips = 0
        while True:
            # u in (0, 1]: the gap to the next flipped lane is Geometric(p)
            u = 1.0 - draw()
            lane += int(log(u) / log_keep)
            if lane >= lanes:
                break
            value ^= 1 << lane
            flips += 1
            lane += 1
        self.injected_faults += flips
        return value

    def _write(self, inst: WriteInst) -> None:
        array, row, cols = inst.array, inst.row, inst.cols
        buf = self._rowbuf.get(array, {})
        if not self._in_bounds(array, (row,), cols):
            # name the first failing column exactly as a per-cell walk would
            for col in cols:
                self._check_addr(array, row, col)
                if col not in buf:
                    raise _empty_write(array, col)
        # plain cells are stored inline; anything that may verify, remap or
        # bounce off a fault goes through the full commit ladder
        commit = (self.commit if self.verify_writes or self._forcing()
                  else None)
        cells, counts = self._cells, self.write_counts
        for col in cols:
            if col not in buf:
                raise _empty_write(array, col)
            if commit is None:
                key = (array, row, col)
                cells[key] = buf[col]
                counts[key] = counts.get(key, 0) + 1
            else:
                commit(array, row, col, buf[col])

    def _attempt_store(self, key: tuple[int, int, int], value: int) -> None:
        """One write pulse: may transiently corrupt, bounces off faulty cells.

        A transient miss stores the lane-complement of the intended value —
        the worst case for read-back, guaranteeing the verify loop sees
        every injected failure (a partial flip would be caught the same
        way; the complement just makes tests exact).
        """
        if (self._inject_write_failures and self.fault_rng.random()
                < self.target.technology.write_failure_probability):
            value = ~value & self.mask
            self.write_failures_injected += 1
        if self._cell_fault(key) is None:
            self._cells[key] = value
        self.write_counts[key] = self.write_counts.get(key, 0) + 1

    def _readback(self, key: tuple[int, int, int]) -> int:
        """Verify read of a just-written physical cell (fault-forced).

        Modeled as the exact margin read of a program-and-verify loop, so it
        is deterministic — decision failures apply to CIM senses, not to the
        controller's verify circuit.
        """
        fault = self._cell_fault(key)
        if fault is not None:
            return fault.forced_value(self.mask)
        return self._cells.get(key, 0)

    def _next_spare(self, array: int, col: int) -> tuple[int, int, int] | None:
        """Pop the next healthy spare cell in the same array column."""
        rows = self._spares.get((array, col), [])
        while rows:
            key = (array, rows.pop(0), col)
            if self._cell_fault(key) is None:
                return key
        return None

    def commit(self, array: int, row: int, col: int, value: int) -> None:
        """Program one cell, with verify-after-write escalation when enabled.

        The ladder: write → read back → retry up to ``write_retries`` →
        declare the cell dead (``discovered_faults``) and remap to a spare
        of the same column → raise :class:`HardFaultError` when the spare
        pool is dry.  A stuck cell whose forced value happens to equal the
        written value verifies clean — the data is correct, which is all
        verify-after-write can (or needs to) observe.  The vectorized
        engine sends every write that may escalate through this method
        too, so both engines share one ladder.
        """
        logical = (array, row, col)
        attempts = 0
        total_attempts = 0
        spares_tried = 0
        while True:
            key = self._phys(logical)
            self._attempt_store(key, value)
            attempts += 1
            total_attempts += 1
            if not self.verify_writes:
                return
            self.writes_verified += 1
            if self._readback(key) == value:
                return
            if attempts <= self.write_retries:
                self.write_retries_used += 1
                continue
            # retries exhausted: the cell is bad beyond transient errors
            self.discovered_faults.mark_dead(*key)
            spare = self._next_spare(array, col)
            if spare is None:
                raise HardFaultError(
                    f"write to cell (array={array}, row={row}, col={col}) "
                    f"failed after {total_attempts} attempts and "
                    f"{spares_tried} spare cells; no healthy spare left in "
                    f"column {col} of array {array}",
                    cell=logical, physical_cell=key,
                    attempts=total_attempts, spares_tried=spares_tried)
            self._remap[logical] = spare
            self.remaps.append((logical, spare))
            spares_tried += 1
            attempts = 0

    def _shift(self, inst: ShiftInst) -> None:
        buf = self._rowbuf.get(inst.array, {})
        live = self._live.get(inst.array, set())
        shifted = {}
        shifted_live = set()
        for col, value in buf.items():
            new_col = col + inst.amount
            if 0 <= new_col < self.target.cols:
                shifted[new_col] = value
                if col in live:
                    shifted_live.add(new_col)
            elif self.strict_shift and col in live:
                raise SimulationError(
                    f"shift by {inst.amount} moves live row-buffer column "
                    f"{col} (array {inst.array}) outside [0, "
                    f"{self.target.cols}); the program would silently lose "
                    "sensed data")
        self._rowbuf[inst.array] = shifted
        self._live[inst.array] = shifted_live

    def _not(self, inst: NotInst) -> None:
        buf = self._rowbuf.get(inst.array, {})
        for col in inst.cols:
            if col not in buf:
                raise SimulationError(
                    f"NOT of empty row-buffer column {col} (array {inst.array})")
            buf[col] = ~buf[col] & self.mask

    def _transfer(self, inst: TransferInst) -> None:
        if not 0 <= inst.dst_array < self.target.num_arrays:
            raise SimulationError(
                f"xfer destination array {inst.dst_array} out of range for "
                f"target with {self.target.num_arrays} array(s)")
        src = self._rowbuf.get(inst.array, {})
        dst = self._rowbuf.setdefault(inst.dst_array, {})
        for col in inst.cols:
            if col not in src:
                raise SimulationError(
                    f"xfer from empty row-buffer column {col} "
                    f"(array {inst.array})")
            dst[col] = src[col]
        self._live[inst.dst_array] = set(inst.cols)

    #: instruction type -> handler, one lookup per executed instruction
    _HANDLERS = {ReadInst: _read, WriteInst: _write, ShiftInst: _shift,
                 NotInst: _not, TransferInst: _transfer}


def _empty_write(array: int, col: int) -> SimulationError:
    return SimulationError(
        f"write from empty row-buffer column {col} (array {array})")


def _identity(value: int) -> int:
    """The re-sense of a fault-free machine: the true column value."""
    return value


def preload_sources(machine: ArrayMachine, layout: Layout, dag,
                    inputs: dict[str, int],
                    only: set[str] | None = None) -> None:
    """Write resident input data and constants into their primary cells.

    In a CIM system the application data already lives in the arrays; the
    mapper chooses *where*.  Only the first (primary) copy is preloaded —
    every further copy is materialized by the program's own gather moves.

    ``only`` restricts the poked *inputs* to the named subset: a staged
    program's bridge instructions carry some boundary inputs in-array, and
    re-poking those would mask bridge bugs.  Constants are always poked,
    and every declared input must still have a value in ``inputs``.
    """
    from repro.dfg.graph import OperandKind  # local import to avoid cycles

    names = {o.name for o in dag.inputs()}
    missing = names - set(inputs)
    if missing:
        raise SimulationError(f"missing input values: {sorted(missing)}")
    for operand in dag.operand_nodes():
        if operand.kind is OperandKind.INPUT:
            if only is not None and operand.name not in only:
                continue
            value = inputs[operand.name]
        elif operand.kind is OperandKind.CONST:
            value = machine.mask if operand.const_value else 0
        else:
            continue
        if layout.is_placed(operand.node_id):
            machine.poke(layout.primary(operand.node_id), value & machine.mask)


def extract_outputs(machine: ArrayMachine, layout: Layout, dag) -> dict[str, int]:
    """Read the program outputs back from their primary cells.

    A missing output is reported by *name* and primary cell address, not as
    a bare uninitialized-cell error — the difference between "the program
    never computed ``out3``" and an anonymous address.
    """
    results = {}
    for name, oid in dag.outputs.items():
        addr = layout.primary(oid)
        try:
            results[name] = machine.peek(addr)
        except SimulationError:
            raise SimulationError(
                f"output {name!r} (operand {oid}) was never written to its "
                f"primary cell (array={addr.array}, row={addr.row}, "
                f"col={addr.col})") from None
    return results
