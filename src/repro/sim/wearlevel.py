"""Round-robin wear-leveling: rotate a compiled program across rows.

CIM write traffic is brutally uneven — every intermediate result lands in
the same few result rows of the same columns (see
:mod:`repro.sim.endurance`), so the hottest cell bounds the whole array's
lifetime while most cells stay pristine.  The classic fix is start-gap /
round-robin remapping: shift where data physically lives by a rotating
offset so the hot logical rows sweep across all physical rows over time.

Row rotation is a *bijection* ``row' = (row + offset) % rows`` applied
consistently to the layout's cell placements and to the row fields of
every read/write instruction, so the rotated program is semantically
identical to the original — no recompilation, no re-verification needed.
Only the *physical* wear pattern changes: over ``rows`` epochs every
physical row carries the hot logical row exactly once, multiplying the
executions-to-first-wear-out of the hottest cell by up to the rotation
period.

Permanent faults do NOT rotate — they are physical.  After changing the
offset, :func:`placement_conflicts` reports program cells that now sit on
faulty cells; a non-empty conflict list means this offset needs the
fault-aware recompile (``SherlockCompiler.remap``) instead of the free
rotation.  The lifetime campaign (:mod:`repro.reliability.lifetime`) walks
exactly that ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.isa import Instruction, ReadInst, WriteInst
from repro.arch.layout import CellAddr, Layout
from repro.errors import SimulationError
from repro.sim.executor import ArrayMachine

__all__ = [
    "RotatedProgram",
    "placement_conflicts",
    "rotate_cell",
    "rotate_instructions",
    "rotate_layout",
    "rotate_program",
]


def rotate_cell(addr: CellAddr, offset: int, rows: int) -> CellAddr:
    """One placement under the rotation bijection (same array and column)."""
    return CellAddr(addr.array, (addr.row + offset) % rows, addr.col)


def rotate_instructions(instructions: list[Instruction], offset: int,
                        rows: int) -> list[Instruction]:
    """The trace with every read/write row field rotated by ``offset``.

    Shift, NOT and transfer instructions act on row buffers, not rows, and
    pass through unchanged.  ``offset == 0`` still returns a fresh list.
    """
    if rows <= 0:
        raise SimulationError(f"row count must be positive, got {rows}")
    rotated: list[Instruction] = []
    for inst in instructions:
        if isinstance(inst, ReadInst):
            rotated.append(ReadInst(
                array=inst.array, cols=inst.cols,
                rows=tuple((r + offset) % rows for r in inst.rows),
                ops=inst.ops))
        elif isinstance(inst, WriteInst):
            rotated.append(WriteInst(
                array=inst.array, cols=inst.cols,
                row=(inst.row + offset) % rows))
        else:
            rotated.append(inst)
    return rotated


def rotate_layout(layout: Layout, offset: int) -> Layout:
    """An execution-view copy of the layout with rotated placements.

    The copy carries the operand-to-cell placements (what
    :func:`repro.sim.executor.preload_sources` and
    :func:`~repro.sim.executor.extract_outputs` need) and the fault map;
    its fill-line bookkeeping is deliberately left empty because rotated
    occupancy wraps around the row axis and cannot be expressed as two
    fill regions.  Do not place new operands into a rotated layout.
    """
    rows = layout.target.rows
    view = Layout(layout.target, fault_map=layout.fault_map)
    for oid, addrs in layout.placements().items():
        view._copies[oid] = [rotate_cell(a, offset, rows) for a in addrs]
    return view


def placement_conflicts(layout: Layout, fault_map) -> list[CellAddr]:
    """Placed cells that sit on faulty cells (rotation landed on a fault).

    ``fault_map`` is a :class:`repro.devices.FaultMap`; ``None`` or an
    empty map conflicts with nothing.  The result is deterministically
    sorted.
    """
    if not fault_map:
        return []
    conflicts = {
        addr
        for addrs in layout.placements().values()
        for addr in addrs
        if not fault_map.is_healthy(addr.array, addr.row, addr.col)}
    return sorted(conflicts, key=lambda a: (a.array, a.row, a.col))


@dataclass
class RotatedProgram:
    """A compiled program viewed through one wear-leveling offset.

    Semantically identical to ``base`` (rotation is a bijection); only the
    physical cells touched differ.  Build with :func:`rotate_program`.
    """

    base: object  # the CompiledProgram (kept untyped to avoid an import cycle)
    offset: int
    instructions: list[Instruction]
    layout: Layout
    #: healthy spare cells of the rotated footprint (same-column remapping)
    spare_pool: list[CellAddr]

    # the CompiledProgram surface the execution engines read, so a rotated
    # program runs anywhere the base program does
    @property
    def stages(self):
        """Always ``None``: staged programs cannot rotate."""
        return None

    @property
    def dag(self):
        """The base program's (transformed) data-flow graph."""
        return self.base.dag

    @property
    def target(self):
        """The base program's hardware target."""
        return self.base.target

    @property
    def fault_map(self):
        """The base program's persistent fault map."""
        return self.base.fault_map

    @property
    def config(self):
        """The base program's compiler configuration."""
        return self.base.config

    def machine(self, *args, **kwargs) -> ArrayMachine:
        """The base program's machine builder, with the rotated spare pool."""
        from repro.core.compiler import CompiledProgram

        return CompiledProgram.machine(self, *args, **kwargs)

    def execute(self, *args, **kwargs) -> dict[str, int]:
        """Functionally execute the rotated trace (the base program's run
        path and engine choice, :meth:`CompiledProgram.execute`)."""
        from repro.core.compiler import CompiledProgram

        return CompiledProgram.execute(self, *args, **kwargs)

    def conflicts(self) -> list[CellAddr]:
        """Rotated program cells colliding with the base fault map."""
        return placement_conflicts(self.layout, self.base.fault_map)


def rotate_program(program, offset: int) -> RotatedProgram:
    """Rotate a :class:`repro.core.compiler.CompiledProgram` by ``offset``.

    Staged (spill-and-partition) programs cannot rotate: their bridge
    instructions re-derive rows stage by stage, so rotating the combined
    trace would desynchronize them.  The lifetime campaign simply keeps
    staged programs at offset 0.
    """
    if getattr(program, "stages", None) is not None:
        raise SimulationError(
            "staged programs cannot be wear-level rotated; "
            "recompile unstaged or keep offset 0")
    rows = program.target.rows
    offset %= rows
    return RotatedProgram(
        base=program,
        offset=offset,
        instructions=rotate_instructions(program.instructions, offset, rows),
        layout=rotate_layout(program.layout, offset),
        spare_pool=[rotate_cell(a, offset, rows)
                    for a in program.layout.spare_cells()])
