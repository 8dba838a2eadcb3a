"""Instruction set of the CIM controller (Fig. 4 of the paper).

Four instruction kinds drive an array:

* ``read``   — activate one row (plain read) or several rows (scouting
  CIM op) and deposit the per-column result into the row buffer.  With
  selective columns, each selected column may compute a different op.
* ``write``  — program row-buffer bits at the selected columns into one row.
* ``shift``  — logically shift the row-buffer contents for column alignment.
* ``not``    — invert row-buffer bits at the selected columns (CMOS).
* ``xfer``   — copy row-buffer bits between two arrays over the global bus
  (our explicit modelling of inter-array movement; the paper's single-array
  examples never need it).

Instructions render to the text format of Fig. 4, e.g.::

    read [0][4,8,12,16][933,934] [xor,and,or,xor]
    write [0][4,8,12,16][932]
    shift [0] R[3]
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dfg.ops import OpType
from repro.errors import SimulationError


@dataclass(frozen=True, slots=True)
class Instruction:
    """Base class for all CIM instructions."""

    array: int

    def to_text(self) -> str:
        """Render in the Fig. 4 text format."""
        raise NotImplementedError


def _cols_str(cols: tuple[int, ...]) -> str:
    return ",".join(str(c) for c in cols)


@dataclass(frozen=True, slots=True)
class ReadInst(Instruction):
    """Plain read (``ops is None``, single row) or CIM scouting read."""

    cols: tuple[int, ...]
    rows: tuple[int, ...]
    ops: tuple[OpType, ...] | None = None

    def __post_init__(self) -> None:
        if not self.cols or not self.rows:
            raise SimulationError("read needs at least one column and row")
        if len(set(self.cols)) != len(self.cols):
            raise SimulationError(f"duplicate columns in read: {self.cols}")
        if len(set(self.rows)) != len(self.rows):
            raise SimulationError(f"duplicate rows in read: {self.rows}")
        if self.ops is None:
            if len(self.rows) != 1:
                raise SimulationError("plain read must activate exactly one row")
        else:
            if len(self.ops) != len(self.cols):
                raise SimulationError("need one op per selected column")
            if any(op is OpType.NOT for op in self.ops):
                raise SimulationError("NOT is a row-buffer op, not a CIM read op")
            if len(self.rows) < 2:
                raise SimulationError("CIM read needs at least two rows")

    @property
    def is_cim(self) -> bool:
        """Whether this read computes column logic (vs a plain row read)."""
        return self.ops is not None

    def to_text(self) -> str:
        """Render in the Fig. 4 text format."""
        base = f"read [{self.array}][{_cols_str(self.cols)}][{_cols_str(self.rows)}]"
        if self.ops is not None:
            base += " [" + ",".join(op.value for op in self.ops) + "]"
        return base


@dataclass(frozen=True, slots=True)
class WriteInst(Instruction):
    """Write the row buffer's columns back into one row of the array."""

    cols: tuple[int, ...]
    row: int

    def __post_init__(self) -> None:
        if not self.cols:
            raise SimulationError("write needs at least one column")
        if len(set(self.cols)) != len(self.cols):
            raise SimulationError(f"duplicate columns in write: {self.cols}")

    def to_text(self) -> str:
        """Render in the Fig. 4 text format."""
        return f"write [{self.array}][{_cols_str(self.cols)}][{self.row}]"


@dataclass(frozen=True, slots=True)
class ShiftInst(Instruction):
    """Shift row buffer columns by ``amount`` (positive = higher indices)."""

    amount: int

    def __post_init__(self) -> None:
        if self.amount == 0:
            raise SimulationError("zero-distance shift is a no-op; do not emit it")

    def to_text(self) -> str:
        """Render in the Fig. 4 text format."""
        direction = "R" if self.amount > 0 else "L"
        return f"shift [{self.array}] {direction}[{abs(self.amount)}]"


@dataclass(frozen=True, slots=True)
class NotInst(Instruction):
    """Invert row-buffer bits at the selected columns (row-buffer CMOS)."""

    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.cols:
            raise SimulationError("not needs at least one column")
        if len(set(self.cols)) != len(self.cols):
            raise SimulationError(f"duplicate columns in not: {self.cols}")

    def to_text(self) -> str:
        """Render in the Fig. 4 text format."""
        return f"not [{self.array}][{_cols_str(self.cols)}]"


@dataclass(frozen=True, slots=True)
class TransferInst(Instruction):
    """Copy row-buffer bits of ``cols`` from ``array`` to ``dst_array``."""

    dst_array: int
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.cols:
            raise SimulationError("xfer needs at least one column")
        if self.dst_array == self.array:
            raise SimulationError("xfer within one array is a no-op")

    def to_text(self) -> str:
        """Render in the Fig. 4 text format."""
        return f"xfer [{self.array}->{self.dst_array}][{_cols_str(self.cols)}]"


def instruction_arrays(inst: Instruction) -> tuple[int, ...]:
    """The array ids an instruction occupies (both ends of an ``xfer``).

    The multi-array scheduler uses this to split a merged trace into
    per-array sub-streams and to account bus/array occupancy.
    """
    if isinstance(inst, TransferInst):
        return (inst.array, inst.dst_array)
    return (inst.array,)


def program_text(instructions: list[Instruction]) -> str:
    """The whole program in the Fig. 4 text format."""
    return "\n".join(inst.to_text() for inst in instructions)
