"""Parsing the Fig. 4 instruction text format back into instructions.

`:func:`repro.arch.isa.program_text` renders a program as text; this module
is its inverse, so programs can be stored, diffed, and re-executed from
their textual form (``sherlock compile --emit`` output round-trips).
"""

from __future__ import annotations

import re

from repro.arch.isa import (
    Instruction,
    NotInst,
    ReadInst,
    ShiftInst,
    TransferInst,
    WriteInst,
)
from repro.dfg.ops import OpType
from repro.errors import SimulationError

_READ = re.compile(
    r"read \[(\d+)\]\[([\d,]+)\]\[([\d,]+)\](?: \[([a-z,]+)\])?$")
_WRITE = re.compile(r"write \[(\d+)\]\[([\d,]+)\]\[(\d+)\]$")
_SHIFT = re.compile(r"shift \[(\d+)\] ([RL])\[(\d+)\]$")
_NOT = re.compile(r"not \[(\d+)\]\[([\d,]+)\]$")
_XFER = re.compile(r"xfer \[(\d+)->(\d+)\]\[([\d,]+)\]$")


def _ints(csv: str) -> tuple[int, ...]:
    return tuple(int(x) for x in csv.split(","))


def parse_instruction(line: str) -> Instruction:
    """Parse one line of the Fig. 4 format; raises on malformed input."""
    line = line.strip()
    match = _READ.match(line)
    if match:
        array, cols, rows, ops = match.groups()
        op_tuple = None
        if ops is not None:
            try:
                op_tuple = tuple(OpType(op) for op in ops.split(","))
            except ValueError as error:
                raise SimulationError(f"unknown op in {line!r}: {error}") from None
        return ReadInst(int(array), _ints(cols), _ints(rows), op_tuple)
    match = _WRITE.match(line)
    if match:
        array, cols, row = match.groups()
        return WriteInst(int(array), _ints(cols), int(row))
    match = _SHIFT.match(line)
    if match:
        array, direction, amount = match.groups()
        value = int(amount)
        return ShiftInst(int(array), value if direction == "R" else -value)
    match = _NOT.match(line)
    if match:
        array, cols = match.groups()
        return NotInst(int(array), _ints(cols))
    match = _XFER.match(line)
    if match:
        src, dst, cols = match.groups()
        return TransferInst(int(src), int(dst), _ints(cols))
    raise SimulationError(f"cannot parse instruction: {line!r}")


def parse_program(text: str) -> list[Instruction]:
    """Parse a whole program; blank lines and ``#`` comments are skipped."""
    instructions = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        instructions.append(parse_instruction(stripped))
    return instructions
