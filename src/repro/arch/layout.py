"""Memory layout: where each DAG operand lives in the CIM arrays.

The layout is the first half of both mapping algorithms' output ("indicating
how operands in the application are mapped to the memory array").  Columns
are addressed *globally*: global column ``g`` maps to array ``g // cols``,
local column ``g % cols``.  An operand may have several physical copies —
the data duplication the naive mapping incurs when an op's operands have to
be gathered into a common column.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.target import TargetSpec
from repro.errors import MappingError


@dataclass(frozen=True, slots=True)
class CellAddr:
    """One cell of one array (all lanes of it)."""

    array: int
    row: int
    col: int


class Layout:
    """Tracks operand placements and per-column occupancy.

    With a ``fault_map`` the allocator is *fault-aware*: both fill
    directions skip rows whose cell is permanently faulty in the column
    being placed, burning them as padding, so operands only ever land on
    healthy cells.  Burned cells are excluded from ``cells_used``.
    """

    def __init__(self, target: TargetSpec, fault_map=None) -> None:
        self.target = target
        #: optional :class:`repro.devices.FaultMap` steering placements
        self.fault_map = fault_map
        self._fill: dict[int, int] = {}  # global col -> rows used bottom-up
        self._top_fill: dict[int, int] = {}  # global col -> rows used top-down
        self._copies: dict[int, list[CellAddr]] = {}  # operand id -> cells
        self._duplicates = 0
        # cells released by liveness-based recycling, reusable by later
        # placements (global col -> freed addresses, sorted by row)
        self._free_pool: dict[int, list[CellAddr]] = {}
        self._recycled = 0
        self._burned = 0

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    @property
    def num_global_cols(self) -> int:
        """Total column capacity across every array of the target."""
        return self.target.num_arrays * self.target.cols

    def split(self, gcol: int) -> tuple[int, int]:
        """Global column -> (array, local column)."""
        if not 0 <= gcol < self.num_global_cols:
            raise MappingError(
                f"global column {gcol} out of range "
                f"(target has {self.num_global_cols})")
        return divmod(gcol, self.target.cols)

    def global_col(self, array: int, col: int) -> int:
        """(array, local column) -> global column index."""
        return array * self.target.cols + col

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def column_fill(self, gcol: int) -> int:
        """Rows already used bottom-up in the given global column."""
        self.split(gcol)
        return self._fill.get(gcol, 0)

    def column_top_fill(self, gcol: int) -> int:
        """Rows already used top-down in the given global column."""
        self.split(gcol)
        return self._top_fill.get(gcol, 0)

    def column_capacity(self, gcol: int) -> int:
        """Highest row (exclusive) the bottom-up region may still reach."""
        return self.target.rows - self.column_top_fill(gcol)

    def column_free(self, gcol: int) -> int:
        """Rows still unallocated between the two fill regions."""
        return self.column_capacity(gcol) - self.column_fill(gcol)

    def column_free_healthy(self, gcol: int) -> int:
        """Unallocated rows that are also healthy (= ``column_free`` without
        a fault map); the count fault-aware placement can actually deliver."""
        free = self.column_free(gcol)
        if self.fault_map is None:
            return free
        array, col = self.split(gcol)
        return sum(1 for row in range(self.column_fill(gcol),
                                      self.column_capacity(gcol))
                   if self.fault_map.is_healthy(array, row, col))

    def column_reusable(self, gcol: int) -> int:
        """Released (recyclable) cells available in the given column."""
        self.split(gcol)
        return len(self._free_pool.get(gcol, []))

    def reusable_columns(self) -> list[int]:
        """Global columns holding at least one released cell, sorted."""
        return sorted(g for g, pool in self._free_pool.items() if pool)

    def cell_healthy(self, array: int, row: int, col: int) -> bool:
        """Whether the cell is free of permanent faults (no map = healthy)."""
        return self.fault_map is None or self.fault_map.is_healthy(array, row, col)

    def _record(self, operand_id: int, addr: CellAddr) -> CellAddr:
        existing = self._copies.setdefault(operand_id, [])
        if existing:
            self._duplicates += 1
        existing.append(addr)
        return addr

    def _reuse_from_pool(self, operand_id: int, gcol: int) -> CellAddr | None:
        pool = self._free_pool.get(gcol)
        if not pool:
            return None
        addr = pool.pop(0)  # lowest freed row first, deterministically
        if not pool:
            del self._free_pool[gcol]
        self._recycled += 1
        return self._record(operand_id, addr)

    def place(self, operand_id: int, gcol: int, *,
              reuse: bool = True) -> CellAddr:
        """Allocate the next bottom-up row of ``gcol`` for an operand copy.

        With ``reuse`` (the default) a released cell of the column is
        recycled before a fresh row is claimed.  Call sites placing
        *preload* data (inputs/constants poked before the program runs)
        must pass ``reuse=False``: a recycled cell's previous occupant is
        written mid-program and would overwrite the preloaded value.
        """
        if reuse:
            recycled = self._reuse_from_pool(operand_id, gcol)
            if recycled is not None:
                return recycled
        array, col = self.split(gcol)
        row = self._fill.get(gcol, 0)
        capacity = self.column_capacity(gcol)
        while row < capacity and not self.cell_healthy(array, row, col):
            row += 1
            self._burned += 1
        if row >= capacity:
            raise MappingError(
                f"column {gcol} (array {array}, col {col}) is full "
                f"({self.target.rows} rows, "
                f"{self.column_top_fill(gcol)} used top-down)")
        self._fill[gcol] = row + 1
        return self._record(operand_id, CellAddr(array, row, col))

    def place_top(self, operand_id: int, gcol: int, *,
                  reuse: bool = True) -> CellAddr:
        """Allocate the next top-down row of ``gcol``.

        The scheduler parks resident inputs and gather copies here so they
        never perturb the row alignment of the bottom-up result region.
        ``reuse`` follows the same preload rule as :meth:`place`.
        """
        if reuse:
            recycled = self._reuse_from_pool(operand_id, gcol)
            if recycled is not None:
                return recycled
        array, col = self.split(gcol)
        used = self._top_fill.get(gcol, 0)
        row = self.target.rows - 1 - used
        fill = self.column_fill(gcol)
        while row >= fill and not self.cell_healthy(array, row, col):
            row -= 1
            used += 1
            self._burned += 1
        if row < fill:
            raise MappingError(
                f"column {gcol} (array {array}, col {col}) is full "
                f"({self.target.rows} rows, {self.column_fill(gcol)} "
                "used bottom-up)")
        self._top_fill[gcol] = used + 1
        return self._record(operand_id, CellAddr(array, row, col))

    # ------------------------------------------------------------------
    # liveness-based recycling
    # ------------------------------------------------------------------
    def _release_addrs(self, addrs: list[CellAddr]) -> int:
        for addr in addrs:
            gcol = self.global_col(addr.array, addr.col)
            pool = self._free_pool.setdefault(gcol, [])
            pool.append(addr)
            pool.sort(key=lambda a: a.row)
        return len(addrs)

    def release(self, operand_id: int) -> int:
        """Free every cell of a dead operand for reuse; returns the count.

        The caller must guarantee the operand is never read again (its
        live range ended) and is neither a program output nor preloaded
        source data — use :meth:`release_duplicates` for dead sources.
        """
        addrs = self._copies.pop(operand_id, [])
        if len(addrs) > 1:
            self._duplicates -= len(addrs) - 1
        return self._release_addrs(addrs)

    def release_duplicates(self, operand_id: int) -> int:
        """Free the non-primary copies of an operand; returns the count.

        The primary copy survives because sources are preloaded there
        before execution starts (and outputs are read back from there).
        """
        addrs = self._copies.get(operand_id)
        if not addrs or len(addrs) == 1:
            return 0
        extras = addrs[1:]
        del addrs[1:]
        self._duplicates -= len(extras)
        return self._release_addrs(extras)

    def residents(self, gcol: int) -> list[int]:
        """Operand ids with at least one copy in the given column."""
        array, col = self.split(gcol)
        found = []
        for oid, addrs in self._copies.items():
            if any(a.array == array and a.col == col for a in addrs):
                found.append(oid)
        return sorted(found)

    def place_at(self, operand_id: int, gcol: int, row: int) -> CellAddr:
        """Place at a specific row at or beyond the bottom-up fill line.

        Used by the row-aligned scheduler: skipped rows become unusable
        padding, the price of keeping result rows aligned across columns so
        that instructions can merge (wordlines are shared array-wide).
        """
        array, col = self.split(gcol)
        fill = self._fill.get(gcol, 0)
        if row < fill:
            raise MappingError(
                f"row {row} of column {gcol} is already below the fill "
                f"line ({fill})")
        if row >= self.column_capacity(gcol):
            raise MappingError(
                f"column {gcol} cannot reach row {row} "
                f"(array height {self.target.rows}, "
                f"{self.column_top_fill(gcol)} rows used top-down)")
        if not self.cell_healthy(array, row, col):
            raise MappingError(
                f"cell (array={array}, row={row}, col={col}) is permanently "
                "faulty; aligned placement must pick a healthy row")
        self._fill[gcol] = row + 1
        return self._record(operand_id, CellAddr(array, row, col))

    # ------------------------------------------------------------------
    # spare provisioning
    # ------------------------------------------------------------------
    def spare_cells(self, limit_per_column: int | None = 4) -> list[CellAddr]:
        """Healthy unallocated cells of the touched columns, for remapping.

        Verify-after-write escalates a persistently failing cell to a spare
        of the *same column* (a remapped read must stay on the same bitline).
        The spares are the rows left between the bottom-up and top-down fill
        regions of every column the program actually uses, healthiest-first
        order being simply ascending row.  ``limit_per_column`` bounds the
        list (``None`` = all free rows).
        """
        spares: list[CellAddr] = []
        for gcol in sorted(self._touched_cols()):
            array, col = self.split(gcol)
            taken = 0
            for row in range(self.column_fill(gcol), self.column_capacity(gcol)):
                if limit_per_column is not None and taken >= limit_per_column:
                    break
                if self.cell_healthy(array, row, col):
                    spares.append(CellAddr(array, row, col))
                    taken += 1
        return spares

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def is_placed(self, operand_id: int) -> bool:
        """Whether the operand has at least one physical copy."""
        return operand_id in self._copies

    def copies(self, operand_id: int) -> list[CellAddr]:
        """All physical copies of an operand (possibly none)."""
        return list(self._copies.get(operand_id, []))

    def primary(self, operand_id: int) -> CellAddr:
        """The first (authoritative) copy; raises if unplaced."""
        try:
            return self._copies[operand_id][0]
        except KeyError:
            raise MappingError(f"operand {operand_id} is not placed") from None

    def nearest_copy(self, operand_id: int, gcol: int) -> CellAddr:
        """The cheapest source copy for a gather into ``gcol``.

        A copy on the destination's own array avoids the inter-array bus
        entirely (the gather lowers to read + shift + write); among those,
        the smallest shift distance wins.  Without a local copy the primary
        copy is used, matching the historical single-array behavior.
        Raises if the operand is unplaced.
        """
        addrs = self._copies.get(operand_id)
        if not addrs:
            raise MappingError(f"operand {operand_id} is not placed")
        array, col = self.split(gcol)
        local = [a for a in addrs if a.array == array]
        if local:
            return min(local, key=lambda a: (abs(a.col - col), a.row, a.col))
        return addrs[0]

    def copy_in_column(self, operand_id: int, gcol: int) -> CellAddr | None:
        """A copy of the operand living in the given global column, if any."""
        array, col = self.split(gcol)
        for addr in self._copies.get(operand_id, []):
            if addr.array == array and addr.col == col:
                return addr
        return None

    def placements(self) -> dict[int, list[CellAddr]]:
        """All placements (operand id -> copies), for reporting."""
        return {oid: list(addrs) for oid, addrs in self._copies.items()}

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def cells_used(self) -> int:
        """Number of cells occupied by placed operands and copies."""
        freed = sum(len(pool) for pool in self._free_pool.values())
        return (sum(self._fill.values()) + sum(self._top_fill.values())
                - freed - self._burned)

    @property
    def duplicates(self) -> int:
        """Extra physical copies beyond one per operand."""
        return self._duplicates

    @property
    def burned(self) -> int:
        """Faulty cells skipped (lost as padding) by fault-aware placement."""
        return self._burned

    @property
    def recycled(self) -> int:
        """Number of placements that reused a released (dead) cell."""
        return self._recycled

    def _touched_cols(self) -> set[int]:
        cols = {g for g, used in self._fill.items() if used}
        cols |= {g for g, used in self._top_fill.items() if used}
        return cols

    @property
    def columns_used(self) -> int:
        """Number of distinct global columns holding at least one cell."""
        return len(self._touched_cols())

    @property
    def arrays_used(self) -> int:
        """Number of distinct arrays holding at least one placed cell."""
        return len({gcol // self.target.cols for gcol in self._touched_cols()})

    def cells_used_by_array(self) -> dict[int, int]:
        """Operand cells held per array (array id -> count), for reporting."""
        counts: dict[int, int] = {}
        for addrs in self._copies.values():
            for addr in addrs:
                counts[addr.array] = counts.get(addr.array, 0) + 1
        return dict(sorted(counts.items()))

    def columns_used_by_array(self) -> dict[int, int]:
        """Touched columns per array (array id -> count), for reporting."""
        counts: dict[int, int] = {}
        for gcol in self._touched_cols():
            array = gcol // self.target.cols
            counts[array] = counts.get(array, 0) + 1
        return dict(sorted(counts.items()))

    def utilization(self) -> float:
        """Fraction of the touched arrays' cells holding data."""
        touched = self.arrays_used
        if touched == 0:
            return 0.0
        return self.cells_used / (touched * self.target.cells_per_array)
