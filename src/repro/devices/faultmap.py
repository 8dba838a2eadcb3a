"""Persistent hard-fault maps: per-cell stuck-at/dead state of an array set.

The transient reliability stack (decision failures, recovery policies)
redraws its faults on every sense; real NVM arrays also fail *permanently*:
endurance wear-out kills cells after a bounded number of program cycles,
and fabrication or drift leaves cells stuck in the low- or high-resistance
state.  A :class:`FaultMap` records that per-cell state — ``stuck0``
(always senses 0), ``stuck1`` (always senses all-ones) or ``dead``
(unprogrammable; senses as garbage, modeled as 0) — and travels with a
compiled program through every layer:

* the mappers place operands only on healthy cells (fault-aware placement),
* the :class:`repro.sim.executor.ArrayMachine` forces stuck values on every
  sense and write, and verify-after-write escalates to spare cells when a
  write lands on a cell the map did not yet know about,
* the lifetime campaign (:mod:`repro.reliability.lifetime`) grows the map
  from wear (:meth:`FaultMap.from_wear`) as ``write_counts`` cross the
  technology's endurance.

Maps are JSON artifacts (:meth:`FaultMap.save` / :meth:`FaultMap.load`), so
a map measured once — e.g. by a manufacturing test or a prior campaign —
can be reused across compilations, mirroring how real controllers ship
per-die bad-block tables.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from enum import Enum

from repro.errors import DeviceError

__all__ = [
    "FAULTMAP_FORMAT_VERSION",
    "CellFault",
    "FaultMap",
]

FAULTMAP_FORMAT_VERSION = 1

#: cell coordinate triple: (array, row, col)
_Cell = tuple[int, int, int]


class CellFault(Enum):
    """Permanent failure mode of one cell."""

    #: cell stuck in the state that senses as logic 0 on every lane
    STUCK0 = "stuck0"
    #: cell stuck in the state that senses as logic 1 on every lane
    STUCK1 = "stuck1"
    #: cell no longer programmable at all (worn out); senses as garbage
    DEAD = "dead"

    def forced_value(self, mask: int) -> int:
        """The lane bitmask this fault forces a sense of the cell to.

        A dead cell physically drifts to an indeterminate resistance; we
        model it as the all-zero pattern so executions stay deterministic
        (the *failure* is deterministic — the point of a hard fault).
        """
        return mask if self is CellFault.STUCK1 else 0


class FaultMap:
    """Per-cell permanent-fault state, loadable/savable/derivable from wear."""

    def __init__(self, faults: dict[_Cell, CellFault] | None = None) -> None:
        self._faults: dict[_Cell, CellFault] = dict(faults or {})
        self._version = 0

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every change to the map's content,
        so a lowering baked from the map can tell it is still current."""
        return self._version

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._faults)

    def __bool__(self) -> bool:
        return bool(self._faults)

    def fault_at(self, array: int, row: int, col: int) -> CellFault | None:
        """The cell's fault, or ``None`` when it is healthy."""
        return self._faults.get((array, row, col))

    def is_healthy(self, array: int, row: int, col: int) -> bool:
        """Whether the cell can store and sense data correctly."""
        return (array, row, col) not in self._faults

    def cells(self) -> list[tuple[_Cell, CellFault]]:
        """All faulty cells with their fault kinds, deterministically sorted."""
        return sorted(self._faults.items())

    def digest(self) -> str:
        """A stable hex digest of the map's exact per-cell fault content.

        Two maps with identical faults digest equal regardless of
        insertion order, so the digest is a sound *content* cache key:
        the process compile cache and the persistent artifact cache key
        fault-aware compiles on it, giving a fleet of arrays with
        byte-identical maps shared cache hits.  Mutating the map (new
        wear, a remap diagnosis) changes the digest and thereby misses.
        """
        hasher = hashlib.sha256()
        for (array, row, col), fault in self.cells():
            hasher.update(f"{array},{row},{col},{fault.value}\n".encode())
        return hasher.hexdigest()

    def counts(self) -> dict[str, int]:
        """Number of faulty cells per fault kind (``{"dead": 3, ...}``)."""
        out: dict[str, int] = {}
        for fault in self._faults.values():
            out[fault.value] = out.get(fault.value, 0) + 1
        return out

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def set_fault(self, array: int, row: int, col: int,
                  fault: CellFault) -> None:
        """Record (or overwrite) one cell's permanent fault."""
        if not isinstance(fault, CellFault):
            raise DeviceError(f"not a CellFault: {fault!r}")
        self._faults[(array, row, col)] = fault
        self._version += 1

    def mark_dead(self, array: int, row: int, col: int) -> None:
        """Record a cell as worn out / unprogrammable."""
        self._faults[(array, row, col)] = CellFault.DEAD
        self._version += 1

    def clear(self, array: int, row: int, col: int) -> bool:
        """Forget one cell's fault; ``True`` if the cell was recorded.

        The inverse of :meth:`set_fault`, for faults that turn out to be
        transient — e.g. a chaos-injected write-failure burst healing
        after its scheduled duration.  Genuine wear-out diagnoses should
        never be cleared: a controller only un-marks a cell after
        re-qualifying it.
        """
        if self._faults.pop((array, row, col), None) is None:
            return False
        self._version += 1
        return True

    def merge(self, other: "FaultMap") -> int:
        """Fold another map's faults into this one; returns cells added.

        A cell faulty in both keeps *this* map's kind — the first diagnosis
        wins, matching how a controller only appends to its bad-cell table.
        """
        added = 0
        for cell, fault in other._faults.items():
            if cell not in self._faults:
                self._faults[cell] = fault
                added += 1
        self._version += added
        return added

    def copy(self) -> "FaultMap":
        """An independent copy (campaign trials mutate their own map)."""
        return FaultMap(self._faults)

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    @classmethod
    def from_wear(cls, write_counts: dict[_Cell, int], technology,
                  endurance: float | None = None) -> "FaultMap":
        """Cells whose cumulative writes crossed the endurance are dead.

        ``write_counts`` is the per-cell accumulator of
        :class:`repro.sim.executor.ArrayMachine` (or a sum of several runs'
        :func:`repro.sim.endurance.static_write_counts`); ``endurance``
        overrides ``technology.endurance_cycles`` so campaigns can age
        arrays in simulation-scale write budgets.
        """
        limit = technology.endurance_cycles if endurance is None else endurance
        if limit <= 0:
            raise DeviceError(f"endurance must be positive, got {limit}")
        dead = {cell: CellFault.DEAD
                for cell, count in write_counts.items() if count >= limit}
        return cls(dead)

    @classmethod
    def random_map(cls, target, fraction: float, seed: int = 0,
                   kinds: tuple[CellFault, ...] = (CellFault.DEAD,),
                   ) -> "FaultMap":
        """A reproducible map with ``fraction`` of the target's cells faulty.

        Used by robustness gates and tests; ``kinds`` cycles over the fault
        kinds to assign (default: all dead cells).
        """
        if not 0.0 <= fraction <= 1.0:
            raise DeviceError(
                f"fault fraction must be in [0, 1], got {fraction}")
        rng = random.Random(seed)
        all_cells = [(a, r, c)
                     for a in range(target.num_arrays)
                     for r in range(target.rows)
                     for c in range(target.cols)]
        count = round(fraction * len(all_cells))
        chosen = rng.sample(all_cells, count)
        return cls({cell: kinds[i % len(kinds)]
                    for i, cell in enumerate(sorted(chosen))})

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible document (see :meth:`save`)."""
        return {
            "format_version": FAULTMAP_FORMAT_VERSION,
            "faults": [[a, r, c, fault.value]
                       for (a, r, c), fault in self.cells()],
        }

    @classmethod
    def from_dict(cls, document: dict) -> "FaultMap":
        """Rebuild a map from :meth:`to_dict`; raises on malformed input."""
        if not isinstance(document, dict):
            raise DeviceError("fault map document must be a JSON object")
        version = document.get("format_version")
        if version != FAULTMAP_FORMAT_VERSION:
            raise DeviceError(
                f"unsupported fault-map format {version!r} "
                f"(expected {FAULTMAP_FORMAT_VERSION})")
        entries = document.get("faults")
        if not isinstance(entries, list):
            raise DeviceError("fault map document lacks a 'faults' list")
        faults: dict[_Cell, CellFault] = {}
        for entry in entries:
            if (not isinstance(entry, (list, tuple)) or len(entry) != 4
                    or not all(isinstance(v, int) and not isinstance(v, bool)
                               for v in entry[:3])):
                raise DeviceError(
                    f"malformed fault entry {entry!r}; expected "
                    "[array, row, col, kind]")
            array, row, col, kind = entry
            if min(array, row, col) < 0:
                raise DeviceError(
                    f"fault entry {entry!r} has a negative coordinate")
            try:
                fault = CellFault(kind)
            except ValueError:
                raise DeviceError(
                    f"unknown fault kind {kind!r}; valid kinds: "
                    f"{sorted(f.value for f in CellFault)}") from None
            cell = (array, row, col)
            if cell in faults:
                raise DeviceError(f"duplicate fault entry for cell {cell}")
            faults[cell] = fault
        return cls(faults)

    def save(self, path: str | pathlib.Path) -> None:
        """Write the map to ``path`` as a JSON artifact."""
        pathlib.Path(path).write_text(json.dumps(self.to_dict(), indent=1))

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "FaultMap":
        """Reload a map saved by :meth:`save`; raises on malformed files."""
        try:
            document = json.loads(pathlib.Path(path).read_text())
        except OSError as error:
            raise DeviceError(f"cannot read fault map {path}: {error}") from None
        except json.JSONDecodeError as error:
            raise DeviceError(
                f"fault map {path} is not valid JSON: {error}") from None
        return cls.from_dict(document)

    def __repr__(self) -> str:
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts().items()))
        return f"FaultMap({len(self)} faulty cells{': ' + counts if counts else ''})"
