"""The program cache: compiled programs keyed by content.

:class:`ArtifactCache` is the one cache of compiled
:class:`~repro.core.compiler.CompiledProgram`\\ s, keyed by
:func:`program_key`.  Every instance has a bounded memory tier (LRU) that
stores and hands out private copies, so a caller editing its program
cannot poison later hits.  ``SherlockCompiler(cache=True)`` uses a
process-wide instance without a root; the serving runtime owns a rooted
one, which adds a disk tier shared across restarts, arrays and processes:

* **atomic publication** — entries are written to a private temporary file
  and ``os.replace``d into place, so a concurrent reader sees either the
  previous or the new complete entry, never a partial write;
* **corruption tolerance** — a truncated, garbage, schema-mismatched or
  version-mismatched entry is *quarantined* (moved into ``quarantine/``,
  or deleted when ``keep_quarantined=False``), counted, and reported as a
  miss, so the service transparently recompiles;
* **bounded growth** — optional ``max_entries``/``max_bytes`` caps with
  mtime-LRU eviction: hits touch their entry's mtime, and each ``put``
  evicts the stalest entries (never the one just published);
* **visible changes** — a memory hit is served only while the entry file
  still has the inode, size and mtime this cache last wrote or read, so
  corruption, quarantine, eviction and other writers go down the disk path;
* **compact entries** — files are written as compact JSON, which the C
  encoder handles (an indented dump falls back to pure Python).

A hit is cheap because the memory tier keeps more than the program:

* **shared derived facts** — every view a hit hands out reads
  ``metrics`` and ``overlap`` off its entry, so ``analyze_trace`` and the
  overlap replay run at most once per entry, not once per hit.  They
  describe the program as it was cached: a caller that edits its view's
  instruction list gets no fresh facts for it, and no other view sees the
  edit.  The vectorized lowering stays per view, because a lowering reads
  the fault map of the program it was built from when it runs;
* **interned values** — an entry holds the tier's one copy of each
  distinct frozen instruction and :class:`~repro.arch.layout.CellAddr`
  (programs of one workload repeat them: the serve benchmark's 128
  artifacts hold 36,366 instructions but only 4,052 distinct ones).
  Interning builds new lists and a new layout for the entry and never
  edits an object a caller holds.  The table counts how many entry slots
  hold each value and drops a value when the last entry holding it leaves
  the tier, so it never outgrows the live entries;
* **known lines** — a disk read reuses the tier's copy of every
  instruction line it already knows instead of parsing it again.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import json
import os
import pathlib
import threading
from collections import OrderedDict

from repro.arch.isa import Instruction
from repro.dfg.stats import structural_hash
from repro.errors import SherlockError

__all__ = ["ARTIFACT_SCHEMA", "ArtifactCache", "program_key"]

#: schema tag every disk entry carries; entries with any other tag (or
#: none) are quarantined as corrupt
ARTIFACT_SCHEMA = "sherlock-artifact/v1"
#: programs the memory tier holds before evicting the least recently used;
#: sized from measured peak RSS, it answers about three in four reads of
#: ``serve_mixed``'s 128-artifact Zipf pool without touching disk
MEMORY_ENTRIES = 64
#: longer programs skip the memory tier: a full AES program holds hundreds
#: of thousands of instruction objects (see ``benchmarks/conftest.py``)
MEMORY_MAX_INSTRUCTIONS = 20_000


def program_key(dag, target, config, fault_map=None, *,
                dag_hash: str | None = None) -> str:
    """The content key of one compilation request, as a hex digest.

    ``sha256(DAG structural hash | target | config | fault-map digest)``
    is the only key :class:`ArtifactCache` uses, in both tiers, so
    structurally identical requests resolve to the same entry.
    Fault-aware compiles key on the map's *content digest*
    (:meth:`repro.devices.FaultMap.digest`): a fleet of arrays with
    byte-identical maps shares entries while any mutation (new wear, a
    remap diagnosis) changes the key and recompiles.  An empty map keys
    like no map at all.  ``dag_hash`` passes in a
    :func:`~repro.dfg.stats.structural_hash` of ``dag`` the caller
    already has.
    """
    from repro.core.serialize import target_to_dict

    hasher = hashlib.sha256()
    hasher.update((dag_hash or structural_hash(dag)).encode())
    hasher.update(json.dumps(target_to_dict(target),
                             sort_keys=True).encode())
    hasher.update(json.dumps(dataclasses.asdict(config),
                             sort_keys=True).encode())
    digest = fault_map.digest() if fault_map else None
    hasher.update(f"|faults:{digest}".encode())
    return hasher.hexdigest()


def _reissue(program):
    """A fresh view of a program that shares only its immutable pieces.

    The transformed DAG, layout, stats, stages and instruction objects are
    shared; the instruction, pass-event and ladder *lists* and the fault
    map are copied, so neither side can corrupt the other.
    """
    mapping = program.mapping
    return dataclasses.replace(
        program,
        mapping=dataclasses.replace(mapping,
                                    instructions=list(mapping.instructions)),
        pass_events=list(program.pass_events),
        ladder=list(program.ladder),
        fault_map=(program.fault_map.copy()
                   if program.fault_map is not None else None))


def _view(entry):
    """What a hit hands out: a :func:`_reissue` of a memory-tier entry
    that reads its derived facts off the entry."""
    view = _reissue(entry)
    view.__dict__["_entry"] = entry
    return view


class ArtifactCache:
    """Compiled programs keyed by content: a memory tier, plus disk.

    ``ArtifactCache()`` is memory-only; ``ArtifactCache(root)`` also keeps
    one JSON file per entry under ``root``.  Thread-safe: counters and the
    memory tier are guarded by a lock and file publication is atomic, so
    one cache can back a whole worker pool (and, through the digest-keyed
    naming, a whole fleet of arrays).
    """

    def __init__(self, root: str | pathlib.Path | None = None, *,
                 keep_quarantined: bool = True,
                 max_entries: int | None = None,
                 max_bytes: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise SherlockError(
                f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise SherlockError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = self.quarantine_dir = None
        if root is not None:
            self.root = pathlib.Path(root)
            self.root.mkdir(parents=True, exist_ok=True)
            self.quarantine_dir = self.root / "quarantine"
        self.keep_quarantined = keep_quarantined
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.writes = 0
        self.evictions = 0
        self._lock = threading.Lock()
        #: key -> (private program copy, :meth:`_stamp` when remembered)
        self._memory: OrderedDict[str, tuple] = OrderedDict()
        #: value -> [the tier's copy of it, entry slots holding it]
        self._interned: dict = {}
        #: Fig. 4 text -> the tier's copy, for every interned instruction
        self._known_lines: dict[str, Instruction] = {}

    # ------------------------------------------------------------------
    # keys and paths
    # ------------------------------------------------------------------
    #: the content key of one compilation request (:func:`program_key`)
    key_for = staticmethod(program_key)

    def path_for(self, key: str) -> pathlib.Path:
        """The entry file a key resolves to (rooted caches only)."""
        return self.root / f"{key}.json"

    def entries(self) -> int:
        """Entries on disk (well-formed or not), or in memory without a root."""
        return (len(self._memory) if self.root is None
                else sum(1 for _ in self.root.glob("*.json")))

    def __contains__(self, key: str) -> bool:
        """Whether either tier holds ``key``; counts no hit or miss."""
        return key in self._memory or (self.root is not None
                                       and self.path_for(key).exists())

    def _stamp(self, key: str, touch: bool = False) -> tuple:
        """The entry file's (inode, size, mtime), after refreshing the mtime
        (the disk tier's LRU order) if ``touch``; ``()`` without a root."""
        if self.root is None:
            return ()
        if touch:
            os.utime(self.path_for(key))
        stat = self.path_for(key).stat()
        return stat.st_ino, stat.st_size, stat.st_mtime_ns

    # ------------------------------------------------------------------
    # get / put
    # ------------------------------------------------------------------
    def get(self, key: str):
        """The cached program for ``key``, or ``None`` (miss).

        The memory tier answers while its entry is current; otherwise the
        disk entry is read, and any failure to parse or decode it —
        truncated JSON, garbage bytes, a wrong or missing schema tag, a
        document the serializer rejects — quarantines the entry and
        reports a miss, so the caller recompiles and overwrites it.
        """
        program = self._recall(key)
        if program is None and self.root is not None:
            program = self._load(key)
        with self._lock:
            self.hits += program is not None
            self.misses += program is None
        return program

    def put(self, key: str, program) -> pathlib.Path | None:
        """Cache a compiled program under ``key``; atomic, last wins.

        Returns the entry file (``None`` without a root).  When the disk
        tier is bounded, publication is followed by an LRU sweep that
        evicts the least-recently-used entries (the fresh one is
        protected) until both caps hold again.
        """
        path = None
        if self.root is not None:
            from repro.core.serialize import program_to_dict

            document = {"schema": ARTIFACT_SCHEMA, "key": key,
                        "program": program_to_dict(program)}
            path = self.path_for(key)
            tmp = (self.root
                   / f".{key}.{os.getpid()}.{threading.get_ident()}.tmp")
            tmp.write_text(json.dumps(document, separators=(",", ":")))
            os.replace(tmp, path)
        try:
            self._remember(key, program, self._stamp(key))
        except OSError:
            pass  # a concurrent evictor removed the file already
        with self._lock:
            self.writes += 1
        if path is not None and (self.max_entries or self.max_bytes):
            self._evict(protect=path.name)
        return path

    def clear(self) -> None:
        """Empty the memory tier and reset the counters (disk stays)."""
        with self._lock:
            self._memory.clear()
            self._interned.clear()
            self._known_lines.clear()
            self.hits = self.misses = self.quarantined = 0
            self.writes = self.evictions = 0

    # ------------------------------------------------------------------
    # the memory tier
    # ------------------------------------------------------------------
    def _remember(self, key: str, program, stamp: tuple):
        """Hold a private, interned copy of ``program`` in the memory tier;
        returns it, or ``None`` for a program too long for the tier."""
        if len(program.instructions) > MEMORY_MAX_INSTRUCTIONS:
            return None
        entry = _reissue(program)
        with self._lock:
            self._intern(entry)
            old = self._memory.pop(key, None)
            if old is not None:
                self._release(old[0])
            self._memory[key] = (entry, stamp)
            while len(self._memory) > MEMORY_ENTRIES:
                self._release(self._memory.popitem(last=False)[1][0])
        return entry

    def _intern(self, entry) -> None:
        """Point a fresh entry's instruction list and a new copy of its
        layout at the tier's copies of their values (lock held)."""
        table = self._interned

        def canonical(value):
            slot = table.get(value)
            if slot is None:
                slot = table[value] = [value, 0]
                if isinstance(value, Instruction):
                    self._known_lines[value.to_text()] = value
            slot[1] += 1
            return slot[0]

        layout = copy.copy(entry.layout)
        layout._copies = {operand: [canonical(addr) for addr in addrs]
                          for operand, addrs in layout._copies.items()}
        entry.mapping = dataclasses.replace(
            entry.mapping, layout=layout,
            instructions=[canonical(inst) for inst in entry.instructions])

    def _release(self, entry) -> None:
        """Drop a leaving entry's holds on the intern table (lock held)."""
        table = self._interned
        for value in itertools.chain(entry.instructions,
                                     *entry.layout._copies.values()):
            slot = table.get(value)
            if slot is not None:
                slot[1] -= 1
                if slot[1] <= 0:
                    del table[value]
                    if isinstance(value, Instruction):
                        self._known_lines.pop(value.to_text(), None)

    def _recall(self, key: str):
        """A view of the memory tier's program for ``key``, if current
        (a stale entry is dropped for the disk path)."""
        with self._lock:
            entry = self._memory.get(key)
        if entry is None:
            return None
        program, stamp = entry
        try:
            current = self._stamp(key) == stamp
            stamp = self._stamp(key, touch=True) if current else stamp
        except OSError:
            current = False
        with self._lock:
            if self._memory.get(key) is entry:  # not replaced meanwhile
                if current:
                    self._memory[key] = (program, stamp)
                    self._memory.move_to_end(key)
                else:
                    del self._memory[key]
                    self._release(program)
        return _view(program) if current else None

    # ------------------------------------------------------------------
    # the disk tier
    # ------------------------------------------------------------------
    def _load(self, key: str):
        """Read, decode and remember one disk entry; ``None`` if absent/bad."""
        from repro.core.serialize import program_from_dict

        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:  # FileNotFoundError included: a plain miss
            return None
        try:
            document = json.loads(raw.decode("utf-8"))
            if not isinstance(document, dict):
                raise SherlockError("artifact entry is not a JSON object")
            if document.get("schema") != ARTIFACT_SCHEMA:
                raise SherlockError(
                    f"artifact entry schema {document.get('schema')!r} "
                    f"!= {ARTIFACT_SCHEMA!r}")
            program = program_from_dict(document.get("program"),
                                        known_instructions=self._known_lines)
        except (json.JSONDecodeError, UnicodeDecodeError, SherlockError):
            self._quarantine(path)
            return None
        try:
            entry = self._remember(key, program, self._stamp(key, touch=True))
        except OSError:
            entry = None  # a concurrent eviction/replace got there first
        return program if entry is None else _view(entry)

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a corrupt entry out of the lookup path (or delete it)."""
        with self._lock:
            self.quarantined += 1
            serial = self.quarantined
        try:
            if self.keep_quarantined:
                self.quarantine_dir.mkdir(exist_ok=True)
                os.replace(path, self.quarantine_dir
                           / f"{path.name}.{serial}")
            else:
                path.unlink()
        except OSError:
            pass  # a concurrent put already replaced (or removed) it

    def _evict(self, protect: str) -> None:
        """Remove LRU entries until the size caps hold.

        ``protect`` is the file name of the entry just published — the one
        write that must survive its own sweep even when the caps are
        smaller than a single entry.  Stat failures mean a concurrent
        evictor/replacer won the race; those entries are simply skipped.
        """
        entries = []
        for path in self.root.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path.name, stat.st_size, path))
        entries.sort()  # oldest mtime first; name breaks ties stably
        count = len(entries)
        total = sum(size for _, _, size, _ in entries)
        evicted = 0
        for _, name, size, path in entries:
            over_count = (self.max_entries is not None
                          and count > self.max_entries)
            over_bytes = (self.max_bytes is not None
                          and total > self.max_bytes)
            if not (over_count or over_bytes):
                break
            if name == protect:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            count -= 1
            total -= size
            evicted += 1
        if evicted:
            with self._lock:
                self.evictions += evicted

    def stats(self) -> dict[str, int]:
        """Hit (either tier)/miss/quarantine/write/eviction counters plus
        the entry count."""
        entries = self.entries()
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "quarantined": self.quarantined, "writes": self.writes,
                    "evictions": self.evictions, "entries": entries}
