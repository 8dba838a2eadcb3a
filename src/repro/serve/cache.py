"""Persistent on-disk artifact cache for compiled CIM programs.

The process-level compile cache (:class:`repro.core.compiler.CompileCache`)
dies with the process; a serving fleet wants compiled programs to survive
restarts and be shared across arrays.  :class:`ArtifactCache` persists each
:class:`~repro.core.compiler.CompiledProgram` as one JSON file under the
content key both caches share (:func:`repro.core.program_key`):

    sha256(DAG structural hash | target | config | fault-map digest)

so structurally identical requests — including fault-aware compiles for
arrays with byte-identical fault maps — resolve to the same entry, while
any fault-map mutation (new wear, a remap diagnosis) changes the key and
recompiles.

Durability properties the tests pin down:

* **atomic publication** — entries are written to a private temporary file
  in the cache directory and ``os.replace``d into place, so a concurrent
  reader sees either the previous complete entry or the new complete
  entry, never a partial write;
* **corruption tolerance** — a truncated, garbage, schema-mismatched or
  version-mismatched entry is *quarantined* (moved into ``quarantine/``
  for post-mortem, or deleted when ``keep_quarantined=False``), counted,
  and reported as a miss, so the service transparently recompiles instead
  of failing the request;
* **bounded growth** — optional ``max_entries``/``max_bytes`` caps with
  mtime-LRU eviction: hits touch their entry's mtime, each ``put`` evicts
  the stalest entries (never the one just published) until both caps
  hold, and evictions are counted in :meth:`ArtifactCache.stats`.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading

from repro.core.compiler import program_key
from repro.core.serialize import program_from_dict, program_to_dict
from repro.errors import SherlockError

__all__ = ["ARTIFACT_SCHEMA", "ArtifactCache"]

#: schema tag every cache entry carries; entries with any other tag (or
#: none) are quarantined as corrupt
ARTIFACT_SCHEMA = "sherlock-artifact/v1"


class ArtifactCache:
    """A directory of serialized compiled programs, keyed by content.

    Thread-safe: counters are guarded by a lock and file publication is
    atomic, so one cache directory can back a whole worker pool (and,
    through the digest-keyed naming, a whole fleet of arrays).
    """

    def __init__(self, root: str | pathlib.Path, *,
                 keep_quarantined: bool = True,
                 max_entries: int | None = None,
                 max_bytes: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise SherlockError(
                f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise SherlockError(f"max_bytes must be >= 1, got {max_bytes}")
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

    # ------------------------------------------------------------------
    # keys and paths
    # ------------------------------------------------------------------
    #: the content key of one compilation request — :func:`repro.core.program_key`,
    #: the same key the process compile cache uses
    key_for = staticmethod(program_key)

    def path_for(self, key: str) -> pathlib.Path:
        """The entry file a key resolves to."""
        return self.root / f"{key}.json"

    def entries(self) -> int:
        """Number of (well-formed or not) entries currently on disk."""
        return sum(1 for _ in self.root.glob("*.json"))

    # ------------------------------------------------------------------
    # get / put
    # ------------------------------------------------------------------
    def get(self, key: str):
        """The cached program for ``key``, or ``None`` (miss).

        Any failure to parse or decode an existing entry — truncated JSON,
        garbage bytes, a wrong or missing schema tag, a document the
        serializer rejects — quarantines the entry and reports a miss, so
        the caller recompiles and overwrites it with a good one.
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:  # FileNotFoundError included: a plain miss
            with self._lock:
                self.misses += 1
            return None
        try:
            document = json.loads(raw.decode("utf-8"))
            if not isinstance(document, dict):
                raise SherlockError("artifact entry is not a JSON object")
            if document.get("schema") != ARTIFACT_SCHEMA:
                raise SherlockError(
                    f"artifact entry schema {document.get('schema')!r} "
                    f"!= {ARTIFACT_SCHEMA!r}")
            program = program_from_dict(document.get("program"))
        except (json.JSONDecodeError, UnicodeDecodeError, SherlockError):
            self._quarantine(path)
            with self._lock:
                self.misses += 1
            return None
        try:
            os.utime(path)  # refresh LRU recency for the eviction order
        except OSError:
            pass  # a concurrent eviction/replace got there first
        with self._lock:
            self.hits += 1
        return program

    def put(self, key: str, program) -> pathlib.Path:
        """Persist a compiled program under ``key``; atomic, last wins.

        When the cache is bounded, publication is followed by an LRU
        sweep that evicts the least-recently-used entries (the fresh one
        is protected) until both caps hold again.
        """
        document = {"schema": ARTIFACT_SCHEMA, "key": key,
                    "program": program_to_dict(program)}
        path = self.path_for(key)
        tmp = self.root / f".{key}.{os.getpid()}.{threading.get_ident()}.tmp"
        tmp.write_text(json.dumps(document, indent=1))
        os.replace(tmp, path)
        with self._lock:
            self.writes += 1
        if self.max_entries is not None or self.max_bytes is not None:
            self._evict(protect=path.name)
        return path

    # ------------------------------------------------------------------
    # quarantine and stats
    # ------------------------------------------------------------------
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
        """Hit/miss/quarantine/write/eviction counters plus the entry count."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "quarantined": self.quarantined, "writes": self.writes,
                    "evictions": self.evictions, "entries": self.entries()}
