"""Checkpoint/resume journals for long reliability campaigns.

A million-trial campaign or a wear-out lifetime study can run for hours;
a crash (or a preemption) should not throw the completed work away.  This
module journals completed work units — campaign shard blocks, lifetime
trials — to one JSON file, published atomically with the same
write-then-``os.replace`` pattern the artifact cache uses, so the journal
on disk is always a complete, parseable document.

Resume is **bit-identical** by construction: every campaign trial derives
its RNG streams purely from ``(seed, trial_index)``, so re-running only
the missing trial blocks and merging them with the journaled ones in
canonical order reproduces exactly the counters an uninterrupted run
would have produced — including the float energy accumulators, because
:func:`run_campaign` with a checkpoint shards *serial* runs into the same
canonical blocks the parallel path uses (float addition is associative
only in the order it actually happened, so the block boundaries are part
of the contract).

A journal is bound to the run that started it: the ``identity`` document
(program digest, trials, seed, policy, lanes, engine...) is stored in the
file, and resuming with any mismatch raises
:class:`~repro.errors.CheckpointError` rather than silently merging
incompatible counters.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading

from repro.errors import CheckpointError

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointJournal",
    "program_digest",
    "remaining_ranges",
]

#: schema tag every journal carries; any other tag is an incompatible file
CHECKPOINT_SCHEMA = "sherlock-checkpoint/v1"


def program_digest(program) -> str:
    """A stable content digest of a compiled program's identity: the
    :func:`~repro.core.cache.program_key` of the request that compiled it."""
    from repro.core.cache import program_key

    return program_key(program.source_dag, program.target, program.config,
                       program.fault_map)


class CheckpointJournal:
    """One resumable run's journal of completed work records.

    Opening a path that already holds a journal *resumes* it: the
    existing records load and new ones append.  Opening a fresh path
    starts an empty journal.  ``kind`` names the run type (``"campaign"``
    or ``"lifetime"``) and ``identity`` pins every parameter that must
    match for old records to be mergeable; a mismatch on either raises
    :class:`CheckpointError` immediately.
    """

    def __init__(self, path: str | pathlib.Path, kind: str,
                 identity: dict) -> None:
        self.path = pathlib.Path(path)
        self.kind = kind
        self.identity = identity
        self._lock = threading.Lock()
        self.records: list[dict] = []
        self.resumed = False
        if self.path.exists():
            self._load()
        else:
            self._save()

    def _load(self) -> None:
        try:
            document = json.loads(self.path.read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
            raise CheckpointError(
                f"checkpoint {self.path} is unreadable or corrupt: "
                f"{error}") from error
        if not isinstance(document, dict):
            raise CheckpointError(
                f"checkpoint {self.path} is not a JSON object")
        if document.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint {self.path} has schema "
                f"{document.get('schema')!r}, expected "
                f"{CHECKPOINT_SCHEMA!r}")
        if document.get("kind") != self.kind:
            raise CheckpointError(
                f"checkpoint {self.path} records a "
                f"{document.get('kind')!r} run, not {self.kind!r}")
        if document.get("identity") != self.identity:
            raise CheckpointError(
                f"checkpoint {self.path} belongs to a different run "
                f"(program/trials/seed/policy changed); refusing to merge "
                f"its records")
        records = document.get("records")
        if not isinstance(records, list):
            raise CheckpointError(
                f"checkpoint {self.path} has no records list")
        self.records = records
        self.resumed = bool(records)

    def _save(self) -> None:
        document = {"schema": CHECKPOINT_SCHEMA, "kind": self.kind,
                    "identity": self.identity, "records": self.records}
        tmp = self.path.with_name(
            f".{self.path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        tmp.write_text(json.dumps(document, indent=1))
        os.replace(tmp, self.path)

    def append(self, record: dict) -> None:
        """Durably add one completed work record (atomic republish)."""
        with self._lock:
            self.records.append(record)
            self._save()

    def remove(self) -> None:
        """Delete the journal file (the run completed; nothing to resume)."""
        try:
            self.path.unlink()
        except OSError:
            pass


def remaining_ranges(trials: int,
                     done: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The ``(first, count)`` gaps of ``[0, trials)`` not covered by ``done``.

    Validates that the completed blocks are in-bounds and non-overlapping
    (an overlap means the journal is corrupt or hand-edited — merging it
    would double-count trials).
    """
    spans = sorted((first, first + count) for first, count in done)
    cursor = 0
    gaps: list[tuple[int, int]] = []
    for start, end in spans:
        if start < cursor:
            raise CheckpointError(
                f"checkpoint blocks overlap or exceed bounds near trial "
                f"{start} (cursor {cursor})")
        if end > trials:
            raise CheckpointError(
                f"checkpoint block [{start}, {end}) exceeds the campaign's "
                f"{trials} trials")
        if start > cursor:
            gaps.append((cursor, start - cursor))
        cursor = end
    if cursor < trials:
        gaps.append((cursor, trials - cursor))
    return gaps
