"""Codegen golden: the benchmark's compile matrix, pinned byte for byte.

Every job of the ``compile_paper`` benchmark round is rebuilt here (the
{naive, sherlock} x {ReRAM, STT-MRAM} x {MRA 2, 4} x {512, 1024} BFS
matrix, one corner of each larger kernel, a multi-array slice and a
capacity-starved slice that rides the degradation ladder).  For each the
golden file records the sha256 of the emitted instruction text, the
degradation rung, the stage count and every pass event's before/after
:class:`~repro.dfg.stats.GraphStats`.  A compiler change that moves one
instruction, one ladder decision or one pass's IR statistics fails here
by entry name.

Regenerate (only for an intended codegen change) with::

    PYTHONPATH=src python tests/test_codegen_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import pytest

from repro.arch import TargetSpec
from repro.core import CompilerConfig
from repro.core.compiler import compile_dag
from repro.workloads import aes, get_workload

GOLDEN = pathlib.Path(__file__).parent / "golden" / "codegen_v1.json"


def _entry(kernel, mapper, tech, mra, size, arrays=None, schedule="single"):
    return (kernel, mapper, tech, mra, size, arrays, schedule)


#: the benchmark round's jobs: (kernel, mapper, tech, mra, size, arrays,
#: schedule), in the benchmark's order
ENTRIES = (
    [_entry("bfs", mapper, tech, mra, size)
     for mapper in ("naive", "sherlock")
     for tech in ("reram", "stt-mram")
     for mra in (2, 4)
     for size in (512, 1024)]
    + [_entry("bitweaving", "sherlock", "stt-mram", 4, 512),
       _entry("sobel", "sherlock", "reram", 4, 1024),
       _entry("aes1", "sherlock", "reram", 4, 512)]
    + [_entry("bfs", "sherlock", "reram", 2, 128, 2, "multi"),
       _entry("bfs", "sherlock", "reram", 2, 128, 4, "multi"),
       _entry("bitweaving", "sherlock", "reram", 2, 128, 4, "multi")]
    + [_entry("bfs", "sherlock", "reram", 2, 32, 1),
       _entry("bfs", "sherlock", "reram", 2, 16, 2)]
)


def entry_id(entry) -> str:
    """A readable, unique name for one job."""
    kernel, mapper, tech, mra, size, arrays, schedule = entry
    name = f"{kernel}-{mapper}-{tech}-mra{mra}-{size}"
    if arrays is not None:
        name += f"-x{arrays}"
    if schedule != "single":
        name += f"-{schedule}"
    return name


_DAGS: dict[str, object] = {}


def _dag(kernel: str):
    if kernel not in _DAGS:
        _DAGS[kernel] = (aes.aes_dag(1) if kernel == "aes1"
                         else get_workload(kernel).build_dag())
    return _DAGS[kernel]


def record(entry) -> dict[str, object]:
    """Compile one job cold and summarize what the compiler produced."""
    kernel, mapper, tech, mra, size, arrays, schedule = entry
    extra = {} if arrays is None else {"num_arrays": arrays}
    target = TargetSpec.square(size, tech, max_activated_rows=mra, **extra)
    config = CompilerConfig(mapper=mapper, mra=mra, schedule=schedule)
    program = compile_dag(_dag(kernel), target, config, cache=False)
    return {
        "sha256": hashlib.sha256(program.text().encode()).hexdigest(),
        "instructions": len(program.instructions),
        "degradation": program.degradation,
        "stages": len(program.stages) if program.stages else 1,
        "passes": [{"name": event.name,
                    "before": dataclasses.asdict(event.before),
                    "after": dataclasses.asdict(event.after)}
                   for event in program.pass_events],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_entry(golden):
    assert list(golden) == [entry_id(entry) for entry in ENTRIES]


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_id)
def test_codegen_golden(golden, entry):
    want = golden[entry_id(entry)]
    got = record(entry)
    # compare the pass log first: it names the pass that diverged
    assert [p["name"] for p in got["passes"]] == \
        [p["name"] for p in want["passes"]]
    for got_pass, want_pass in zip(got["passes"], want["passes"]):
        assert got_pass == want_pass, got_pass["name"]
    assert got == want


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {entry_id(entry): record(entry) for entry in ENTRIES},
        indent=1) + "\n")
    print(f"wrote {GOLDEN} ({len(ENTRIES)} entries)")
