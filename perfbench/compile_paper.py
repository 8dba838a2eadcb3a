"""``compile_paper``: cold compiles of the paper kernels, each run once.

One *round* is a fixed list of compile jobs (the ``ENTRIES`` below): the
full {naive, sherlock} x {ReRAM, STT-MRAM} x {MRA 2, 4} x {512, 1024}
matrix on the BFS step, one corner of it for each larger kernel
(bitweaving, Sobel, one-round AES — full AES costs tens of seconds per
compile), a multi-array slice (``schedule="multi"`` over 2-4 arrays) and
a capacity-starved slice whose targets are too small, so the degradation
ladder fires (recycle, then spill-and-partition).

An op is one job: a cold compile (process compile cache cleared,
``cache=False``) plus ``.metrics``/``.overlap``, then the first execution
on seeded inputs, checked with the kernel's own checker and against
``dfg.evaluate``.  Rounds repeat until the run's time is spent; the
seed only changes the inputs, so every round and every seed compiles the
same programs and their modelled cost repeats exactly.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

from common import (Outcome, now, profile_counts,
                    profile_report, program_profile, spanner)

#: simulated lanes of the first execution
LANES = 32


@dataclass(frozen=True)
class Entry:
    """One compile job of the round."""

    kernel: str
    mapper: str
    tech: str
    mra: int
    size: int
    #: None keeps the target's default array count
    arrays: int | None = None
    schedule: str = "single"


def _matrix(kernel: str) -> list[Entry]:
    return [Entry(kernel, mapper, tech, mra, size)
            for mapper in ("naive", "sherlock")
            for tech in ("reram", "stt-mram")
            for mra in (2, 4)
            for size in (512, 1024)]


ENTRIES = (
    _matrix("bfs")
    + [Entry("bitweaving", "sherlock", "stt-mram", 4, 512),
       Entry("sobel", "sherlock", "reram", 4, 1024),
       Entry("aes1", "sherlock", "reram", 4, 512)]
    # multi-array slice: one kernel co-scheduled over 2 and 4 arrays
    + [Entry("bfs", "sherlock", "reram", 2, 128, arrays=2, schedule="multi"),
       Entry("bfs", "sherlock", "reram", 2, 128, arrays=4, schedule="multi"),
       Entry("bitweaving", "sherlock", "reram", 2, 128, arrays=4,
             schedule="multi")]
    # capacity-starved slice: recycle fails, spill-and-partition succeeds
    + [Entry("bfs", "sherlock", "reram", 2, 32, arrays=1),
       Entry("bfs", "sherlock", "reram", 2, 16, arrays=2)]
)

#: the smoke-test round: one job per slice, small kernels only
TINY_ENTRIES = (
    Entry("bfs", "sherlock", "stt-mram", 4, 512),
    Entry("bfs", "naive", "reram", 2, 1024),
    Entry("bfs", "sherlock", "reram", 2, 128, arrays=2, schedule="multi"),
    Entry("bfs", "sherlock", "reram", 2, 32, arrays=1),
)


@dataclass
class Kernel:
    """A DAG with its seeded input generator and reference checker."""

    dag: object
    make_inputs: object
    check: object


def _aes1_kernel(dag):
    from repro.errors import SherlockError
    from repro.workloads import aes

    def make_inputs(rng, lanes):
        blocks = [bytes(rng.randrange(256) for _ in range(16))
                  for _ in range(lanes)]
        return aes.block_inputs(blocks, aes.FIPS_KEY, 1)

    def check(inputs, outputs, lanes):
        got = aes.decode_blocks(outputs, lanes)
        for lane in range(lanes):
            block = bytes(
                sum(((inputs[f"pt{byte}[{bit}]"] >> lane) & 1) << bit
                    for bit in range(8))
                for byte in range(16))
            if got[lane] != aes.encrypt_reference(block, aes.FIPS_KEY, 1):
                raise SherlockError(f"aes1 mismatch at lane {lane}")

    return Kernel(dag, make_inputs, check)


@dataclass
class State:
    """Everything a run needs, built by :func:`setup`."""

    seed: int
    entries: tuple[Entry, ...]
    kernels: dict[str, Kernel]


def warm() -> None:
    """One-time lazy work: imports and the first ``P_DF`` table."""
    from repro.arch.target import TargetSpec
    from repro.core.compiler import compile_dag
    from repro.devices import STT_MRAM
    from repro.workloads import synthetic_dag

    program = compile_dag(synthetic_dag(num_ops=8, num_inputs=4, seed=0),
                          TargetSpec.square(32, STT_MRAM), cache=False)
    program.metrics


def setup(seed: int, scale: str, scratch, seconds: float,
          tracer=None) -> State:
    """Build the kernels' DAGs (the frontend's share of set-up)."""
    from repro.workloads import aes, get_workload

    span = spanner(tracer)
    entries = ENTRIES if scale == "full" else TINY_ENTRIES
    kernels = {}
    for name in sorted({entry.kernel for entry in entries}):
        with span("frontend.build_dag"):
            if name == "aes1":
                kernels[name] = _aes1_kernel(aes.aes_dag(1))
            else:
                workload = get_workload(name)
                kernels[name] = Kernel(workload.build_dag(),
                                       workload.make_inputs, workload.check)
    return State(seed, tuple(entries), kernels)


def _target_and_config(entry: Entry):
    from repro.arch.target import TargetSpec
    from repro.core.config import CompilerConfig

    extra = {} if entry.arrays is None else {"num_arrays": entry.arrays}
    target = TargetSpec.square(entry.size, entry.tech,
                               max_activated_rows=entry.mra, **extra)
    config = CompilerConfig(mapper=entry.mapper, mra=entry.mra,
                            schedule=entry.schedule)
    return target, config


def run(state: State, seconds: float, tracer=None) -> Outcome:
    """Compile-and-run rounds until ``seconds`` have passed."""
    from repro import dfg
    from repro.core.compiler import clear_compile_cache, compile_dag

    span = spanner(tracer)
    jobs = [(entry, *_target_and_config(entry)) for entry in state.entries]
    out = Outcome()
    first_profiles: dict[int, dict] = {}
    round_compile: list[float] = []
    round_first_run: list[float] = []
    program = None
    out.start = now()
    rounds = 0
    while True:
        compile_s = first_run_s = 0.0
        out.rounds.append([])
        for index, (entry, target, config) in enumerate(jobs):
            kernel = state.kernels[entry.kernel]
            rng = random.Random(f"compile_paper:{state.seed}:{rounds}:{index}")
            inputs = kernel.make_inputs(rng, LANES)
            clear_compile_cache()
            out.attempted += 1
            t0 = now()
            try:
                program = compile_dag(kernel.dag, target, config, cache=False)
                program.metrics
                program.overlap
                t1 = now()
                outputs = program.execute(inputs, LANES)
                with span("workloads.check"):
                    kernel.check(inputs, outputs, LANES)
                if outputs != dfg.evaluate(kernel.dag, inputs, LANES):
                    raise AssertionError("outputs differ from dfg.evaluate")
            except Exception as error:  # any failure is a failed op
                out.fail(f"{entry}: {type(error).__name__}: {error}")
                continue
            t2 = now()
            out.rounds[-1].append((t2 - t0, 1.0))
            compile_s += t1 - t0
            first_run_s += t2 - t1
            profile = program_profile(program)
            if rounds == 0:
                first_profiles[index] = profile
            elif profile != first_profiles.get(index, profile):
                out.errors.append(f"{entry}: round {rounds} compiled "
                                  f"{profile}, round 0 {first_profiles[index]}")
        rounds += 1
        round_compile.append(compile_s)
        round_first_run.append(first_run_s)
        elapsed = now() - out.start
        if elapsed + elapsed / rounds / 2 >= seconds:
            break
    out.end = now()
    out.report = {
        "compile_s": (statistics.median(round_compile), "s"),
        "first_run_s": (statistics.median(round_first_run), "s"),
        "rounds": (rounds, "count"),
    }
    if program is not None and len(first_profiles) == len(jobs):
        profiles = list(first_profiles.values())
        out.report.update(profile_report(profiles, program))
        out.counts.update(profile_counts(profiles))
    return out


def finish(state: State, out: Outcome) -> None:
    """Nothing to check after the window: every op was checked inline."""


def close(state: State) -> None:
    """Nothing to release."""
