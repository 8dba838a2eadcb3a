"""The Sherlock compiler driver: DAG in, scheduled CIM program out (Fig. 1).

Pipeline (run by the :mod:`repro.core.passes` pass manager)::

    DAG -> fold-duplicates -> cse -> mra-substitute -> nand-lower
        -> arity-clamp -> validate -> map-(naive | sherlock)
        -> CompiledProgram (layout + instructions + metrics + execution)

The pass list is configurable (``CompilerConfig.pipeline``); every pass is
timed and its IR statistics recorded on the resulting program
(``CompiledProgram.pass_events``).  A process-level compile cache keyed by
:func:`program_key` (a memory-only :class:`~repro.core.cache.ArtifactCache`)
lets repeated sweeps skip redundant recompiles.

A :class:`CompiledProgram` can be functionally executed against arbitrary
inputs (and verified against the source DAG), priced into the Table 2
latency/energy metrics, and inspected as Fig. 4-style text.
"""

from __future__ import annotations

import pathlib
import random
import time
from dataclasses import dataclass, field
from functools import cached_property

from repro.arch.isa import Instruction, program_text
from repro.arch.target import TargetSpec
from repro.core.cache import ArtifactCache, program_key
from repro.core.config import CompilerConfig
from repro.core.passes import (
    NAND_LOWERING_WINDOW,
    CompilationContext,
    PassEvent,
    PassManager,
    get_pass,
    place_passthrough_outputs,
    wants_nand_lowering,
)
from repro.dfg.evaluate import evaluate
from repro.dfg.graph import DataFlowGraph
from repro.dfg.stats import graph_stats
from repro.errors import CapacityError, MappingError, SherlockError
from repro.mapping.base import MappingResult
from repro.mapping.partition import Stage, combined_mapping, map_partitioned, run_program
from repro.sim.executor import ArrayMachine
from repro.sim.vectorized import resolve_engine
from repro.sim.metrics import (
    MultiArrayMetrics,
    OverlapTimeline,
    TraceMetrics,
    analyze_overlap,
    analyze_trace,
)

__all__ = [
    "NAND_LOWERING_WINDOW",
    "CompiledProgram",
    "LadderAttempt",
    "SherlockCompiler",
    "clear_compile_cache",
    "compile_cache_info",
    "compile_dag",
    "program_key",
]


@dataclass(frozen=True)
class LadderAttempt:
    """One rung of the graceful-degradation ladder: tried, and how it went."""

    rung: str  # e.g. "sherlock", "sherlock+recycle", "naive+partitioned"
    succeeded: bool
    error: str | None = None
    #: number of partitions the rung compiled into (1 = unpartitioned)
    stages: int = 1


@dataclass
class CompiledProgram:
    """The compiler's output: a mapped, scheduled, executable CIM program."""

    source_dag: DataFlowGraph
    dag: DataFlowGraph
    target: TargetSpec
    config: CompilerConfig
    mapping: MappingResult
    #: structured per-pass log of the pipeline that produced this program
    pass_events: list[PassEvent] = field(default_factory=list)
    #: partitions of a spill-and-partition compile (None = single program)
    stages: list[Stage] | None = None
    #: every degradation rung the compiler tried, in order
    ladder: list[LadderAttempt] = field(default_factory=list)
    #: name of the rung that produced this program ("none" = no fallback)
    degradation: str = "none"
    #: the hard-fault map the program was placed around (None = fault-blind)
    fault_map: object | None = None

    @property
    def instructions(self) -> list[Instruction]:
        """The scheduled instruction trace (shared with the mapping)."""
        return self.mapping.instructions

    @property
    def layout(self):
        """The cell placement the mapper chose for every operand."""
        return self.mapping.layout

    def _cache_entry(self):
        """The :class:`~repro.core.cache.ArtifactCache` entry this program
        is a view of (``None`` for any other program): a view's derived
        facts are its entry's, computed once for every hit."""
        return self.__dict__.get("_entry")

    @cached_property
    def metrics(self) -> TraceMetrics:
        """Latency/energy/P_app of one run of the program (Table 2 row)."""
        entry = self._cache_entry()
        if entry is not None:
            return entry.metrics
        return analyze_trace(self.instructions, self.target)

    @cached_property
    def overlap(self) -> MultiArrayMetrics:
        """Overlap-model timing: per-array busy time, bus occupancy, makespan.

        Replays the trace through :class:`repro.sim.metrics.OverlapTimeline`,
        which lets independent arrays advance concurrently while ``xfer``
        bridge copies serialize on the shared global bus.  Staged
        (spill-and-partition) programs insert a host-synchronization
        barrier between stages — a stage cannot start before every array
        of the previous one drained.
        """
        entry = self._cache_entry()
        if entry is not None:
            return entry.overlap
        if self.stages is None:
            return analyze_overlap(self.instructions, self.target)
        timeline = OverlapTimeline(self.target)
        for index, stage in enumerate(self.stages):
            if index:
                timeline.barrier()
                for inst in stage.bridge:
                    timeline.step(inst)
            for inst in stage.mapping.instructions:
                timeline.step(inst)
        return timeline.metrics

    def text(self) -> str:
        """The program in the Fig. 4 instruction format."""
        return program_text(self.instructions)

    @property
    def spare_pool(self):
        """The layout's free cells that verify-path remapping may use."""
        return self.layout.spare_cells()

    def machine(self, lanes: int = 64,
                fault_rng: random.Random | int | None = None,
                observer=None, verify_writes: bool = False, *,
                fault_map=None, spare_cells: bool = True) -> ArrayMachine:
        """The :class:`ArrayMachine` for this program: the one builder
        every interpreted run uses.

        The machine carries the program's fault map (or ``fault_map``, a
        different ground truth such as a serve array's real map), and with
        ``verify_writes`` also verify-after-write (``config.write_retries``
        re-attempts) plus the :attr:`spare_pool` for remap escalation
        (``spare_cells=False`` withholds it).  Staged programs get no spare
        pool — a cell free in one stage may be occupied by the next, so
        their verify path escalates straight to :class:`HardFaultError` and
        the remap-recompile rung.
        """
        spare_pool = None
        if verify_writes and spare_cells and self.stages is None:
            spare_pool = self.spare_pool
        return ArrayMachine(
            self.target, lanes, fault_rng, strict_shift=True,
            observer=observer,
            fault_map=self.fault_map if fault_map is None else fault_map,
            verify_writes=verify_writes,
            write_retries=self.config.write_retries,
            spare_pool=spare_pool)

    def execute(self, inputs: dict[str, int], lanes: int = 64,
                fault_rng: random.Random | int | None = None,
                observer=None, verify_writes: bool = False,
                engine: str = "auto") -> dict[str, int]:
        """Functionally execute the program on lane-bitmask inputs.

        Compiled programs run with ``strict_shift`` on: a schedule that
        shifts live row-buffer data off the array edge is a codegen bug and
        raises instead of silently corrupting an output.  ``observer`` is an
        optional :class:`repro.sim.executor.SenseObserver` (recovery hook).
        ``verify_writes`` turns on verify-after-write (see :meth:`machine`).

        Staged (spill-and-partition) programs run their stages back to
        back on one shared machine, carrying boundary values across
        (:func:`repro.mapping.partition.run_program`).

        ``engine`` selects the execution backend: ``"interpreted"`` (the
        :class:`ArrayMachine` reference), ``"vectorized"`` (the bit-packed
        numpy op-table of :mod:`repro.sim.vectorized` — bit-identical on
        deterministic runs, an order of magnitude faster), or ``"auto"``
        (vectorized whenever nothing requires the interpreter: no
        observer, no fault RNG, no verify-after-write).
        """
        engine = resolve_engine(engine, observer=observer,
                                fault_rng=fault_rng,
                                verify_writes=verify_writes)
        if engine == "vectorized":
            if observer is not None:
                raise SherlockError(
                    "the vectorized engine does not support sense "
                    "observers; use engine='interpreted'")
            from repro.sim.vectorized import execute as vector_execute

            return vector_execute(self, inputs, lanes=lanes,
                                  fault_rng=fault_rng,
                                  verify_writes=verify_writes)
        machine = self.machine(lanes, fault_rng, observer=observer,
                               verify_writes=verify_writes)
        return run_program(self, machine, inputs)

    def execute_many(self, input_sets, lanes: int = 64,
                     engine: str = "auto",
                     chunk: int = 256) -> list[dict[str, int]]:
        """Execute many independent input sets through one compiled program.

        The batch API of the compile-once/execute-many serving story: the
        program is lowered once (cached on the instance until its fault
        map changes) and the input sets stream through the vectorized
        op-table in memory-bounded chunks.  ``engine="interpreted"`` runs the reference executor per
        set instead (slow — for cross-checking).  Returns one output
        dictionary per input set, in order.
        """
        engine = resolve_engine(engine)
        if engine == "interpreted":
            return [self.execute(inputs, lanes, engine="interpreted")
                    for inputs in input_sets]
        from repro.sim.vectorized import execute_many as vector_many

        return vector_many(self, input_sets, lanes=lanes, chunk=chunk)

    def verify(self, inputs: dict[str, int], lanes: int = 64) -> bool:
        """Execute and compare against the source DAG's reference semantics.

        Raises :class:`SherlockError` on a mismatch; returns ``True``.
        """
        expected = evaluate(self.source_dag, inputs, lanes)
        actual = self.execute(inputs, lanes)
        if expected != actual:
            diffs = {name: (expected[name], actual.get(name))
                     for name in expected if expected[name] != actual.get(name)}
            raise SherlockError(f"compiled program diverges on outputs: {diffs}")
        return True


# ----------------------------------------------------------------------
# process-level compile cache
# ----------------------------------------------------------------------
#: the process-wide cache consulted by every caching :class:`SherlockCompiler`
_COMPILE_CACHE = ArtifactCache()


def compile_cache_info() -> dict[str, int]:
    """The process-level compile cache's :meth:`ArtifactCache.stats`."""
    return _COMPILE_CACHE.stats()


def clear_compile_cache() -> None:
    """Empty the process-level compile cache (tests, memory pressure)."""
    _COMPILE_CACHE.clear()


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
class SherlockCompiler:
    """End-to-end compiler for one target and configuration.

    Instrumentation knobs (keyword-only) control the pass manager:
    ``validate_passes`` re-checks the DAG invariants after every pass,
    ``dump_ir_dir`` writes a DOT+JSON IR snapshot per pass, and ``cache``
    consults/feeds the process-level compile cache.

    ``fault_map`` (a :class:`repro.devices.FaultMap`) makes the whole
    compile fault-aware: the mappers place operands only on healthy cells.
    Fault-aware compiles participate in the process-level cache through
    the map's content digest (:meth:`~repro.devices.FaultMap.digest`):
    identical maps hit, any mutation changes the digest and misses, and
    cached entries hold frozen copies of the map so later mutation of a
    live map can never poison a hit.
    """

    def __init__(self, target: TargetSpec,
                 config: CompilerConfig | None = None, *,
                 validate_passes: bool = False,
                 dump_ir_dir: str | pathlib.Path | None = None,
                 cache: bool = True,
                 fault_map=None) -> None:
        self.target = target
        self.config = config or CompilerConfig()
        self.validate_passes = validate_passes
        self.dump_ir_dir = dump_ir_dir
        self.fault_map = fault_map
        self.cache = cache

    # ------------------------------------------------------------------
    def _wants_nand_lowering(self) -> bool:
        return wants_nand_lowering(self.target, self.config)

    def pass_manager(self, terminal: bool = True) -> PassManager:
        """The pass manager for this configuration.

        ``terminal=False`` drops the final mapping pass, leaving the pure
        DAG-rewrite prefix (what :meth:`transform` runs).
        """
        names = list(self.config.effective_pipeline())
        if not terminal:
            names = [n for n in names if not get_pass(n).terminal]
        return PassManager(names, validate_each=self.validate_passes,
                           dump_ir_dir=self.dump_ir_dir)

    def _context(self, dag: DataFlowGraph) -> CompilationContext:
        work = dag.copy(name=f"{dag.name}.{self.config.mapper}")
        return CompilationContext(source_dag=dag, dag=work,
                                  target=self.target, config=self.config,
                                  fault_map=self.fault_map)

    def transform(self, dag: DataFlowGraph) -> DataFlowGraph:
        """Apply the configured DAG rewrites; the input is left untouched."""
        ctx = self.pass_manager(terminal=False).run(self._context(dag))
        return ctx.dag

    def compile(self, dag: DataFlowGraph) -> CompiledProgram:
        """Transform, map, and schedule a DAG for the target.

        When the mapper runs out of capacity and ``config.fallback`` is
        ``"ladder"``, the graceful-degradation ladder retries the compile
        with cell recycling, then spill-and-partition, then the naive
        mapper partitioned; every attempt is recorded on the program's
        ``ladder`` (and as ``ladder:*`` pass events).  ``"strict"``
        preserves the fail-fast behavior.
        """
        key = None
        if self.cache:
            key = program_key(dag, self.target, self.config,
                              self.fault_map)
            cached = _COMPILE_CACHE.get(key)
            if cached is not None:
                # an empty map keys like none: hand out the caller's own
                cached.source_dag, cached.config = dag, self.config
                cached.fault_map = (self.fault_map.copy()
                                    if self.fault_map is not None else None)
                return cached
        ctx = self._context(dag)
        manager = self.pass_manager()
        try:
            manager.run(ctx)
        except MappingError as exc:
            # only the terminal (mapping) pass has rungs to fall back to;
            # its failure leaves the transformed graph for them to reuse
            mapping_failed = len(ctx.events) == len(manager.passes) - 1
            if self.config.fallback != "ladder" or not mapping_failed:
                raise
            program = self._compile_ladder(ctx, exc)
        else:
            if ctx.mapping is None:
                raise SherlockError(
                    f"pipeline {self.config.effective_pipeline()} produced "
                    "no mapping; it must end with a terminal map-* pass")
            program = CompiledProgram(
                source_dag=dag, dag=ctx.dag, target=self.target,
                config=self.config, mapping=ctx.mapping,
                pass_events=ctx.events, fault_map=self.fault_map)
        if key is not None:
            _COMPILE_CACHE.put(key, program)
        return program

    # ------------------------------------------------------------------
    # the graceful-degradation ladder
    # ------------------------------------------------------------------
    def _mapper_fn(self, mapper_name: str, recycle: bool):
        """A one-argument DAG -> MappingResult closure for a rung."""
        from repro.mapping.naive import map_naive
        from repro.mapping.optimized import SherlockOptions, map_sherlock

        if mapper_name == "naive":
            return lambda d: map_naive(d, self.target, recycle=recycle,
                                       fault_map=self.fault_map)
        if mapper_name == "multiarray":
            from repro.mapping.multiarray import (
                MultiArrayOptions,
                map_multiarray,
            )

            multi = MultiArrayOptions(
                alpha=self.config.alpha,
                beta=self.config.beta,
                merge_instructions=self.config.merge_instructions,
                recycle=recycle,
                exclude_arrays=self.config.exclude_arrays,
                array_penalties=self.config.array_penalties)
            return lambda d: map_multiarray(d, self.target, multi,
                                            fault_map=self.fault_map)
        options = SherlockOptions(
            alpha=self.config.alpha, beta=self.config.beta,
            merge_instructions=self.config.merge_instructions,
            recycle=recycle)
        return lambda d: map_sherlock(d, self.target, options,
                                      fault_map=self.fault_map)

    def _map_whole(self, ctx: CompilationContext, mapper_name: str,
                   recycle: bool) -> tuple[MappingResult, None]:
        mapping = self._mapper_fn(mapper_name, recycle)(ctx.dag)
        # the multi-array mapper schedules a private copy (recompute clones
        # mutate it); adopt that copy so the program's DAG matches the trace
        ctx.dag = mapping.dag
        place_passthrough_outputs(ctx.dag, mapping)
        return mapping, None

    def _map_parts(self, ctx: CompilationContext, mapper_name: str,
                   recycle: bool) -> tuple[MappingResult, list[Stage]]:
        stages = map_partitioned(ctx.dag, self.target,
                                 self._mapper_fn(mapper_name, recycle))
        mapping = combined_mapping(ctx.dag, self.target, stages,
                                   f"{mapper_name}+partitioned")
        return mapping, stages

    def _compile_ladder(self, ctx: CompilationContext,
                        first_error: MappingError) -> CompiledProgram:
        """Walk the degradation rungs after the configured mapper failed.

        ``ctx`` is the context the transform passes ran on; the rungs map
        its working graph.
        """
        base = ("multiarray" if self.config.schedule == "multi"
                else self.config.mapper)
        attempts = [LadderAttempt(rung=base, succeeded=False,
                                  error=str(first_error))]

        recycle = self.config.recycle != "never"
        rungs: list[tuple[str, object]] = []
        if recycle and self.config.recycle != "always":
            # rung 0 already ran with recycling when recycle == "always"
            rungs.append((f"{base}+recycle",
                          lambda: self._map_whole(ctx, base, recycle=True)))
        # the serial spill-and-partition chain always uses the configured
        # mapper, so a failed multi-array co-schedule still degrades to the
        # proven staged path
        rungs.append((f"{self.config.mapper}+partitioned",
                      lambda: self._map_parts(ctx, self.config.mapper,
                                              recycle)))
        if self.config.mapper != "naive":
            rungs.append(("naive+partitioned",
                          lambda: self._map_parts(ctx, "naive", recycle)))

        stats = graph_stats(ctx.dag)
        for rung, attempt in rungs:
            start = time.perf_counter()
            try:
                mapping, stages = attempt()
            except MappingError as exc:
                attempts.append(LadderAttempt(rung=rung, succeeded=False,
                                              error=str(exc)))
                ctx.events.append(PassEvent(
                    name=f"ladder:{rung}",
                    wall_s=time.perf_counter() - start,
                    before=stats, after=stats,
                    notes={"failed": str(exc)}))
                continue
            attempts.append(LadderAttempt(
                rung=rung, succeeded=True,
                stages=len(stages) if stages else 1))
            ctx.events.append(PassEvent(
                name=f"ladder:{rung}",
                wall_s=time.perf_counter() - start,
                before=stats, after=stats,
                notes={"instructions": len(mapping.instructions),
                       "stages": len(stages) if stages else 1}))
            return CompiledProgram(
                source_dag=ctx.source_dag, dag=ctx.dag, target=self.target,
                config=self.config, mapping=mapping,
                pass_events=ctx.events, stages=stages,
                ladder=attempts, degradation=rung,
                fault_map=self.fault_map)

        summary = "\n  ".join(f"{a.rung}: {a.error}" for a in attempts)
        fields = (first_error if isinstance(first_error, CapacityError)
                  else None)
        suggested = fields.suggested_num_arrays if fields else None
        validated = None
        if fields is not None:
            suggested, validated = self._validate_suggestion(
                ctx.dag, suggested or self.target.num_arrays + 1)
        raise CapacityError(
            f"every degradation rung failed:\n  {summary}",
            required_cells=fields.required_cells if fields else None,
            available_cells=fields.available_cells if fields else None,
            num_arrays=self.target.num_arrays,
            suggested_num_arrays=suggested,
            suggestion_validated=validated) from first_error

    def _validate_suggestion(self, dag: DataFlowGraph,
                             suggested: int) -> tuple[int, bool]:
        """Prove a ``suggested_num_arrays`` by retrying the schedule there.

        The naive suggestion scales the array count by the cell overshoot,
        which ignores padding, duplicate copies, and fault clustering.
        Instead of reporting that guess unchecked, retry the multi-array
        co-schedule at the suggested count (doubling on failure, a few
        times); the first count that actually maps becomes the validated
        suggestion.  Returns ``(count, True)`` on proof, or the original
        guess with ``False`` when no probed count fit.  ``suggested`` may
        exceed the naive estimate when the estimate was absent (the caller
        substitutes ``num_arrays + 1``).
        """
        from repro.mapping.multiarray import MultiArrayOptions, map_multiarray

        options = MultiArrayOptions(
            alpha=self.config.alpha,
            beta=self.config.beta,
            merge_instructions=self.config.merge_instructions,
            recycle=self.config.recycle != "never",
            exclude_arrays=self.config.exclude_arrays,
            array_penalties=self.config.array_penalties)
        candidate = max(suggested, self.target.num_arrays + 1)
        for _ in range(4):
            try:
                map_multiarray(dag, self.target.with_(num_arrays=candidate),
                               options, fault_map=self.fault_map)
            except MappingError:
                candidate *= 2
            else:
                return candidate, True
        return suggested, False

    # ------------------------------------------------------------------
    # the runtime (remap) rung
    # ------------------------------------------------------------------
    def remap(self, program: CompiledProgram, discovered) -> CompiledProgram:
        """Recompile a program around hard faults discovered at runtime.

        ``discovered`` is a :class:`repro.devices.FaultMap` — typically an
        :class:`ArrayMachine`'s ``discovered_faults`` after verify-after-
        write exhausted its retries and spares (:class:`HardFaultError`).
        The faults are merged into this compiler's map (first diagnosis
        wins) and the program's *source* DAG is recompiled fault-aware;
        the resulting program records the ``remap`` degradation rung.
        Raises :class:`CapacityError` when the surviving healthy cells no
        longer fit the program — the end of the array's serviceable life.
        """
        from repro.devices.faultmap import FaultMap

        merged = (self.fault_map.copy() if self.fault_map is not None
                  else FaultMap())
        added = merged.merge(discovered)
        rebuilt = SherlockCompiler(
            self.target, self.config, validate_passes=self.validate_passes,
            dump_ir_dir=self.dump_ir_dir, cache=self.cache,
            fault_map=merged)
        new_program = rebuilt.compile(program.source_dag)
        new_program.ladder = (list(program.ladder)
                              + [LadderAttempt(rung="remap", succeeded=True,
                                               stages=(len(new_program.stages)
                                                       if new_program.stages
                                                       else 1))])
        new_program.degradation = "remap"
        new_program.pass_events.append(PassEvent(
            name="ladder:remap", wall_s=0.0,
            before=graph_stats(new_program.dag),
            after=graph_stats(new_program.dag),
            notes={"discovered_faults": len(discovered),
                   "new_faults": added, "total_faults": len(merged)}))
        return new_program


def compile_dag(dag: DataFlowGraph, target: TargetSpec,
                config: CompilerConfig | None = None, *,
                cache: bool = True) -> CompiledProgram:
    """One-call convenience wrapper around :class:`SherlockCompiler`."""
    return SherlockCompiler(target, config, cache=cache).compile(dag)
