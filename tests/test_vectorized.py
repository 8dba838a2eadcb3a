"""Differential tests: the vectorized backend vs the interpreted reference.

The contract of ``repro.sim.vectorized`` is bit-exactness on every
deterministic run: same outputs *and* the same machine counters as the
interpreted :class:`~repro.sim.executor.ArrayMachine` across the whole
semantic matrix — every ISA op, MRA level, stuck-at fault-map pattern,
verify-after-write escalation, staged (spill-and-partition) and
multi-array programs.  Only injected-fault draw streams may differ
(distribution-equivalent by construction, checked statistically).
"""

from __future__ import annotations

import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.target import TargetSpec
from repro.core.compiler import SherlockCompiler, compile_dag
from repro.core.config import CompilerConfig
from repro.devices import RERAM, STT_MRAM, CellFault, FaultMap
from repro.dfg import DataFlowGraph, OpType, evaluate, evaluate_many
from repro.errors import HardFaultError, SherlockError
from repro.reliability.campaign import (
    ShardOutcome,
    run_campaign,
    run_trial_block,
    sense_failure_probabilities,
    shard_ranges,
)
from repro.reliability.recovery import POLICIES, get_policy
from repro.sim.endurance import static_write_counts
from repro.sim.executor import extract_outputs, preload_sources
from repro.sim.vectorized import (
    ENGINES,
    VectorMachine,
    campaign_trials,
    execute as vector_execute,
    pack_values,
    resolve_engine,
    unpack_values,
    validate_engine,
    vector_program,
)
from repro.util import write_victims
from repro.workloads import get_workload
from repro.workloads.synthetic import synthetic_dag

BINARY_OPS = [OpType.AND, OpType.OR, OpType.XOR,
              OpType.NAND, OpType.NOR, OpType.XNOR]


def _inputs_for(dag, lanes: int, seed: int = 0) -> dict[str, int]:
    rng = random.Random(seed)
    return {op.name: rng.getrandbits(lanes) for op in dag.inputs()}


def _op_dag(op: OpType, arity: int) -> DataFlowGraph:
    """One op of each type plus consumers, so senses feed further senses."""
    dag = DataFlowGraph(f"op-{op.value}-{arity}")
    values = [dag.add_input(f"x{i}") for i in range(max(arity, 2))]
    if op is OpType.NOT:
        first = dag.add_op(op, [values[0]])
    else:
        first = dag.add_op(op, values[:arity])
    second = dag.add_op(OpType.XOR, [first, values[-1]])
    dag.mark_output(first, "direct")
    dag.mark_output(second, "chained")
    return dag


def _differential(program, inputs, lanes: int) -> dict[str, int]:
    """Outputs of both engines, asserted bit-identical (and returned)."""
    interpreted = program.execute(inputs, lanes, engine="interpreted")
    vectorized = program.execute(inputs, lanes, engine="vectorized")
    assert interpreted == vectorized
    return vectorized


class TestEngineSelection:
    def test_unknown_engine_rejected_with_valid_list(self):
        program = compile_dag(_op_dag(OpType.AND, 2),
                              TargetSpec.square(16, RERAM), cache=False)
        with pytest.raises(SherlockError, match=r"auto, interpreted, vectorized"):
            program.execute(_inputs_for(program.source_dag, 8), 8,
                            engine="turbo")

    def test_validate_engine_accepts_all_engines(self):
        for engine in ("auto",) + ENGINES:
            assert validate_engine(engine) == engine
        with pytest.raises(SherlockError):
            validate_engine("auto", allow_auto=False)

    def test_auto_resolution_is_conservative(self):
        assert resolve_engine("auto") == "vectorized"
        assert resolve_engine("auto", fault_rng=7) == "interpreted"
        assert resolve_engine("auto", verify_writes=True) == "interpreted"
        assert resolve_engine("auto", observer=object()) == "interpreted"
        assert resolve_engine("interpreted", fault_rng=7) == "interpreted"

    def test_vectorized_rejects_observer(self):
        program = compile_dag(_op_dag(OpType.AND, 2),
                              TargetSpec.square(16, RERAM), cache=False)
        with pytest.raises(SherlockError, match="observer"):
            program.execute(_inputs_for(program.source_dag, 8), 8,
                            observer=object(), engine="vectorized")


class TestOpMatrix:
    @pytest.mark.parametrize("mra", [2, 4])
    @pytest.mark.parametrize("op", BINARY_OPS + [OpType.NOT])
    def test_every_isa_op_every_mra(self, op, mra):
        arities = [1] if op is OpType.NOT else [2, 3]
        for arity in arities:
            dag = _op_dag(op, arity)
            target = TargetSpec.square(32, RERAM, max_activated_rows=max(2, mra))
            program = compile_dag(dag, target, CompilerConfig(mra=mra),
                                  cache=False)
            inputs = _inputs_for(dag, 16, seed=arity)
            outputs = _differential(program, inputs, 16)
            assert outputs == evaluate(dag, inputs, 16)

    @pytest.mark.parametrize("lanes", [1, 8, 64, 100])
    def test_lane_widths_including_multiword(self, lanes):
        dag = synthetic_dag(num_ops=24, num_inputs=6, seed=5, name="lanes")
        program = compile_dag(dag, TargetSpec.square(64, RERAM), cache=False)
        inputs = _inputs_for(dag, lanes, seed=lanes)
        outputs = _differential(program, inputs, lanes)
        assert outputs == evaluate(dag, inputs, lanes)

    def test_error_messages_match_interpreter(self):
        dag = _op_dag(OpType.AND, 2)
        program = compile_dag(dag, TargetSpec.square(16, RERAM), cache=False)
        errors = {}
        for engine in ENGINES:
            with pytest.raises(SherlockError) as info:
                program.execute({"x0": 1}, 8, engine=engine)
            errors[engine] = str(info.value)
        assert errors["interpreted"] == errors["vectorized"]


class TestFaultMapMatrix:
    @pytest.mark.parametrize("kinds", [
        (CellFault.STUCK0,),
        (CellFault.STUCK1,),
        (CellFault.DEAD,),
        (CellFault.STUCK0, CellFault.STUCK1, CellFault.DEAD),
    ])
    def test_stuck_at_patterns(self, kinds):
        dag = synthetic_dag(num_ops=20, num_inputs=6, seed=2, name="faulty")
        target = TargetSpec.square(32, RERAM)
        fm = FaultMap.random_map(target, 0.03, seed=9, kinds=kinds)
        program = SherlockCompiler(target, CompilerConfig(),
                                   fault_map=fm).compile(dag)
        inputs = _inputs_for(dag, 16, seed=3)
        _differential(program, inputs, 16)

    def test_write_counts_match_on_faulty_arrays(self):
        dag = synthetic_dag(num_ops=16, num_inputs=5, seed=4, name="wc")
        target = TargetSpec.square(32, RERAM)
        fm = FaultMap.random_map(target, 0.02, seed=1,
                                 kinds=(CellFault.STUCK0, CellFault.STUCK1))
        program = SherlockCompiler(target, CompilerConfig(),
                                   fault_map=fm).compile(dag)
        inputs = _inputs_for(dag, 8)
        machine = program.machine(8)
        preload_sources(machine, program.layout, program.dag, inputs)
        machine.run(program.instructions)
        extract_outputs(machine, program.layout, program.dag)
        vmachine = VectorMachine(8)
        vector_execute(program, inputs, lanes=8, machine=vmachine)
        assert vmachine.write_counts == machine.write_counts


def _verified_interpreted(program, inputs, lanes):
    """Interpreted verify-after-write run exposing the machine counters."""
    machine = program.machine(lanes, verify_writes=True)
    if program.stages is not None:
        from repro.mapping.partition import execute_staged

        outputs = execute_staged(program.stages, program.dag,
                                 program.target, inputs, lanes,
                                 machine=machine)
    else:
        preload_sources(machine, program.layout, program.dag, inputs)
        machine.run(program.instructions)
        outputs = extract_outputs(machine, program.layout, program.dag)
    return outputs, machine


class TestVerifyAfterWrite:
    def test_counters_bit_identical_with_stuck_cells_and_spares(self):
        dag = synthetic_dag(num_ops=18, num_inputs=6, seed=6, name="verify")
        target = TargetSpec.square(32, RERAM)
        fm = FaultMap.random_map(target, 0.02, seed=5,
                                 kinds=(CellFault.STUCK0, CellFault.STUCK1,
                                        CellFault.DEAD))
        program = SherlockCompiler(target, CompilerConfig(),
                                   fault_map=fm).compile(dag)
        inputs = _inputs_for(dag, 8, seed=7)
        expected, machine = _verified_interpreted(program, inputs, 8)
        vmachine = VectorMachine(8)
        got = vector_execute(program, inputs, lanes=8, verify_writes=True,
                             machine=vmachine)
        assert got == expected
        assert vmachine.writes_verified == machine.writes_verified
        assert vmachine.write_retries_used == machine.write_retries_used
        assert vmachine.remaps == machine.remaps
        assert (vmachine.discovered_faults.cells()
                == machine.discovered_faults.cells())
        assert vmachine.write_counts == machine.write_counts

    def test_hard_fault_errors_byte_identical(self):
        dag = synthetic_dag(num_ops=40, num_inputs=6, seed=8, name="hard")
        target = TargetSpec.square(8, RERAM, num_arrays=2)
        program = compile_dag(dag, target, CompilerConfig(), cache=False)
        assert program.stages is not None  # staged: no spare pool
        fm = FaultMap()
        cell = next(iter(static_write_counts(program.instructions)))
        fm.mark_dead(*cell)
        faulty = SherlockCompiler(target, CompilerConfig()).compile(dag)
        object.__setattr__(faulty, "fault_map", fm)
        inputs = _inputs_for(dag, 8)
        messages = {}
        for engine in ENGINES:
            with pytest.raises(HardFaultError) as info:
                faulty.execute(inputs, 8, verify_writes=True, engine=engine)
            messages[engine] = str(info.value)
        assert messages["interpreted"] == messages["vectorized"]


class TestStagedAndMultiArray:
    def test_staged_program_differential(self):
        dag = synthetic_dag(num_ops=40, num_inputs=6, seed=8, name="staged")
        target = TargetSpec.square(8, RERAM, num_arrays=2)
        program = compile_dag(dag, target, CompilerConfig(), cache=False)
        assert program.stages is not None
        inputs = _inputs_for(dag, 8, seed=1)
        outputs = _differential(program, inputs, 8)
        assert outputs == evaluate(dag, inputs, 8)

    def test_multi_array_schedule_differential(self):
        dag = get_workload("sobel").build_dag()
        target = TargetSpec.square(128, RERAM, num_arrays=4)
        program = compile_dag(dag, target,
                              CompilerConfig(schedule="multi"), cache=False)
        inputs = get_workload("sobel").make_inputs(random.Random(2), 8)
        _differential(program, inputs, 8)


def _entry_program(staged: bool):
    """One unstaged and one staged (spill-and-partition) program."""
    if staged:
        dag = synthetic_dag(num_ops=40, num_inputs=6, seed=8, name="staged")
        target = TargetSpec.square(8, RERAM, num_arrays=2)
    else:
        dag = synthetic_dag(num_ops=24, num_inputs=6, seed=8, name="flat")
        target = TargetSpec.square(32, RERAM, num_arrays=2)
    program = compile_dag(dag, target, CompilerConfig(), cache=False)
    assert (program.stages is not None) == staged
    return program


def _run_entry(entry: str, program, inputs, lanes: int) -> dict[str, int]:
    """Fault-free outputs of ``program`` through one execution entry point."""
    from repro.serve import CompileService, ServeRequest
    from repro.sim.wearlevel import rotate_program

    if entry in ("interpreted", "vectorized"):
        return program.execute(inputs, lanes, engine=entry)
    if entry == "rotated":
        return rotate_program(program, 3).execute(inputs, lanes)
    if entry == "serve":
        with CompileService(program.target, program.config,
                            workers=1) as service:
            result = service.process([ServeRequest(
                dag=program.source_dag, inputs=inputs, lanes=lanes)])[0]
        assert result.error is None and result.engine == "cim"
        assert result.degradation == program.degradation
        return result.outputs
    return get_policy(entry.removeprefix("policy:")).execute(
        program, inputs, lanes, fault_rng=None)


ENTRY_POINTS = (["interpreted", "vectorized", "rotated", "serve"]
                + [f"policy:{name}" for name in sorted(POLICIES)])


class TestEveryEntryPoint:
    """Every way to run a compiled program agrees with ``dfg.evaluate``,
    unstaged and staged alike (rotation cannot apply to a staged program,
    and checkpoint-replay rejects one with a structured error)."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("staged", [False, True],
                             ids=["unstaged", "staged"])
    def test_fault_free_outputs_match_reference(self, entry, staged):
        program = _entry_program(staged)
        inputs = _inputs_for(program.source_dag, 8, seed=4)
        if staged and entry in ("rotated", "policy:checkpoint-replay"):
            with pytest.raises(SherlockError, match="staged program"):
                _run_entry(entry, program, inputs, 8)
            return
        assert (_run_entry(entry, program, inputs, 8)
                == evaluate(program.source_dag, inputs, 8))


class TestExecuteMany:
    def test_matches_per_set_execution_across_chunks(self):
        dag = synthetic_dag(num_ops=20, num_inputs=5, seed=3, name="many")
        program = compile_dag(dag, TargetSpec.square(32, RERAM), cache=False)
        sets = [_inputs_for(dag, 16, seed=i) for i in range(10)]
        per_set = [program.execute(s, 16, engine="interpreted")
                   for s in sets]
        assert program.execute_many(sets, 16) == per_set
        assert program.execute_many(sets, 16, chunk=3) == per_set
        assert program.execute_many(sets, 16, engine="interpreted") == per_set
        assert evaluate_many(dag, sets, 16) == per_set

    def test_bad_inputs_rejected_per_set(self):
        dag = synthetic_dag(num_ops=8, num_inputs=4, seed=0, name="bad")
        program = compile_dag(dag, TargetSpec.square(32, RERAM), cache=False)
        good = _inputs_for(dag, 16)
        with pytest.raises(SherlockError, match="missing"):
            program.execute_many([good, {"x0": 1}], 16)



@pytest.mark.parametrize("lanes", [8, 64, 65])
def test_pack_values_masks_any_int(lanes):
    """Wide and negative values pack as their low ``lanes`` bits."""
    values = [0, 5, (1 << lanes) - 1, (1 << lanes) | 3, -1, (1 << 70) + 9]
    assert unpack_values(pack_values(values, lanes), lanes) == \
        [value & ((1 << lanes) - 1) for value in values]

class TestLoweringCache:
    def test_cached_lowering_reads_its_program(self):
        dag = synthetic_dag(num_ops=8, num_inputs=4, seed=0, name="cached")
        program = compile_dag(dag, TargetSpec.square(32, RERAM), cache=False)
        lowered = vector_program(program, verify_writes=True)
        assert vector_program(program, verify_writes=True) is lowered
        program.fault_map = FaultMap()
        mapped = vector_program(program, verify_writes=True)
        assert mapped is not lowered
        assert vector_program(program, verify_writes=True) is mapped
        program.fault_map.mark_dead(0, 31, 31)
        assert vector_program(program, verify_writes=True) is not mapped

    def test_executed_program_is_freed_without_the_cycle_collector(self):
        dag = synthetic_dag(num_ops=24, num_inputs=6, seed=1, name="freed")
        gc.collect()
        gc.disable()
        try:
            program = compile_dag(dag, TargetSpec.square(32, RERAM),
                                  cache=False)
            inputs = _inputs_for(dag, 8)
            program.execute(inputs, 8, engine="vectorized")
            program.execute(inputs, 8, verify_writes=True,
                            engine="vectorized")
            ref = weakref.ref(program)
            del program
            assert ref() is None
        finally:
            gc.enable()


def _verified_vectorized(program, inputs, lanes):
    """Vectorized verify-after-write run exposing the machine counters."""
    vmachine = VectorMachine(lanes)
    outputs = vector_execute(program, inputs, lanes=lanes,
                             verify_writes=True, machine=vmachine)
    return outputs, vmachine


def _run_both_verified(program, inputs, lanes):
    """Both engines' verified runs: counters, or the hard fault raised."""
    runs = []
    for run in (_verified_interpreted, _verified_vectorized):
        try:
            outputs, machine = run(program, inputs, lanes)
        except HardFaultError as error:
            runs.append(("hard fault", str(error), error.attempts,
                         error.spares_tried))
        else:
            runs.append((outputs, machine.writes_verified,
                         machine.write_retries_used, machine.remaps,
                         machine.discovered_faults.cells(),
                         machine.write_counts))
    return runs


class TestFaultMapEdits:
    """The packed engine runs the map the program holds *now*: an edit
    after a packed run, or a swap between maps, reaches both engines."""

    def test_stuck_at_added_after_a_packed_run(self):
        dag = synthetic_dag(num_ops=20, num_inputs=6, seed=7, name="edit")
        target = TargetSpec.square(64, STT_MRAM)
        program = SherlockCompiler(target, CompilerConfig(),
                                   fault_map=FaultMap(),
                                   cache=False).compile(dag)
        inputs = _inputs_for(dag, 16, seed=7)
        clean = evaluate(dag, inputs, 16)
        assert _differential(program, inputs, 16) == clean
        name = next(n for n in sorted(clean) if clean[n] != 0xFFFF)
        addr = program.layout.primary(program.dag.outputs[name])
        program.fault_map.set_fault(addr.array, addr.row, addr.col,
                                    CellFault.STUCK1)
        stuck = _differential(program, inputs, 16)
        assert stuck[name] == 0xFFFF != clean[name]
        verified = {engine: program.execute(inputs, 16, verify_writes=True,
                                            engine=engine)
                    for engine in ENGINES}
        assert verified["interpreted"] == verified["vectorized"] == clean

    def test_one_program_alternating_between_two_maps(self):
        dag = synthetic_dag(num_ops=18, num_inputs=6, seed=6, name="swap")
        target = TargetSpec.square(32, RERAM)
        program = compile_dag(dag, target, CompilerConfig(), cache=False)
        inputs = _inputs_for(dag, 8, seed=7)
        first, second = write_victims(program, dag, inputs, 8, count=2)
        remapped = FaultMap({first: CellFault.STUCK0})
        # the second victim's column has no healthy spare left
        dry = FaultMap({second: CellFault.STUCK0})
        array, _, col = second
        for spare in program.spare_pool:
            if (spare.array, spare.col) == (array, col):
                dry.mark_dead(spare.array, spare.row, spare.col)
        for fault_map in (remapped, dry, remapped, dry):
            program.fault_map = fault_map
            interpreted, vectorized = _run_both_verified(program, inputs, 8)
            assert vectorized == interpreted
            assert program.execute(inputs, 8, engine="vectorized") == (
                program.execute(inputs, 8, engine="interpreted"))
            if fault_map is remapped:
                assert interpreted[0] == evaluate(dag, inputs, 8)
                assert [logical for logical, _ in interpreted[3]] == [first]
            else:
                assert interpreted[0] == "hard fault"


class TestInjectionStatistics:
    def test_flip_totals_statistically_consistent(self):
        """Streams differ by design; distributions must not."""
        dag = synthetic_dag(num_ops=24, num_inputs=8, seed=3, name="inj")
        tech = STT_MRAM.with_variability(0.12, 0.12)
        target = TargetSpec.square(64, tech, num_arrays=4,
                                   max_activated_rows=4)
        program = compile_dag(dag, target, CompilerConfig(mra=4),
                              cache=False)
        inputs = _inputs_for(dag, 16)
        totals = {}
        for engine in ENGINES:
            flips = 0
            for trial in range(60):
                if engine == "interpreted":
                    machine = program.machine(16,
                                              fault_rng=random.Random(trial))
                    preload_sources(machine, program.layout, program.dag,
                                    inputs)
                    machine.run(program.instructions)
                    flips += machine.injected_faults
                else:
                    vmachine = VectorMachine(16)
                    vector_execute(program, inputs, lanes=16,
                                   fault_rng=trial, machine=vmachine)
                    flips += vmachine.injected_faults
            totals[engine] = flips
        assert totals["vectorized"] > 0
        ratio = totals["vectorized"] / totals["interpreted"]
        assert 0.7 < ratio < 1.4, totals



def _and_program():
    """Independent 2-input ANDs: each output cell holds exactly one sense."""
    dag = DataFlowGraph("ands")
    xs = [dag.add_input(f"x{i}") for i in range(6)]
    for i in range(3):
        dag.mark_output(dag.add_op(OpType.AND, xs[2 * i:2 * i + 2]), f"o{i}")
    return dag, compile_dag(dag, TargetSpec.square(16, STT_MRAM), cache=False)


def _forced_p_df(monkeypatch, p_of):
    """Make both engines price every sense with ``p_of(op, k)``."""
    import repro.sim.executor as executor_module
    import repro.sim.vectorized as vectorized_module

    def patched(tech, op, k):
        return p_of(op, k)

    monkeypatch.setattr(executor_module, "cached_p_df", patched)
    monkeypatch.setattr(vectorized_module, "cached_p_df", patched)


def _campaign_program():
    dag = synthetic_dag(num_ops=24, num_inputs=8, seed=3, name="samp")
    tech = STT_MRAM.with_variability(0.12, 0.12)
    target = TargetSpec.square(64, tech, num_arrays=4, max_activated_rows=4)
    return compile_dag(dag, target, CompilerConfig(mra=4), cache=False)


class TestSparseSampler:
    """The packed engine's O(flips) Philox sense-flip sampler."""

    def test_campaign_trials_independent_of_chunk(self):
        program = _campaign_program()
        sets = [_inputs_for(program.source_dag, 8, seed)
                for seed in range(40)]
        keys = [1000 + trial for trial in range(40)]
        runs = [campaign_trials(program, sets, keys, 8, chunk=chunk)
                for chunk in (1, 7, 512)]
        assert runs[0][0].sum() > 0
        for flips, mismatch in runs[1:]:
            assert (flips == runs[0][0]).all()
            assert (mismatch == runs[0][1]).all()

    def test_sharded_campaign_equals_unsharded(self):
        program = _campaign_program()
        whole = run_trial_block(program, 0, 50, 11, "none", 8,
                                engine="vectorized")
        assert whole.decision_failures > 0
        for workers in (2, 3):
            merged = ShardOutcome()
            for first, count in shard_ranges(50, workers):
                merged.merge(run_trial_block(program, first, count, 11,
                                             "none", 8, engine="vectorized"))
            assert merged == whole
        assert run_campaign(program, trials=50, seed=11, lanes=8,
                            engine="vectorized", workers=2) == \
            run_campaign(program, trials=50, seed=11, lanes=8,
                         engine="vectorized", workers=1)

    @pytest.mark.parametrize("lanes", [8, 65])
    def test_flips_stay_in_lanes_and_are_counted(self, monkeypatch, lanes):
        """Every output is one sense, so its wrong bits are its flips."""
        _forced_p_df(monkeypatch, lambda op, k: 0.3)
        dag, program = _and_program()
        vp = vector_program(program)
        sets = [_inputs_for(dag, lanes, seed) for seed in range(64)]
        packed = {name: pack_values([s[name] for s in sets], lanes)
                  for name in vp.plan(True).inputs}
        machine = VectorMachine(lanes)
        gens = [np.random.Generator(np.random.Philox(seed))
                for seed in range(64)]
        out = vp.run_packed(packed, 64, lanes, machine, gens=gens)
        expected = evaluate_many(dag, sets, lanes)
        applied = np.zeros(64, dtype=np.int64)
        for name, words in out.items():
            for trial, value in enumerate(unpack_values(words, lanes)):
                assert value >> lanes == 0
                applied[trial] += bin(value ^ expected[trial][name]).count("1")
        assert (machine.trial_faults == applied).all()
        assert machine.injected_faults == applied.sum() > 0
        if lanes > 64:
            assert any(words[:, 1].any() for words in out.values())

    @pytest.mark.parametrize("p", [0.0, 1.0, 1.5])
    def test_certain_groups_match_the_interpreter(self, monkeypatch, p):
        """``p >= 1`` flips every lane and ``p = 0`` none, drawing nothing."""
        _forced_p_df(monkeypatch, lambda op, k: p if op is OpType.AND
                     else 0.0)
        dag, program = _and_program()
        inputs = _inputs_for(dag, 16)
        vmachine = VectorMachine(16)
        gen = np.random.Generator(np.random.Philox(5))
        got = vector_execute(program, inputs, lanes=16, fault_rng=gen,
                             machine=vmachine)
        assert gen.random() == np.random.Generator(np.random.Philox(5)).random()
        machine = program.machine(16, fault_rng=random.Random(5))
        preload_sources(machine, program.layout, program.dag, inputs)
        machine.run(program.instructions)
        assert got == extract_outputs(machine, program.layout, program.dag)
        assert vmachine.injected_faults == machine.injected_faults
        assert vmachine.injected_faults == (48 if p else 0)

    def test_mean_flips_match_the_model(self):
        program = _campaign_program()
        probs = np.array(sense_failure_probabilities(program))
        assert vector_program(program).plan(True).n_positions == len(probs)
        trials, lanes = 4000, 8
        sets = [_inputs_for(program.source_dag, lanes)] * trials
        flips, _ = campaign_trials(program, sets, range(trials), lanes)
        mean = lanes * probs.sum()
        sigma = np.sqrt(lanes * (probs * (1 - probs)).sum() / trials)
        assert abs(flips.mean() - mean) < 4 * sigma, (flips.mean(), mean)


@st.composite
def _dags(draw):
    num_inputs = draw(st.integers(2, 5))
    num_ops = draw(st.integers(1, 25))
    dag = DataFlowGraph("hyp-vec")
    values = [dag.add_input(f"x{i}") for i in range(num_inputs)]
    values.append(dag.add_const(draw(st.integers(0, 1))))
    for _ in range(num_ops):
        op = draw(st.sampled_from(BINARY_OPS + [OpType.NOT]))
        if op is OpType.NOT:
            operands = [draw(st.sampled_from(values))]
        else:
            arity = draw(st.integers(2, 3))
            operands = draw(st.permutations(values))[:arity]
        values.append(dag.add_op(op, operands))
    for index in range(draw(st.integers(1, 3))):
        dag.mark_output(draw(st.sampled_from(values)), f"out{index}")
    return dag


class TestPropertyDifferential:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(dag=_dags(), seed=st.integers(0, 2**32 - 1),
           mra=st.sampled_from([2, 4]))
    def test_any_dag_any_mra_bit_identical(self, dag, seed, mra):
        target = TargetSpec.square(64, RERAM, max_activated_rows=max(2, mra))
        program = compile_dag(dag, target, CompilerConfig(mra=mra),
                              cache=False)
        rng = random.Random(seed)
        inputs = {op.name: rng.getrandbits(16) for op in dag.inputs()}
        outputs = _differential(program, inputs, 16)
        assert outputs == evaluate(dag, inputs, 16)
