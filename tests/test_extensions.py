"""Tests for the reproduction extensions: instruction-text round-trips,
program serialization, endurance analysis, parallel-array timing."""

import random

import pytest

from repro.arch import (
    NotInst,
    ReadInst,
    ShiftInst,
    TargetSpec,
    TransferInst,
    WriteInst,
    parse_instruction,
    parse_program,
)
from repro.core import CompilerConfig, compile_dag, load_program, save_program
from repro.devices import PCM, RERAM, STT_MRAM
from repro.dfg import DFGBuilder, OpType
from repro.errors import SimulationError
from repro.sim import (
    analyze_trace,
    parallel_latency_cycles,
    static_write_counts,
    wear_report,
)
from repro.workloads import bitweaving


def target(**kwargs):
    kwargs.setdefault("num_arrays", 8)
    return TargetSpec.square(64, RERAM, **kwargs)


class TestInstructionParsing:
    CASES = [
        ReadInst(0, (1, 5, 9, 13), (5,)),
        ReadInst(0, (4, 8, 12, 16), (3, 4),
                 (OpType.XOR, OpType.AND, OpType.OR, OpType.XOR)),
        WriteInst(2, (4, 8, 12, 16), 9),
        ShiftInst(0, 3),
        ShiftInst(1, -2),
        NotInst(1, (3, 7)),
        TransferInst(0, 2, (7,)),
    ]

    @pytest.mark.parametrize("inst", CASES, ids=lambda i: i.to_text())
    def test_roundtrip(self, inst):
        assert parse_instruction(inst.to_text()) == inst

    def test_program_roundtrip(self):
        dag = bitweaving.between_dag(bits=4)
        program = compile_dag(dag, target())
        text = program.text()
        assert parse_program(text) == program.instructions

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\nwrite [0][1][2]\n   \n# done\n"
        assert parse_program(text) == [WriteInst(0, (1,), 2)]

    def test_malformed_rejected(self):
        for bad in ("noop [0]", "read [0][1]", "write [0][][2]",
                    "read [0][1][2,3] [frob]", "shift [0] U[1]"):
            with pytest.raises(SimulationError):
                parse_instruction(bad)


class TestSerialization:
    def roundtrip(self, tmp_path, dag, config=None, tech=RERAM):
        t = TargetSpec.square(64, tech, num_arrays=8)
        program = compile_dag(dag, t, config)
        path = tmp_path / "program.json"
        save_program(program, path)
        return program, load_program(path)

    def test_roundtrip_preserves_instructions(self, tmp_path):
        dag = bitweaving.between_dag(bits=4)
        original, loaded = self.roundtrip(tmp_path, dag)
        assert loaded.instructions == original.instructions
        assert loaded.target == original.target
        assert loaded.config == original.config

    def test_loaded_program_executes(self, tmp_path):
        dag = bitweaving.between_dag(bits=4)
        original, loaded = self.roundtrip(tmp_path, dag)
        rng = random.Random(0)
        column = [rng.randrange(16) for _ in range(12)]
        inputs = bitweaving.scan_inputs(3, 12, column, bits=4)
        assert loaded.execute(inputs, 12) == original.execute(inputs, 12)
        assert loaded.verify(inputs, 12)

    def test_metrics_survive_roundtrip(self, tmp_path):
        dag = bitweaving.between_dag(bits=4)
        original, loaded = self.roundtrip(tmp_path, dag)
        assert loaded.metrics.latency_cycles == original.metrics.latency_cycles
        assert loaded.metrics.energy_pj == pytest.approx(
            original.metrics.energy_pj)

    def test_custom_technology_roundtrips(self, tmp_path):
        custom = RERAM.with_variability(0.09, 0.2)
        dag = bitweaving.between_dag(bits=4)
        t = TargetSpec.square(64, custom, num_arrays=8)
        program = compile_dag(dag, t)
        path = tmp_path / "p.json"
        save_program(program, path)
        loaded = load_program(path)
        assert loaded.target.technology.sigma_rel_lrs == 0.09

    def test_builder_dag_roundtrip(self, tmp_path):
        b = DFGBuilder()
        x, y = b.inputs("x", "y")
        b.output("o", ~(x ^ y) & x)
        original, loaded = self.roundtrip(tmp_path, b.build(),
                                          CompilerConfig(mapper="naive"))
        assert loaded.execute({"x": 0b1100, "y": 0b1010}, 4) == \
            original.execute({"x": 0b1100, "y": 0b1010}, 4)


class TestDegradedSerialization:
    """Format v2: staged, multi-array and fault-aware programs round-trip."""

    def oversized(self):
        from repro.workloads.synthetic import synthetic_dag

        dag = synthetic_dag(num_ops=48, num_inputs=8, seed=7, name="big")
        return dag, TargetSpec.square(8, RERAM, num_arrays=2)

    def golden_fixed_point(self, tmp_path, program):
        """After one id-normalizing roundtrip the codec is byte-stable.

        Loading renumbers DAG node ids compactly (as v1 always did), so
        the golden property is: the *second* and *third* serializations
        are byte-identical — the codec reaches a fixed point.
        """
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        third = tmp_path / "third.json"
        save_program(program, first)
        save_program(load_program(first), second)
        save_program(load_program(second), third)
        assert second.read_text() == third.read_text()
        return load_program(third)

    def test_golden_staged_roundtrip_is_byte_stable(self, tmp_path):
        dag, t = self.oversized()
        program = compile_dag(dag, t, cache=False)
        assert program.stages  # exercises the staged branch of the codec
        final = self.golden_fixed_point(tmp_path, program)
        assert final.instructions == program.instructions

    def test_golden_single_roundtrip_is_byte_stable(self, tmp_path):
        dag = bitweaving.between_dag(bits=4)
        program = compile_dag(dag, target())
        final = self.golden_fixed_point(tmp_path, program)
        assert final.instructions == program.instructions
        assert final.spare_pool == program.spare_pool

    def test_multiarray_program_round_trips(self, tmp_path):
        from repro.workloads.synthetic import synthetic_dag

        dag = synthetic_dag(num_ops=32, num_inputs=8, seed=3, name="multi")
        t = TargetSpec.square(32, RERAM, num_arrays=4)
        program = compile_dag(dag, t, CompilerConfig(schedule="multi"),
                              cache=False)
        path = tmp_path / "multi.json"
        save_program(program, path)
        loaded = load_program(path)
        assert loaded.instructions == program.instructions
        assert loaded.spare_pool == program.spare_pool
        rng = random.Random(0)
        inputs = {o.name: rng.getrandbits(8) for o in dag.inputs()}
        assert loaded.execute(inputs, 8) == program.execute(inputs, 8)

    def test_fault_map_travels_with_the_program(self, tmp_path):
        from repro.core import SherlockCompiler
        from repro.devices import FaultMap
        from repro.workloads.synthetic import synthetic_dag

        dag = synthetic_dag(num_ops=24, num_inputs=8, seed=4)
        t = TargetSpec.square(16, RERAM, num_arrays=2)
        fm = FaultMap.random_map(t, fraction=0.03, seed=5)
        program = SherlockCompiler(t, CompilerConfig(),
                                   fault_map=fm).compile(dag)
        path = tmp_path / "faulty.json"
        save_program(program, path)
        loaded = load_program(path)
        assert loaded.fault_map is not None
        assert loaded.fault_map.cells() == fm.cells()
        assert loaded.spare_pool == program.spare_pool
        rng = random.Random(1)
        inputs = {o.name: rng.getrandbits(8) for o in dag.inputs()}
        assert loaded.execute(inputs, 8, verify_writes=True) == \
            program.execute(inputs, 8, verify_writes=True)

    def test_ladder_and_degradation_survive(self, tmp_path):
        dag, t = self.oversized()
        program = compile_dag(dag, t, cache=False)
        path = tmp_path / "ladder.json"
        save_program(program, path)
        loaded = load_program(path)
        assert loaded.degradation == program.degradation != "none"
        assert [(a.rung, a.succeeded, a.stages) for a in loaded.ladder] == \
            [(a.rung, a.succeeded, a.stages) for a in program.ladder]

    def test_staged_metrics_survive_roundtrip(self, tmp_path):
        dag, t = self.oversized()
        program = compile_dag(dag, t, cache=False)
        path = tmp_path / "staged.json"
        save_program(program, path)
        loaded = load_program(path)
        assert loaded.metrics.latency_cycles == program.metrics.latency_cycles
        assert loaded.overlap.makespan_cycles == \
            program.overlap.makespan_cycles

    def test_version_1_documents_still_load(self, tmp_path):
        """A v1 document (no stages/ladder/fault map keys) loads fine."""
        import json

        dag = bitweaving.between_dag(bits=4)
        program = compile_dag(dag, target())
        path = tmp_path / "v1.json"
        save_program(program, path)
        document = json.loads(path.read_text())
        document["format_version"] = 1
        for key in ("ladder", "degradation", "fault_map"):
            document.pop(key, None)
        path.write_text(json.dumps(document))
        loaded = load_program(path)
        assert loaded.instructions == program.instructions
        assert loaded.fault_map is None
        assert loaded.degradation == "none"


class TestSerializationErrors:
    def test_bad_format_version(self, tmp_path):
        import json

        from repro.errors import SherlockError

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 999}))
        with pytest.raises(SherlockError, match="unsupported program format"):
            load_program(path)

    def test_tampered_placements_rejected(self, tmp_path):
        import json

        from repro.errors import SherlockError

        dag = bitweaving.between_dag(bits=4)
        program = compile_dag(dag, target())
        path = tmp_path / "p.json"
        save_program(program, path)
        document = json.loads(path.read_text())
        document["placements"]["999999"] = [[0, 0, 0]]
        path.write_text(json.dumps(document))
        with pytest.raises(SherlockError, match="unknown operand"):
            load_program(path)


class TestEndurance:
    def test_static_counts_match_machine(self):
        dag = bitweaving.between_dag(bits=4)
        program = compile_dag(dag, target())
        rng = random.Random(0)
        column = [rng.randrange(16) for _ in range(8)]
        inputs = bitweaving.scan_inputs(3, 12, column, bits=4)
        from repro.sim import ArrayMachine, preload_sources

        machine = ArrayMachine(program.target, 8)
        preload_sources(machine, program.layout, program.dag, inputs)
        machine.run(program.instructions)
        assert machine.write_counts == static_write_counts(program.instructions)

    def test_wear_report_fields(self):
        trace = [WriteInst(0, (0, 1), 5), WriteInst(0, (0,), 5)]
        report = wear_report(trace)
        assert report.total_cell_writes == 3
        assert report.cells_written == 2
        assert report.max_writes_per_cell == 2
        assert report.hottest_cell == (0, 5, 0)
        assert report.mean_writes_per_cell == pytest.approx(1.5)

    def test_empty_trace(self):
        report = wear_report([])
        assert report.max_writes_per_cell == 0
        assert report.lifetime_executions(RERAM) == float("inf")

    def test_lifetime_ordering_by_technology(self):
        trace = [WriteInst(0, (0,), 1)] * 4
        report = wear_report(trace)
        assert (report.lifetime_executions(STT_MRAM)
                > report.lifetime_executions(RERAM)
                > report.lifetime_executions(PCM))

    def test_single_write_per_cell_in_compiled_program(self):
        """Each cell is allocated once, so one run writes it at most once."""
        dag = bitweaving.between_dag(bits=8)
        program = compile_dag(dag, target())
        assert wear_report(program.instructions).max_writes_per_cell == 1


class TestParallelTiming:
    def test_single_array_equals_serial(self):
        trace = [ReadInst(0, (0,), (1,)), WriteInst(0, (0,), 2),
                 ShiftInst(0, 1)]
        t = target()
        serial = analyze_trace(trace, t).latency_cycles
        assert parallel_latency_cycles(trace, t) == serial

    def test_two_arrays_overlap(self):
        trace = [WriteInst(0, (0,), 1), WriteInst(1, (0,), 1)]
        t = target()
        serial = analyze_trace(trace, t).latency_cycles
        parallel = parallel_latency_cycles(trace, t)
        assert parallel == serial // 2

    def test_transfer_synchronizes(self):
        trace = [
            WriteInst(0, (0,), 1),  # both arrays do one write in parallel,
            WriteInst(1, (0,), 1),  # then the transfer joins their clocks
            TransferInst(0, 1, (0,)),
            WriteInst(1, (0,), 2),
        ]
        t = target()
        parallel = parallel_latency_cycles(trace, t)
        cost = t.cost_model
        import math

        write = max(1, math.ceil(cost.write_latency_ns() * t.clock_ghz))
        xfer = max(1, math.ceil(cost.transfer_latency_ns() * t.clock_ghz))
        assert parallel == write + xfer + write

    def test_parallel_never_exceeds_serial(self):
        dag = bitweaving.between_batch_dag(bits=8, segments=8)
        program = compile_dag(dag, target(num_arrays=16))
        serial = program.metrics.latency_cycles
        parallel = parallel_latency_cycles(program.instructions, program.target)
        assert parallel <= serial

    def test_empty_trace(self):
        assert parallel_latency_cycles([], target()) == 0
