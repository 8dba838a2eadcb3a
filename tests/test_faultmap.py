"""Tests for persistent fault maps, verify-after-write, and remapping."""

import dataclasses
import json
import random

import pytest

from repro.arch import CellAddr, TargetSpec
from repro.arch.layout import Layout
from repro.core import CompilerConfig, SherlockCompiler
from repro.devices import RERAM, STT_MRAM, CellFault, FaultMap
from repro.dfg.evaluate import evaluate
from repro.errors import (
    DeviceError,
    HardFaultError,
    MappingError,
    SherlockError,
    SimulationError,
)
from repro.mapping.naive import map_naive
from repro.mapping.optimized import map_sherlock
from repro.sim import ArrayMachine
from repro.workloads.synthetic import synthetic_dag


def small_target(**kwargs):
    kwargs.setdefault("num_arrays", 2)
    return TargetSpec(RERAM, rows=16, cols=16, data_width=32, **kwargs)


class TestFaultMapBasics:
    def test_empty_map_is_falsy_and_all_healthy(self):
        fm = FaultMap()
        assert not fm
        assert len(fm) == 0
        assert fm.is_healthy(0, 0, 0)
        assert fm.fault_at(0, 0, 0) is None

    def test_set_and_query(self):
        fm = FaultMap()
        fm.set_fault(0, 1, 2, CellFault.STUCK1)
        fm.mark_dead(1, 3, 4)
        assert fm.fault_at(0, 1, 2) is CellFault.STUCK1
        assert fm.fault_at(1, 3, 4) is CellFault.DEAD
        assert not fm.is_healthy(0, 1, 2)
        assert fm.counts() == {"stuck1": 1, "dead": 1}
        assert len(fm) == 2

    def test_set_fault_rejects_non_fault(self):
        with pytest.raises(DeviceError):
            FaultMap().set_fault(0, 0, 0, "dead")

    def test_forced_values(self):
        mask = 0xFF
        assert CellFault.STUCK0.forced_value(mask) == 0
        assert CellFault.DEAD.forced_value(mask) == 0
        assert CellFault.STUCK1.forced_value(mask) == mask

    def test_merge_first_diagnosis_wins(self):
        first = FaultMap()
        first.set_fault(0, 0, 0, CellFault.STUCK0)
        second = FaultMap()
        second.set_fault(0, 0, 0, CellFault.STUCK1)
        second.mark_dead(0, 1, 1)
        added = first.merge(second)
        assert added == 1
        assert first.fault_at(0, 0, 0) is CellFault.STUCK0
        assert first.fault_at(0, 1, 1) is CellFault.DEAD

    def test_copy_is_independent(self):
        fm = FaultMap()
        fm.mark_dead(0, 0, 0)
        clone = fm.copy()
        clone.mark_dead(0, 1, 1)
        assert len(fm) == 1 and len(clone) == 2

    def test_version_tracks_content_changes(self):
        fm = FaultMap()
        seen = [fm.version]
        fm.set_fault(0, 0, 0, CellFault.STUCK1)
        seen.append(fm.version)
        fm.mark_dead(0, 1, 1)
        seen.append(fm.version)
        assert fm.merge(FaultMap({(0, 2, 2): CellFault.STUCK0})) == 1
        seen.append(fm.version)
        assert fm.clear(0, 0, 0)
        seen.append(fm.version)
        assert len(set(seen)) == len(seen)
        # calls that change nothing keep the version
        assert fm.merge(fm.copy()) == 0
        assert not fm.clear(0, 0, 0)
        assert fm.version == seen[-1]


class TestFaultMapDerivation:
    def test_from_wear_thresholds(self):
        counts = {(0, 0, 0): 10, (0, 1, 0): 9, (0, 2, 0): 11}
        fm = FaultMap.from_wear(counts, RERAM, endurance=10)
        assert not fm.is_healthy(0, 0, 0)
        assert fm.is_healthy(0, 1, 0)
        assert not fm.is_healthy(0, 2, 0)
        assert fm.counts() == {"dead": 2}

    def test_from_wear_uses_technology_endurance(self):
        counts = {(0, 0, 0): int(RERAM.endurance_cycles)}
        assert len(FaultMap.from_wear(counts, RERAM)) == 1
        # STT-MRAM endures forever: nothing ever wears out
        assert len(FaultMap.from_wear({(0, 0, 0): 10**18}, STT_MRAM)) == 0

    def test_from_wear_rejects_bad_endurance(self):
        with pytest.raises(DeviceError):
            FaultMap.from_wear({}, RERAM, endurance=0)

    def test_random_map_reproducible_and_sized(self):
        target = small_target()
        a = FaultMap.random_map(target, fraction=0.1, seed=3)
        b = FaultMap.random_map(target, fraction=0.1, seed=3)
        assert a.cells() == b.cells()
        total = target.num_arrays * target.rows * target.cols
        assert len(a) == round(0.1 * total)

    def test_random_map_rejects_bad_fraction(self):
        with pytest.raises(DeviceError):
            FaultMap.random_map(small_target(), fraction=1.5)


class TestFaultMapPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        fm = FaultMap.random_map(small_target(), fraction=0.05, seed=1,
                                 kinds=(CellFault.DEAD, CellFault.STUCK0,
                                        CellFault.STUCK1))
        path = tmp_path / "faults.json"
        fm.save(path)
        assert FaultMap.load(path).cells() == fm.cells()

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DeviceError):
            FaultMap.load(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(DeviceError):
            FaultMap.load(path)

    @pytest.mark.parametrize("document", [
        [],                                            # not an object
        {"faults": []},                                # missing version
        {"format_version": 99, "faults": []},          # wrong version
        {"format_version": 1},                         # missing faults
        {"format_version": 1, "faults": "x"},          # faults not a list
        {"format_version": 1, "faults": [[0, 0, "dead"]]},   # short entry
        {"format_version": 1, "faults": [[0, 0, -1, "dead"]]},  # negative
        {"format_version": 1, "faults": [[0, 0, 0, "melted"]]},  # bad kind
        {"format_version": 1,
         "faults": [[0, 0, 0, "dead"], [0, 0, 0, "stuck0"]]},  # duplicate
    ])
    def test_from_dict_rejects_malformed(self, document):
        with pytest.raises(DeviceError):
            FaultMap.from_dict(document)

    def test_load_rejects_malformed_file(self, tmp_path):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"format_version": 1, "faults": "bad"}))
        with pytest.raises(DeviceError):
            FaultMap.load(path)


class TestFaultAwarePlacement:
    def test_layout_skips_faulty_rows(self):
        target = small_target()
        fm = FaultMap()
        fm.mark_dead(0, 0, 0)
        layout = Layout(target, fault_map=fm)
        addr = layout.place(1, 0)
        assert layout.cell_healthy(addr.array, addr.row, addr.col)
        assert (addr.array, addr.row, addr.col) != (0, 0, 0)

    def test_place_at_refuses_faulty_cell(self):
        target = small_target()
        fm = FaultMap()
        fm.mark_dead(0, 5, 0)
        layout = Layout(target, fault_map=fm)
        with pytest.raises(MappingError):
            layout.place_at(1, 0, 5)

    @pytest.mark.parametrize("mapper", [map_naive, map_sherlock])
    def test_mappers_avoid_faulty_cells(self, mapper):
        target = small_target()
        fm = FaultMap.random_map(target, fraction=0.05, seed=2)
        compiler = SherlockCompiler(target, CompilerConfig(), fault_map=fm)
        program = compiler.compile(synthetic_dag(num_ops=24, num_inputs=8,
                                                 seed=4))
        for addrs in program.layout.placements().values():
            for addr in addrs:
                assert fm.is_healthy(addr.array, addr.row, addr.col)

    def test_fault_aware_execution_matches_reference(self):
        target = small_target()
        fm = FaultMap.random_map(target, fraction=0.05, seed=5)
        dag = synthetic_dag(num_ops=24, num_inputs=8, seed=4)
        program = SherlockCompiler(target, CompilerConfig(),
                                   fault_map=fm).compile(dag)
        rng = random.Random(0)
        lanes = 8
        inputs = {o.name: rng.getrandbits(lanes) for o in dag.inputs()}
        assert program.execute(inputs, lanes) == evaluate(dag, inputs, lanes)

    def test_fault_aware_compiles_hit_the_cache_by_digest(self):
        """Equal-content maps share cache entries; different maps miss."""
        from repro.core.compiler import _COMPILE_CACHE, clear_compile_cache

        clear_compile_cache()
        try:
            target = small_target()
            dag = synthetic_dag(num_ops=24, num_inputs=8, seed=4)
            fm_a = FaultMap()
            fm_a.mark_dead(0, 0, 0)
            fm_b = fm_a.copy()  # same content, different object
            first = SherlockCompiler(target, CompilerConfig(),
                                     fault_map=fm_a).compile(dag)
            assert _COMPILE_CACHE.misses == 1
            second = SherlockCompiler(target, CompilerConfig(),
                                      fault_map=fm_b).compile(dag)
            assert _COMPILE_CACHE.hits == 1
            assert second.instructions == first.instructions
            # a different map is a different key
            fm_c = FaultMap()
            fm_c.mark_dead(0, 1, 1)
            third = SherlockCompiler(target, CompilerConfig(),
                                     fault_map=fm_c).compile(dag)
            assert _COMPILE_CACHE.misses == 2
            assert third.fault_map.fault_at(0, 1, 1) is not None
            # fault-blind compiles never collide with fault-aware ones
            SherlockCompiler(target, CompilerConfig()).compile(dag)
            assert _COMPILE_CACHE.misses == 3
        finally:
            clear_compile_cache()

    def test_cache_hits_cannot_be_poisoned_by_later_map_mutation(self):
        """Cached fault maps are frozen copies of the compile-time content."""
        from repro.core.compiler import clear_compile_cache

        clear_compile_cache()
        try:
            target = small_target()
            dag = synthetic_dag(num_ops=24, num_inputs=8, seed=4)
            fm = FaultMap()
            fm.mark_dead(0, 0, 0)
            SherlockCompiler(target, CompilerConfig(),
                             fault_map=fm).compile(dag)
            fm.mark_dead(0, 5, 5)  # mutate the live map after compiling
            # an equal-content requester still gets the compile-time map
            fresh = FaultMap()
            fresh.mark_dead(0, 0, 0)
            hit = SherlockCompiler(target, CompilerConfig(),
                                   fault_map=fresh).compile(dag)
            assert len(hit.fault_map) == 1
            assert hit.fault_map.fault_at(0, 5, 5) is None
        finally:
            clear_compile_cache()


def failing_write_target(probability, **kwargs):
    tech = dataclasses.replace(RERAM, write_failure_probability=probability)
    kwargs.setdefault("num_arrays", 1)
    return TargetSpec(tech, rows=16, cols=8, data_width=32, **kwargs)


class TestVerifyAfterWrite:
    def test_recovers_all_injected_failures(self):
        """Acceptance: 100% recovery below the spare-capacity limit."""
        target = failing_write_target(0.3)
        m = ArrayMachine(target, lanes=8, fault_rng=random.Random(1),
                         verify_writes=True, write_retries=8)
        wrote = {}
        rng = random.Random(2)
        for row in range(target.rows):
            for col in range(target.cols):
                value = rng.getrandbits(8)
                m.commit(0, row, col, value)
                wrote[(row, col)] = value
        assert m.write_failures_injected > 0
        for (row, col), value in wrote.items():
            assert m.peek(CellAddr(0, row, col)) == value
        assert not m.discovered_faults
        assert m.writes_verified >= len(wrote)
        # every injected failure was detected by a read-back and retried
        assert m.write_retries_used == m.write_failures_injected

    def test_stuck_cell_escalates_to_spare(self):
        fm = FaultMap()
        fm.set_fault(0, 2, 3, CellFault.STUCK0)
        target = small_target(num_arrays=1)
        m = ArrayMachine(target, lanes=8, fault_map=fm, verify_writes=True,
                         write_retries=1,
                         spare_pool=[CellAddr(0, 9, 3)])
        m.commit(0, 2, 3, 0b1011)
        assert m.remaps == [((0, 2, 3), (0, 9, 3))]
        # later accesses are transparently redirected
        assert m.peek(CellAddr(0, 2, 3)) == 0b1011
        assert m.discovered_faults.fault_at(0, 2, 3) is CellFault.DEAD

    def test_exhausted_spares_raise_hard_fault(self):
        fm = FaultMap()
        fm.set_fault(0, 2, 3, CellFault.STUCK1)
        target = small_target(num_arrays=1)
        m = ArrayMachine(target, lanes=8, fault_map=fm, verify_writes=True,
                         write_retries=2, spare_pool=[])
        with pytest.raises(HardFaultError) as excinfo:
            m.commit(0, 2, 3, 0b0110)
        message = str(excinfo.value)
        assert "array=0" in message and "col=3" in message

    def test_write_retries_validation(self):
        with pytest.raises(SimulationError):
            ArrayMachine(small_target(), write_retries=-1)
        with pytest.raises(SherlockError):
            CompilerConfig(write_retries=-2)

    def test_unverified_path_never_draws_write_failures(self):
        """Write-failure injection must not touch the unverified RNG path."""
        target = failing_write_target(0.5)
        m = ArrayMachine(target, lanes=8, fault_rng=random.Random(9),
                         verify_writes=False)
        for row in range(8):
            m.commit(0, row, 0, 0b1010)
        assert m.write_failures_injected == 0
        for row in range(8):
            assert m.peek(CellAddr(0, row, 0)) == 0b1010


class TestCompilerRemap:
    def test_remap_recompiles_around_discovered_faults(self):
        target = small_target()
        dag = synthetic_dag(num_ops=24, num_inputs=8, seed=4)
        compiler = SherlockCompiler(target, CompilerConfig())
        program = compiler.compile(dag)
        victim = next(iter(program.layout.placements().values()))[0]
        discovered = FaultMap()
        discovered.mark_dead(victim.array, victim.row, victim.col)
        remapped = compiler.remap(program, discovered)
        assert remapped.degradation == "remap"
        assert remapped.ladder[-1].rung == "remap"
        for addrs in remapped.layout.placements().values():
            for addr in addrs:
                assert (addr.array, addr.row, addr.col) != (
                    victim.array, victim.row, victim.col)
        rng = random.Random(0)
        lanes = 8
        inputs = {o.name: rng.getrandbits(lanes) for o in dag.inputs()}
        machine = remapped.machine(lanes)
        assert remapped.execute(inputs, lanes) == evaluate(dag, inputs, lanes)
        assert machine.fault_map is not None

    def test_remap_merges_with_existing_map(self):
        target = small_target()
        dag = synthetic_dag(num_ops=24, num_inputs=8, seed=4)
        seed_map = FaultMap()
        seed_map.mark_dead(0, 0, 0)
        compiler = SherlockCompiler(target, CompilerConfig(),
                                    fault_map=seed_map)
        program = compiler.compile(dag)
        discovered = FaultMap()
        discovered.mark_dead(1, 1, 1)
        remapped = compiler.remap(program, discovered)
        assert len(remapped.fault_map) == 2


class TestStrictConfigUnchanged:
    def test_zero_retry_strict_codegen_is_byte_identical(self):
        """Acceptance: the hard-fault machinery must not perturb codegen."""
        target = small_target()
        dag = synthetic_dag(num_ops=24, num_inputs=8, seed=4)
        default = SherlockCompiler(target, CompilerConfig(),
                                   cache=False).compile(dag)
        strict = SherlockCompiler(
            target, CompilerConfig(fallback="strict", write_retries=0),
            cache=False).compile(dag)
        assert strict.text() == default.text()
