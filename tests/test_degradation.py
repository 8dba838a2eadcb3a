"""Tests for graceful degradation: recycling, partitioning, the ladder.

Covers the three rungs end to end — liveness-based cell recycling in the
layout and both mappers, the spill-and-partition fallback, and the retry
ladder the compiler walks — plus the structured capacity diagnostics and
their CLI rendering.
"""

import gc
import hashlib
import json
import pathlib
import random
import weakref

import pytest

from repro.arch.layout import Layout
from repro.arch.target import TargetSpec
from repro.cli import main
from repro.core import (
    CompileReport,
    CompilerConfig,
    SherlockCompiler,
    clear_compile_cache,
    compile_dag,
    save_program,
)
from repro.core.passes import DEFAULT_TRANSFORM_PASSES, PASS_REGISTRY, FunctionPass
from repro.devices import RERAM
from repro.dfg import DFGBuilder, blevel_order, evaluate, schedule_liveness
from repro.dfg.liveness import NEVER_DEAD
from repro.errors import CapacityError, MappingError, SherlockError
from repro.mapping.partition import _best_cut
from repro.workloads import get_workload
from repro.workloads.synthetic import synthetic_dag


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


def small_target(rows=8, cols=2, num_arrays=2, **kwargs):
    kwargs.setdefault("data_width", 8)
    return TargetSpec(RERAM, rows=rows, cols=cols, num_arrays=num_arrays,
                      **kwargs)


def random_inputs(dag, seed=0, lanes=8):
    rng = random.Random(seed)
    return {o.name: rng.getrandbits(lanes) for o in dag.inputs()}


class TestLayoutRecycling:
    def test_release_returns_cells_to_the_pool(self):
        layout = Layout(small_target())
        layout.place(1, 0)
        freed_addr = layout.place(2, 0)
        layout.place(3, 0)
        before = layout.cells_used
        assert layout.release(2) == 1
        assert layout.cells_used == before - 1
        assert layout.column_reusable(0) == 1
        assert layout.reusable_columns() == [0]
        assert not layout.is_placed(2)

    def test_place_reuses_the_lowest_freed_row_first(self):
        layout = Layout(small_target())
        a = layout.place(1, 0)
        b = layout.place(2, 0)
        layout.release(1)
        layout.release(2)
        reused = layout.place(3, 0)
        assert reused == a  # lowest freed row, deterministically
        assert layout.recycled == 1
        assert layout.place(4, 0) == b

    def test_reuse_false_ignores_the_pool(self):
        layout = Layout(small_target())
        freed = layout.place(1, 0)
        layout.release(1)
        fresh = layout.place(2, 0, reuse=False)
        assert fresh != freed
        assert layout.recycled == 0
        assert layout.column_reusable(0) == 1

    def test_release_duplicates_keeps_the_primary(self):
        layout = Layout(small_target())
        primary = layout.place(7, 0)
        layout.place(7, 1)
        layout.place(7, 2)
        assert layout.duplicates == 2
        assert layout.release_duplicates(7) == 2
        assert layout.duplicates == 0
        assert layout.copies(7) == [primary]
        # releasing again is a no-op
        assert layout.release_duplicates(7) == 0

    def test_residents_reports_column_occupants(self):
        layout = Layout(small_target())
        layout.place(5, 0)
        layout.place(3, 0)
        layout.place(9, 1)
        assert layout.residents(0) == [3, 5]
        layout.release(5)
        assert layout.residents(0) == [3]


class TestLiveness:
    def make_chain(self):
        b = DFGBuilder()
        x, y, z = b.inputs("x", "y", "z")
        t = x & y
        b.output("o", t | z)
        return b.build()

    def test_last_use_and_outputs_never_die(self):
        dag = self.make_chain()
        schedule = blevel_order(dag)
        live = schedule_liveness(dag, schedule)
        out_id = dag.outputs["o"]
        assert live.last_use[out_id] == NEVER_DEAD
        # x and y die at the AND (position 0); the AND result and z die
        # at the OR (position 1)
        x_id = {o.name: o.node_id for o in dag.inputs()}["x"]
        assert live.last_use[x_id] == 0
        assert not live.dead_before(x_id, 0)
        assert live.is_dead(x_id, 0)
        assert live.dead_before(x_id, 1)

    def test_dying_at_buckets_are_sorted_and_complete(self):
        dag = self.make_chain()
        live = schedule_liveness(dag, blevel_order(dag))
        dying = [oid for bucket in live.dying_at.values() for oid in bucket]
        # every non-output operand dies exactly once
        assert len(dying) == len(set(dying)) == dag.num_operands - 1
        for bucket in live.dying_at.values():
            assert bucket == sorted(bucket)

    def test_unconsumed_source_is_dead_from_the_start(self):
        b = DFGBuilder()
        x, y, z = b.inputs("x", "y", "z")
        b.output("o", x & y)  # z never consumed, not an output
        dag = b.build()
        live = schedule_liveness(dag, blevel_order(dag))
        z_id = {o.name: o.node_id for o in dag.inputs()}["z"]
        assert live.dead_before(z_id, 0)


class TestCapacityError:
    def test_suggested_arrays_scales_with_the_overshoot(self):
        err = CapacityError("too big", required_cells=100,
                            available_cells=40, num_arrays=2)
        assert err.suggested_num_arrays == 5  # ceil(2 * 100/40)
        assert any("--arrays 5" in line for line in err.details())

    def test_suggestion_always_adds_at_least_one_array(self):
        err = CapacityError("barely", required_cells=41,
                            available_cells=40, num_arrays=4)
        assert err.suggested_num_arrays == 5

    def test_explicit_suggestion_is_honored(self):
        err = CapacityError("x", suggested_num_arrays=9)
        assert err.suggested_num_arrays == 9

    def test_no_fields_means_no_detail_lines(self):
        assert CapacityError("just a message").details() == []

    def test_is_a_mapping_error(self):
        err = CapacityError("x")
        assert isinstance(err, MappingError)
        assert isinstance(err, SherlockError)


class TestRecycling:
    def test_recycle_always_is_bit_identical_to_reference(self):
        dag = synthetic_dag(num_ops=24, num_inputs=6, seed=3, name="rec")
        target = TargetSpec.square(32, RERAM, num_arrays=4)
        for mapper in ("naive", "sherlock"):
            program = compile_dag(
                dag, target,
                CompilerConfig(mapper=mapper, recycle="always"), cache=False)
            assert program.verify(random_inputs(dag), lanes=8)

    def test_default_compile_does_not_recycle(self):
        dag = synthetic_dag(num_ops=24, num_inputs=6, seed=3, name="rec")
        target = TargetSpec.square(32, RERAM, num_arrays=4)
        program = compile_dag(dag, target, cache=False)
        assert program.degradation == "none"
        assert program.mapping.stats.recycled_cells == 0

    def test_recycle_never_skips_the_recycle_rung(self):
        b = DFGBuilder()
        x, y, z = b.inputs("x", "y", "z")
        b.output("computed", x & y)
        b.output("homeless", z)
        dag = b.build()
        tiny = TargetSpec(RERAM, rows=3, cols=1, data_width=4, num_arrays=1,
                          column_fill_factor=1.0)
        program = compile_dag(
            dag, tiny, CompilerConfig(mapper="naive", recycle="never"),
            cache=False)
        rungs = [a.rung for a in program.ladder]
        assert "naive+recycle" not in rungs
        assert program.degradation == "naive+partitioned"

    def test_bad_recycle_value_rejected(self):
        with pytest.raises(SherlockError, match="recycle"):
            CompilerConfig(recycle="sometimes")

    def test_bad_fallback_value_rejected(self):
        with pytest.raises(SherlockError, match="fallback"):
            CompilerConfig(fallback="maybe")


class TestGatherFallback:
    """The naive mapper's gather step recycles dead copies before failing."""

    def test_near_capacity_gather_compiles_by_reclaiming_dead_cells(self):
        # 30 ops on 4 narrow columns: the cursor placement fits, but the
        # gather copies exhaust every column's free rows — a DAG this
        # mapper used to reject.  recycled > 0 proves the last-resort
        # reclaim (not plain free space) is what made it fit.
        dag = synthetic_dag(num_ops=30, num_inputs=5, seed=0, name="gather")
        target = small_target(rows=12, cols=2, num_arrays=2)
        program = compile_dag(
            dag, target, CompilerConfig(mapper="naive", fallback="strict"),
            cache=False)
        assert program.degradation == "none"
        assert program.mapping.stats.recycled_cells > 0
        assert program.verify(random_inputs(dag), lanes=8)


class TestPartitioning:
    def oversized(self):
        dag = synthetic_dag(num_ops=48, num_inputs=8, seed=7, name="big")
        target = TargetSpec.square(8, RERAM, num_arrays=2)
        return dag, target

    def test_oversized_dag_compiles_in_stages(self):
        dag, target = self.oversized()
        program = compile_dag(dag, target, CompilerConfig(mapper="sherlock"),
                              cache=False)
        assert program.stages is not None and len(program.stages) >= 2
        assert program.degradation == "sherlock+partitioned"

    def test_adjacent_stages_are_bridged_in_array(self):
        dag, target = self.oversized()
        program = compile_dag(dag, target, CompilerConfig(mapper="sherlock"),
                              cache=False)
        later = program.stages[1:]
        assert any(stage.bridge for stage in later)
        assert any(stage.bridged for stage in later)

    def test_staged_execution_matches_the_reference_evaluator(self):
        dag, target = self.oversized()
        program = compile_dag(dag, target, CompilerConfig(mapper="sherlock"),
                              cache=False)
        inputs = random_inputs(dag, seed=5)
        assert program.execute(inputs, lanes=8) == evaluate(dag, inputs, 8)

    def test_both_mappers_partition_correctly(self):
        # a single 6x6 array: small enough that even the naive mapper's
        # recycle rung fails and both mappers must spill into stages
        dag = synthetic_dag(num_ops=48, num_inputs=8, seed=7, name="big")
        target = TargetSpec.square(6, RERAM, num_arrays=1)
        for mapper in ("naive", "sherlock"):
            program = compile_dag(dag, target, CompilerConfig(mapper=mapper),
                                  cache=False)
            assert program.stages
            assert program.degradation == f"{mapper}+partitioned"
            assert program.verify(random_inputs(dag), lanes=8)

    def test_staged_program_round_trips_through_serialization(self, tmp_path):
        """Staged programs serialize (format v2) and reload bit-identically."""
        from repro.core import load_program

        dag, target = self.oversized()
        program = compile_dag(dag, target, cache=False)
        assert program.stages  # the gate: this must exercise staging
        path = tmp_path / "staged.json"
        save_program(program, path)
        loaded = load_program(path)
        assert loaded.stages is not None
        assert len(loaded.stages) == len(program.stages)
        assert loaded.instructions == program.instructions
        assert loaded.degradation == program.degradation
        assert [a.rung for a in loaded.ladder] == \
            [a.rung for a in program.ladder]
        inputs = random_inputs(dag, seed=9)
        assert loaded.execute(inputs, lanes=8) == \
            program.execute(inputs, lanes=8)

    def test_combined_mapping_prices_the_bridges(self):
        dag, target = self.oversized()
        program = compile_dag(dag, target, cache=False)
        per_stage = sum(len(s.bridge) + len(s.mapping.instructions)
                        for s in program.stages)
        assert len(program.instructions) == per_stage

    def test_staged_program_is_freed_without_the_cycle_collector(self):
        dag, target = self.oversized()
        gc.collect()
        gc.disable()
        try:
            program = compile_dag(dag, target, cache=False)
            assert program.stages
            program.execute(random_inputs(dag), lanes=8)
            ref = weakref.ref(program)
            del program
            assert ref() is None
            assert gc.collect() == 0  # the compile left no cyclic garbage
        finally:
            gc.enable()

    def test_single_op_that_cannot_fit_raises_capacity_error(self):
        b = DFGBuilder()
        x, y = b.inputs("x", "y")
        b.output("o", x & y)  # needs 3 cells; the target only has 2
        dag = b.build()
        tiny = TargetSpec(RERAM, rows=2, cols=1, data_width=4, num_arrays=1,
                          column_fill_factor=1.0)
        with pytest.raises(CapacityError, match="every degradation rung"):
            compile_dag(dag, tiny, CompilerConfig(mapper="naive"),
                        cache=False)


class TestLadder:
    def oversized(self):
        dag = synthetic_dag(num_ops=48, num_inputs=8, seed=7, name="big")
        target = TargetSpec.square(8, RERAM, num_arrays=2)
        return dag, target

    def test_attempts_are_recorded_in_rung_order(self):
        dag, target = self.oversized()
        program = compile_dag(dag, target, CompilerConfig(mapper="sherlock"),
                              cache=False)
        rungs = [a.rung for a in program.ladder]
        assert rungs[0] == "sherlock"
        assert rungs == ["sherlock", "sherlock+recycle",
                         "sherlock+partitioned"]
        assert [a.succeeded for a in program.ladder] == [False, False, True]
        assert program.ladder[-1].stages == len(program.stages)
        assert program.ladder[0].error  # the base failure is kept

    def test_ladder_rungs_appear_as_pass_events(self):
        dag, target = self.oversized()
        program = compile_dag(dag, target, cache=False)
        names = [e.name for e in program.pass_events]
        assert any(name.startswith("ladder:") for name in names)

    def test_strict_mode_fails_fast(self):
        dag, target = self.oversized()
        with pytest.raises(MappingError):
            compile_dag(dag, target, CompilerConfig(fallback="strict"),
                        cache=False)

    def test_naive_fallback_runs_after_sherlock_partitioning_fails(self):
        # full-ladder shape: the sherlock rungs are attempted before the
        # naive+partitioned rung even exists in the attempt list
        dag, target = self.oversized()
        program = compile_dag(dag, target, cache=False)
        assert "naive+partitioned" not in [a.rung for a in program.ladder]

    def test_compile_report_renders_the_ladder(self):
        dag, target = self.oversized()
        program = compile_dag(dag, target, cache=False)
        text = CompileReport.from_program(program).render()
        assert "sherlock+partitioned" in text
        assert "degradation level" in text

    def test_ladder_runs_each_transform_pass_once(self, monkeypatch):
        runs = []
        for name in DEFAULT_TRANSFORM_PASSES:
            original = PASS_REGISTRY[name]

            def counted(ctx, original=original):
                runs.append(original.name)
                return original.run(ctx)

            monkeypatch.setitem(PASS_REGISTRY, name, FunctionPass(
                name=name, description=original.description, fn=counted))
        dag = get_workload("bfs").build_dag()
        target = TargetSpec.square(32, RERAM, max_activated_rows=2,
                                   num_arrays=1)
        program = compile_dag(dag, target,
                              CompilerConfig(mapper="sherlock", mra=2),
                              cache=False)
        assert program.degradation == "sherlock+partitioned"
        assert runs == list(DEFAULT_TRANSFORM_PASSES)
        # the program is the one recorded when the ladder re-ran them
        golden = json.loads((pathlib.Path(__file__).parent / "golden"
                             / "codegen_v1.json").read_text())
        want = golden["bfs-sherlock-reram-mra2-32-x1"]
        assert hashlib.sha256(program.text().encode()).hexdigest() == \
            want["sha256"]
        assert [e.name for e in program.pass_events] == \
            [p["name"] for p in want["passes"]]

    def test_ladder_result_is_cached(self):
        dag, target = self.oversized()
        first = compile_dag(dag, target)
        second = compile_dag(dag, target)
        assert second.degradation == first.degradation
        assert [a.rung for a in second.ladder] == \
               [a.rung for a in first.ladder]
        assert len(second.stages) == len(first.stages)
        assert second.verify(random_inputs(dag), lanes=8)


def _brute_force_crossing(dag, schedule, pos, lo, cut):
    """Values produced in ``schedule[lo:cut]`` still needed at ``cut``."""
    outputs = set(dag.outputs.values())
    return sum(1 for op_id in schedule[lo:cut]
               if dag.op(op_id).result in outputs
               or any(pos[c] >= cut
                      for c in dag.consumers(dag.op(op_id).result)))


def _random_topological_order(dag, rng):
    indeg = {op_id: len(dag.pred_ops(op_id)) for op_id in
             sorted(o.node_id for o in dag.op_nodes())}
    ready = [op_id for op_id, d in indeg.items() if d == 0]
    order = []
    while ready:
        op_id = ready.pop(rng.randrange(len(ready)))
        order.append(op_id)
        for succ in dag.succ_ops(op_id):
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)
    return order


@pytest.mark.parametrize("seed", range(6))
def test_best_cut_matches_brute_force_crossings(seed):
    rng = random.Random(seed)
    dag = synthetic_dag(num_ops=rng.randrange(12, 60),
                        num_inputs=rng.randrange(2, 9), seed=seed)
    for _ in range(8):
        schedule = _random_topological_order(dag, rng)
        pos = {op_id: i for i, op_id in enumerate(schedule)}
        lo = rng.randrange(len(schedule) - 1)
        hi = rng.randrange(lo + 2, len(schedule) + 1)
        third = max(1, (hi - lo) // 3)
        candidates = range(lo + third, hi - third + 1) or \
            range(lo + (hi - lo) // 2, lo + (hi - lo) // 2 + 1)
        want = min(candidates, key=lambda c: (
            _brute_force_crossing(dag, schedule, pos, lo, c), c))
        assert _best_cut(dag, schedule, pos, lo, hi) == want


# (workload, array size, mapper, smallest num_arrays that compiles strict)
BOUNDARY_CASES = [
    ("bfs", 32, "sherlock", 3),
    ("bitweaving", 64, "sherlock", 4),
    ("bitweaving", 64, "naive", 2),
]


class TestCapacityBoundary:
    """Pin each workload's capacity cliff and the ladder's save below it."""

    @pytest.mark.parametrize("workload,size,mapper,boundary", BOUNDARY_CASES)
    def test_smallest_fitting_target_compiles_strict(self, workload, size,
                                                     mapper, boundary):
        dag = get_workload(workload).build_dag()
        target = TargetSpec.square(size, RERAM, num_arrays=boundary,
                                   max_activated_rows=4)
        program = compile_dag(dag, target,
                              CompilerConfig(mapper=mapper,
                                             fallback="strict"),
                              cache=False)
        assert program.degradation == "none"

    @pytest.mark.parametrize("workload,size,mapper,boundary", BOUNDARY_CASES)
    def test_one_array_below_fails_strict_but_ladders(self, workload, size,
                                                      mapper, boundary):
        w = get_workload(workload)
        dag = w.build_dag()
        target = TargetSpec.square(size, RERAM, num_arrays=boundary - 1,
                                   max_activated_rows=4)
        with pytest.raises(CapacityError):
            compile_dag(dag, target,
                        CompilerConfig(mapper=mapper, fallback="strict"),
                        cache=False)
        program = compile_dag(dag, target, CompilerConfig(mapper=mapper),
                              cache=False)
        assert program.degradation != "none"
        inputs = w.make_inputs(random.Random(0), 8)
        assert program.verify(inputs, lanes=8)


class TestCLI:
    def test_flags_are_parsed(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--workload", "bfs", "--fallback", "strict",
             "--recycle", "always"])
        assert args.fallback == "strict" and args.recycle == "always"

    def test_strict_failure_prints_capacity_details(self, capsys):
        rc = main(["run", "--workload", "bfs", "--size", "32",
                   "--arrays", "2", "--lanes", "4", "--fallback", "strict"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "required cells" in err
        assert "--arrays" in err  # the actionable suggestion

    def test_ladder_run_succeeds_and_reports_degradation(self, capsys):
        rc = main(["run", "--workload", "bfs", "--size", "32",
                   "--arrays", "2", "--lanes", "4"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "functional check passed" in captured.out
        assert "degradation" in captured.err
        assert "sherlock+partitioned" in captured.err
