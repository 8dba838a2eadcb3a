"""Tests for the Monte-Carlo fault-injection campaign engine."""

import dataclasses
import random
import re

import pytest

from repro.arch import ReadInst, TargetSpec, WriteInst
from repro.core.compiler import compile_dag
from repro.core.config import CompilerConfig
from repro.core.report import RecoveryReport
from repro.devices import STT_MRAM, CellFault, FaultMap
from repro.dfg.evaluate import evaluate
from repro.errors import GraphError, SimulationError
from repro.reliability import (
    RereadVote,
    ShardOutcome,
    analytic_failure_probability,
    run_campaign,
    run_trial_block,
    sense_failure_probabilities,
    shard_ranges,
    wilson_interval,
)
from repro.reliability import campaign as campaign_module
from repro.sim.executor import ArrayMachine, extract_outputs, preload_sources
from repro.workloads import get_workload
from repro.workloads.synthetic import synthetic_dag


@pytest.fixture(scope="module")
def program():
    """A small synthetic program in a measurable-failure-rate regime."""
    tech = STT_MRAM.with_variability(0.12, 0.12)
    target = TargetSpec.square(64, tech, num_arrays=4, max_activated_rows=4)
    dag = synthetic_dag(num_ops=24, num_inputs=8, seed=3, name="camp")
    return compile_dag(dag, target,
                       CompilerConfig(mapper="sherlock", mra=4), cache=False)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(37, 200)
        assert lo < 37 / 200 < hi

    def test_stays_in_unit_interval_at_extremes(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0
        assert wilson_interval(0, 50)[1] > 0.0  # zero successes != zero rate
        assert wilson_interval(50, 50)[0] < 1.0

    def test_narrows_with_trials(self):
        lo1, hi1 = wilson_interval(10, 100)
        lo2, hi2 = wilson_interval(100, 1000)
        assert hi2 - lo2 < hi1 - lo1

    def test_rejects_bad_counts(self):
        with pytest.raises(SimulationError):
            wilson_interval(1, 0)
        with pytest.raises(SimulationError):
            wilson_interval(5, 4)


class TestAnalyticModel:
    def test_sense_probabilities_cover_every_sensed_column(self, program):
        sensed = 0
        for inst in program.instructions:
            if isinstance(inst, ReadInst):
                sensed += len(inst.cols)
        assert len(sense_failure_probabilities(program)) == sensed

    def test_lane_compounding_monotone(self, program):
        p8 = analytic_failure_probability(program, 8)
        p64 = analytic_failure_probability(program, 64)
        assert 0.0 < p8 < p64 <= 1.0

    def test_exceeds_trace_p_app(self, program):
        """Lane-compounded P includes plain reads and all lanes."""
        assert analytic_failure_probability(program, 64) \
            >= program.metrics.p_app


class TestCampaignMechanics:
    def test_deterministic_for_same_seed(self, program):
        a = run_campaign(program, trials=50, seed=9, lanes=8)
        b = run_campaign(program, trials=50, seed=9, lanes=8)
        assert a == b

    def test_different_seeds_draw_different_faults(self, program):
        a = run_campaign(program, trials=50, seed=1, lanes=8)
        b = run_campaign(program, trials=50, seed=2, lanes=8)
        assert a.injected_faults != b.injected_faults

    def test_output_failures_bounded_by_decision_failures(self, program):
        result = run_campaign(program, trials=200, seed=0, lanes=8)
        assert result.output_failures <= result.decision_failures
        assert 0.0 <= result.analytic_p_app <= 1.0

    def test_fixed_inputs_are_honored(self, program):
        inputs = {o.name: 0 for o in program.source_dag.inputs()}
        result = run_campaign(program, trials=30, seed=0, lanes=8,
                              inputs=inputs)
        assert result.trials == 30

    def test_bad_policy_fails_fast(self, program):
        with pytest.raises(SimulationError, match="unknown recovery policy"):
            run_campaign(program, trials=10, policy="hope")

    def test_bad_trial_count_rejected(self, program):
        with pytest.raises(SimulationError, match="positive"):
            run_campaign(program, trials=0)


class TestModelValidation:
    def test_empirical_rate_within_wilson_of_analytic(self, program):
        """The acceptance-criteria experiment: >= 1000 seeded trials must
        put the analytic prediction inside the 95% Wilson interval of the
        empirical decision-failure rate."""
        result = run_campaign(program, trials=1000, seed=0, policy="none",
                              lanes=8)
        lo, hi = result.decision_wilson
        assert lo <= result.analytic_p_app <= hi
        assert result.analytic_within_interval


class TestPoliciesReduceFailures:
    @pytest.fixture(scope="class")
    def results(self, program):
        """One campaign per policy, all on the same seeded fault streams."""
        return {name: run_campaign(program, trials=300, seed=7,
                                   policy=name, lanes=8)
                for name in ("none", "reread-vote", "checkpoint-replay",
                             "degrade-mra")}

    def test_baseline_actually_fails(self, results):
        assert results["none"].output_failures >= 10

    @pytest.mark.parametrize("policy", ["reread-vote", "checkpoint-replay",
                                        "degrade-mra"])
    def test_policy_beats_no_recovery(self, results, policy):
        assert results[policy].output_failures \
            < results["none"].output_failures

    @pytest.mark.parametrize("policy", ["reread-vote", "checkpoint-replay",
                                        "degrade-mra"])
    def test_overhead_is_priced(self, results, policy):
        result = results[policy]
        assert result.stats.overhead_latency_cycles > 0
        assert result.stats.overhead_energy_pj > 0
        assert result.latency_overhead_frac > 0
        assert result.energy_overhead_frac > 0

    def test_no_recovery_has_no_overhead(self, results):
        assert results["none"].stats.overhead_latency_cycles == 0
        assert results["none"].latency_overhead_frac == 0.0

    def test_recovery_report_renders_all_policies(self, results):
        report = RecoveryReport.from_results(list(results.values()))
        text = report.render()
        for name in results:
            assert name in text
        assert "ci95_lo" in text
        assert "camp" in text  # program footer

    def test_summary_keys(self, results):
        summary = results["reread-vote"].summary()
        assert summary["output_rate"] <= summary["decision_rate"]
        assert summary["overhead_latency_frac"] > 0


class TestShardRanges:
    def test_blocks_cover_the_trial_range_contiguously(self):
        for trials, workers in ((1, 1), (7, 2), (100, 3), (1000, 4)):
            ranges = shard_ranges(trials, workers)
            assert ranges[0][0] == 0
            assert sum(count for _, count in ranges) == trials
            for (first, count), (next_first, _) in zip(ranges, ranges[1:]):
                assert next_first == first + count

    def test_blocks_are_balanced_and_non_empty(self):
        ranges = shard_ranges(101, 4)
        counts = [count for _, count in ranges]
        assert min(counts) >= 1
        assert max(counts) - min(counts) <= 1

    def test_never_more_blocks_than_trials(self):
        assert shard_ranges(3, 8) == [(0, 1), (1, 1), (2, 1)]

    def test_rejects_bad_counts(self):
        with pytest.raises(SimulationError, match="positive"):
            shard_ranges(0, 2)
        with pytest.raises(SimulationError, match="positive"):
            shard_ranges(10, 0)


class TestParallelCampaigns:
    def test_parallel_bit_identical_to_serial(self, program):
        """The acceptance experiment: same master seed, sharded workers,
        identical failure counts (CampaignResult compares all counters)."""
        serial = run_campaign(program, trials=60, seed=9, lanes=8, workers=1)
        parallel = run_campaign(program, trials=60, seed=9, lanes=8,
                                workers=2)
        assert serial == parallel

    def test_parallel_bit_identical_with_recovery_policy(self, program):
        serial = run_campaign(program, trials=40, seed=5, lanes=8,
                              policy="reread-vote", workers=1)
        parallel = run_campaign(program, trials=40, seed=5, lanes=8,
                                policy="reread-vote", workers=3)
        assert serial == parallel

    def test_trial_blocks_merge_to_the_serial_counters(self, program):
        whole = run_trial_block(program, 0, 30, 9, "none", 8)
        merged = ShardOutcome()
        for first, count in shard_ranges(30, 4):
            merged.merge(run_trial_block(program, first, count, 9,
                                         "none", 8))
        assert merged == whole

    def test_zero_workers_rejected(self, program):
        with pytest.raises(SimulationError, match="positive"):
            run_campaign(program, trials=10, workers=0)

    def test_pool_failure_falls_back_to_serial(self, program, monkeypatch):
        """When the pool cannot even be created, the campaign warns and
        degrades to the serial path — same result, no crash."""
        def broken_pool(*args, **kwargs):
            raise OSError("no process support here")

        monkeypatch.setattr(campaign_module, "ProcessPoolExecutor",
                            broken_pool)
        with pytest.warns(RuntimeWarning, match="running serially"):
            fallback = run_campaign(program, trials=20, seed=3, lanes=8,
                                    workers=2)
        assert fallback == run_campaign(program, trials=20, seed=3, lanes=8,
                                        workers=1)

    def test_failed_shards_are_retried_serially(self, program, monkeypatch):
        """A shard slot coming back None (timeout / dead worker) is re-run
        in-process; the merged result still matches the serial campaign."""
        monkeypatch.setattr(
            campaign_module, "_parallel_outcomes",
            lambda program, ranges, *args, **kwargs: [None] * len(ranges))
        retried = run_campaign(program, trials=25, seed=4, lanes=8,
                               workers=2)
        assert retried == run_campaign(program, trials=25, seed=4, lanes=8,
                                       workers=1)

    def test_shard_recovery_retries_transient_failures(self, program,
                                                       monkeypatch):
        """The in-process shard re-run rides ``repro.util.retry``: a
        transient OSError on the first recovery attempt is re-attempted,
        and the merged counters stay bit-identical to the serial run."""
        serial = run_campaign(program, trials=25, seed=4, lanes=8, workers=1)
        real_block = campaign_module.run_trial_block
        flaky = {"raised": False}

        def flaky_block(*args, **kwargs):
            if not flaky["raised"]:
                flaky["raised"] = True
                raise OSError("transient recovery failure")
            return real_block(*args, **kwargs)

        monkeypatch.setattr(
            campaign_module, "_parallel_outcomes",
            lambda program, ranges, *args, **kwargs: [None] * len(ranges))
        monkeypatch.setattr(campaign_module, "run_trial_block", flaky_block)
        recovered = run_campaign(program, trials=25, seed=4, lanes=8,
                                 workers=2)
        assert flaky["raised"]
        assert recovered == serial

    def test_shard_recovery_propagates_fatal_errors(self, program,
                                                    monkeypatch):
        """Errors outside the retryable allowlist fail the campaign
        immediately instead of burning the bounded retry budget."""
        monkeypatch.setattr(
            campaign_module, "_parallel_outcomes",
            lambda program, ranges, *args, **kwargs: [None] * len(ranges))

        def fatal_block(*args, **kwargs):
            raise SimulationError("shard is deterministically broken")

        monkeypatch.setattr(campaign_module, "run_trial_block", fatal_block)
        with pytest.raises(SimulationError, match="deterministically"):
            run_campaign(program, trials=10, seed=1, lanes=8, workers=2)


class TestReferenceEvaluation:
    """The per-trial oracle: one packed evaluation per trial block."""

    @pytest.mark.parametrize("policy", ["none", "reread-vote"])
    def test_fixed_inputs_wider_than_lanes_raise(self, program, policy):
        inputs = {o.name: 0 for o in program.source_dag.inputs()}
        inputs[next(iter(inputs))] = 1 << 8
        with pytest.raises(GraphError, match="does not fit in 8 lanes"):
            run_campaign(program, trials=3, lanes=8, inputs=inputs,
                         policy=policy)

    def test_fixed_inputs_missing_a_name_raise(self, program):
        inputs = {o.name: 0 for o in program.source_dag.inputs()}
        missing = inputs.popitem()[0]
        with pytest.raises(GraphError, match=re.escape(
                f"missing value for input '{missing}'")):
            run_campaign(program, trials=3, lanes=8, inputs=inputs)

    def test_fixed_inputs_with_an_unknown_name_raise(self, program):
        inputs = {o.name: 0 for o in program.source_dag.inputs()}
        inputs["no_such_input"] = 1
        with pytest.raises(GraphError, match="unknown inputs"):
            run_campaign(program, trials=3, lanes=8, inputs=inputs)

    def test_packed_reference_equals_per_set_evaluation(self, program):
        dag = program.source_dag
        rng = random.Random(4)
        names = [o.name for o in dag.inputs()]
        sets = [{name: rng.getrandbits(8) for name in names}
                for _ in range(5)]
        sets.append(dict.fromkeys(names, 0xFF))  # every lane set
        sets.append(dict.fromkeys(names, 0))
        packed = campaign_module._reference_outputs(dag, sets, 8)
        assert packed == [evaluate(dag, inputs, 8) for inputs in sets]

    @pytest.mark.parametrize("bad", ["wide", "negative", "missing",
                                     "unknown"])
    def test_packing_rejects_sets_that_would_leave_their_slice(self, program,
                                                               bad):
        dag = program.source_dag
        names = [o.name for o in dag.inputs()]
        sets = [dict.fromkeys(names, 1) for _ in range(3)]
        victim = sets[1]
        if bad == "wide":
            victim[names[0]] = 1 << 8  # lane 0 of the next slice
        elif bad == "negative":
            victim[names[0]] = -1
        elif bad == "missing":
            del victim[names[0]]
        else:
            victim["no_such_input"] = 0
        with pytest.raises(GraphError):
            campaign_module._reference_outputs(dag, sets, 8)

    def test_block_references_match_per_trial_evaluation(self, program,
                                                         monkeypatch):
        """Chunked packing (here 2 trials per call) gives each trial its
        own generated inputs and their exact reference outputs."""
        dag = program.source_dag
        names = [o.name for o in dag.inputs()]
        monkeypatch.setattr(campaign_module, "_REFERENCE_LANES", 16)
        pairs = list(campaign_module._trial_references(dag, 5, 7, 3, 8,
                                                       None))
        assert len(pairs) == 7
        for trial, (inputs, expected) in enumerate(pairs, 5):
            assert inputs == campaign_module._trial_inputs(3, trial, names,
                                                           8)
            assert expected == evaluate(dag, inputs, 8)


@pytest.mark.campaign
class TestFullCampaign:
    """Large campaign over a real workload; excluded from tier-1 by marker."""

    def test_bitweaving_campaign_model_validation(self):
        tech = STT_MRAM.with_variability(0.1, 0.1)
        target = TargetSpec.square(256, tech, num_arrays=16,
                                   max_activated_rows=4)
        dag = get_workload("bitweaving").build_dag()
        program = compile_dag(dag, target,
                              CompilerConfig(mapper="sherlock", mra=4),
                              cache=False)
        result = run_campaign(program, trials=1000, seed=0, lanes=8)
        lo, hi = result.decision_wilson
        assert lo <= result.analytic_p_app <= hi

    def test_bitweaving_policies_reduce_failures(self):
        tech = STT_MRAM.with_variability(0.12, 0.12)
        target = TargetSpec.square(256, tech, num_arrays=16,
                                   max_activated_rows=4)
        dag = get_workload("bitweaving").build_dag()
        program = compile_dag(dag, target,
                              CompilerConfig(mapper="sherlock", mra=4),
                              cache=False)
        base = run_campaign(program, trials=300, seed=0, lanes=8)
        for name in ("reread-vote", "checkpoint-replay", "degrade-mra"):
            recovered = run_campaign(program, trials=300, seed=0,
                                     policy=name, lanes=8)
            assert recovered.output_failures <= base.output_failures


# ----------------------------------------------------------------------
# golden interpreted fault stream
# ----------------------------------------------------------------------
# The interpreted engine draws every decision failure, write failure and
# recovery re-sense from a ``random.Random`` stream in a fixed order, and
# seeded campaigns are compared across policies and releases on exactly
# that stream.  These counters were recorded from the reference
# interpreter; an executor or policy change that reorders, adds or drops
# a single draw fails here by name (``pytest -k golden``).

GOLDEN_POLICIES = ("none", "reread-vote", "checkpoint-replay", "degrade-mra")


def _counters(result):
    """Every seeded counter of a campaign, stats fields included."""
    return (result.decision_failures, result.output_failures,
            result.injected_faults, dataclasses.astuple(result.stats))


def _golden_perfbench_programs():
    """bfs and bitweaving on the STT-MRAM 512 target the benchmark uses."""
    target = TargetSpec.square(512, STT_MRAM, max_activated_rows=4)
    config = CompilerConfig(mapper="sherlock", mra=4)
    return {name: compile_dag(get_workload(name).build_dag(), target,
                              config, cache=False)
            for name in ("bfs", "bitweaving")}


def _golden_noisy_program():
    """A synthetic program noisy enough to roll back and degrade reads."""
    tech = STT_MRAM.with_variability(0.16, 0.16)
    target = TargetSpec.square(64, tech, num_arrays=4, max_activated_rows=4)
    dag = synthetic_dag(num_ops=24, num_inputs=8, seed=3, name="camp")
    return compile_dag(dag, target,
                       CompilerConfig(mapper="sherlock", mra=4), cache=False)


def _golden_campaign(program, policy, trials, seed, inputs=None):
    return _counters(run_campaign(program, trials=trials, seed=seed,
                                  policy=policy, lanes=8, workers=1,
                                  inputs=inputs, engine="interpreted"))


def _golden_fixed_inputs(program):
    return {o.name: (37 * i + 5) & 0xFF
            for i, o in enumerate(program.source_dag.inputs())}


def _golden_verify_run():
    """Stuck cells under written rows, transient write failures, decision
    failures and a voting observer, all on one interpreted machine."""
    tech = dataclasses.replace(STT_MRAM.with_variability(0.12, 0.12),
                               write_failure_probability=0.05)
    target = TargetSpec.square(32, tech, num_arrays=2, max_activated_rows=4)
    dag = synthetic_dag(num_ops=20, num_inputs=6, seed=5, name="verify")
    program = compile_dag(dag, target,
                          CompilerConfig(mapper="sherlock", mra=4),
                          cache=False)
    written = []
    for inst in program.instructions:
        if isinstance(inst, WriteInst):
            for col in inst.cols:
                if (inst.array, inst.row, col) not in written:
                    written.append((inst.array, inst.row, col))
    fault_map = FaultMap()
    for cell, fault in zip(written[:6:2], (CellFault.STUCK0,
                                           CellFault.STUCK1,
                                           CellFault.DEAD)):
        fault_map.set_fault(*cell, fault)
    observer = RereadVote()
    machine = ArrayMachine(target, 8, random.Random(5), strict_shift=True,
                           observer=observer, fault_map=fault_map,
                           verify_writes=True, write_retries=1,
                           spare_pool=program.layout.spare_cells())
    inputs = {o.name: (29 * i + 3) & 0xFF
              for i, o in enumerate(dag.inputs())}
    preload_sources(machine, program.layout, program.dag, inputs)
    machine.run(program.instructions)
    outputs = extract_outputs(machine, program.layout, program.dag)
    return (outputs, machine.injected_faults,
            machine.write_failures_injected, machine.writes_verified,
            machine.write_retries_used, machine.remaps,
            sorted((cell, fault.value)
                   for cell, fault in machine.discovered_faults.cells()),
            dataclasses.astuple(observer.stats))


#: (decision_failures, output_failures, injected_faults, RecoveryStats
#: fields in declaration order) per (kernel, policy); trials=4, seed=7
GOLDEN_PERFBENCH = {
    ("bfs", "checkpoint-replay"): (1, 0, 1,
        (0, 0, 0, 0, 0, 0, 84, 0, 0, 0, 0, 0.0)),
    ("bfs", "degrade-mra"): (1, 0, 2,
        (1476, 0, 2, 0, 0, 0, 0, 0, 0, 0, 5904, 673876.8000000006)),
    ("bfs", "none"): (1, 0, 1,
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.0)),
    ("bfs", "reread-vote"): (1, 0, 1,
        (2944, 1472, 1, 0, 0, 0, 0, 0, 0, 0, 11776, 1342822.400000001)),
    ("bitweaving", "checkpoint-replay"): (1, 0, 1,
        (0, 0, 0, 0, 0, 0, 240, 0, 0, 0, 0, 0.0)),
    ("bitweaving", "degrade-mra"): (3, 0, 3,
        (13190, 0, 3, 0, 0, 0, 0, 0, 0, 0, 52760, 5770610.399999916)),
    ("bitweaving", "none"): (1, 0, 1,
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.0)),
    ("bitweaving", "reread-vote"): (1, 0, 1,
        (26368, 13184, 1, 0, 0, 0, 0, 0, 0, 0, 105472, 11534643.19999983)),
}

#: the same counters on the noisy synthetic program; trials=20, seed=11
GOLDEN_NOISY = {
    "checkpoint-replay": (19, 12, 187,
        (0, 0, 0, 0, 0, 0, 120, 45, 2505, 12, 16305, 325131.6000000003)),
    "degrade-mra": (20, 3, 198,
        (1242, 0, 139, 1, 2, 1, 0, 0, 0, 2, 3744, 66838.87999999996)),
    "none": (19, 15, 104,
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.0)),
    "reread-vote": (20, 2, 251,
        (1840, 920, 201, 0, 0, 0, 0, 0, 0, 0, 5520, 98400.0)),
}

GOLDEN_FIXED_INPUTS = (10, 3, 124,
                       (920, 460, 100, 0, 0, 0, 0, 0, 0, 0, 2760, 49200.0))

#: (outputs, injected_faults, write_failures_injected, writes_verified,
#: write_retries_used, remaps, discovered_faults, observer RecoveryStats)
GOLDEN_VERIFY = (
    {"out0": 3, "out1": 20, "out2": 169, "out3": 222},
    1, 4, 76, 7,
    [((0, 31, 4), (0, 10, 4)), ((0, 31, 1), (0, 11, 1)),
     ((0, 30, 1), (0, 12, 1))],
    [((0, 30, 1), "dead"), ((0, 31, 1), "dead"), ((0, 31, 4), "dead")],
    (66, 33, 1, 0, 0, 0, 0, 0, 0, 0, 198, 1834.400000000001))


@pytest.fixture(scope="module")
def golden_perfbench_programs():
    return _golden_perfbench_programs()


@pytest.fixture(scope="module")
def golden_noisy_program():
    return _golden_noisy_program()


class TestGoldenInterpretedStream:
    @pytest.mark.parametrize("kernel", ["bfs", "bitweaving"])
    @pytest.mark.parametrize("policy", GOLDEN_POLICIES)
    def test_golden_perfbench_target(self, golden_perfbench_programs,
                                     kernel, policy):
        got = _golden_campaign(golden_perfbench_programs[kernel], policy,
                               trials=4, seed=7)
        assert got == GOLDEN_PERFBENCH[kernel, policy]

    @pytest.mark.parametrize("policy", GOLDEN_POLICIES)
    def test_golden_noisy_synthetic(self, golden_noisy_program, policy):
        got = _golden_campaign(golden_noisy_program, policy, trials=20,
                               seed=11)
        assert got == GOLDEN_NOISY[policy]

    def test_golden_fixed_inputs(self, golden_noisy_program):
        got = _golden_campaign(golden_noisy_program, "reread-vote",
                               trials=10, seed=11,
                               inputs=_golden_fixed_inputs(
                                   golden_noisy_program))
        assert got == GOLDEN_FIXED_INPUTS

    def test_golden_verify_after_write_with_fault_map(self):
        assert _golden_verify_run() == GOLDEN_VERIFY
