"""Unit tests for the detect-and-recover execution policies."""

import gc
import random
import re
import weakref

import pytest

from repro.arch import TargetSpec
from repro.core.compiler import compile_dag
from repro.core.config import CompilerConfig
from repro.devices import RERAM, STT_MRAM
from repro.dfg import OpType, evaluate
from repro.errors import SimulationError
from repro.reliability.campaign import run_campaign
from repro.reliability.recovery import (
    POLICIES,
    CheckpointReplay,
    DegradeMra,
    NoRecovery,
    RecoveryStats,
    RereadVote,
    _majority,
    execute_with_recovery,
    get_policy,
)
from repro.sim import ArrayMachine
from repro.workloads import get_workload
from repro.workloads.synthetic import synthetic_dag


def faulty_program(sigma=0.12, num_ops=24, seed=3):
    tech = STT_MRAM.with_variability(sigma, sigma)
    target = TargetSpec.square(64, tech, num_arrays=4, max_activated_rows=4)
    dag = synthetic_dag(num_ops=num_ops, num_inputs=8, seed=seed, name="rec")
    return compile_dag(dag, target,
                       CompilerConfig(mapper="sherlock", mra=4), cache=False)


def random_inputs(program, lanes, seed=0):
    rng = random.Random(seed)
    return {o.name: rng.getrandbits(lanes)
            for o in program.source_dag.inputs()}


def plain_machine(lanes=8):
    target = TargetSpec(RERAM, rows=16, cols=8, data_width=32, num_arrays=2)
    return ArrayMachine(target, lanes=lanes)


class TestMajority:
    def test_three_way(self):
        assert _majority([0b1100, 0b1010, 0b1001], 0xF) == 0b1000

    def test_outvotes_single_disagreement(self):
        assert _majority([0b0110, 0b0110, 0b1111], 0xF) == 0b0110

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_matches_per_lane_counting(self, n):
        rng = random.Random(n)
        lanes = 16
        mask = (1 << lanes) - 1
        for _ in range(50):
            senses = [rng.getrandbits(lanes) for _ in range(n)]
            expected = 0
            for lane in range(lanes):
                ones = sum((s >> lane) & 1 for s in senses)
                if ones > n // 2:
                    expected |= 1 << lane
            assert _majority(senses, mask) == expected

    @pytest.mark.parametrize("n", [5, 7])
    def test_sparse_senses(self, n):
        """Lanes no sense sets must vote 0, whatever planes the count fills."""
        assert _majority([0] * n, 1) == 0
        assert _majority([0] * n, 0xFF) == 0
        assert _majority([0b0100] + [0] * (n - 1), 0xF) == 0
        assert _majority([0b0100] * (n // 2 + 1) + [0] * (n // 2),
                         0xF) == 0b0100

    def test_five_votes_fault_free_match_reference(self):
        target = TargetSpec.square(32, RERAM)
        dag = synthetic_dag(num_ops=24, num_inputs=6, seed=5, name="vote5")
        program = compile_dag(dag, target, cache=False)
        for seed in range(5):
            rng = random.Random(seed)
            inputs = {o.name: rng.getrandbits(8) & rng.getrandbits(8)
                      for o in dag.inputs()}
            outcome = execute_with_recovery(program, inputs, 8,
                                            policy=RereadVote(votes=5))
            assert outcome.outputs == evaluate(dag, inputs, 8)


class TestRegistry:
    def test_all_policies_registered(self):
        assert set(POLICIES) == {"none", "reread-vote", "checkpoint-replay",
                                 "degrade-mra"}

    def test_get_policy_builds_named_instances(self):
        for name in POLICIES:
            policy = get_policy(name)
            assert policy.name == name
            assert policy.stats == RecoveryStats()

    def test_unknown_policy_raises(self):
        with pytest.raises(SimulationError, match="unknown recovery policy"):
            get_policy("pray")

    def test_even_vote_count_rejected(self):
        with pytest.raises(SimulationError, match="odd"):
            RereadVote(votes=4)

    def test_bad_checkpoint_interval_rejected(self):
        with pytest.raises(SimulationError, match="interval"):
            CheckpointReplay(interval=0)


class TestRereadVoteUnit:
    def test_outvotes_a_faulty_first_sense(self):
        policy = RereadVote(votes=3)
        machine = plain_machine()
        good = 0b0110
        senses = iter([good, good])
        value = policy.on_sense(machine, OpType.AND, 2, [0b1110, 0b0111],
                                0b1111, lambda: next(senses))
        assert value == good
        assert policy.stats.votes == 1
        assert policy.stats.extra_senses == 2
        assert policy.stats.disagreements == 1
        assert policy.stats.overhead_latency_cycles > 0
        assert policy.stats.overhead_energy_pj > 0

    def test_plain_reads_are_not_voted(self):
        policy = RereadVote()
        value = policy.on_sense(plain_machine(), None, 1, [0b1010], 0b1010,
                                lambda: 0)
        assert value == 0b1010
        assert policy.stats.votes == 0
        assert policy.stats.overhead_latency_cycles == 0


class TestDegradeMraUnit:
    def test_agreeing_double_sense_is_accepted(self):
        policy = DegradeMra(retries=2)
        value = policy.on_sense(plain_machine(), OpType.AND, 3,
                                [0b1110, 0b0111, 0b0110], 0b0110,
                                lambda: 0b0110)
        assert value == 0b0110
        assert policy.stats.extra_senses == 1
        assert policy.stats.degraded_ops == 0

    def test_persistent_disagreement_degrades_to_mra2_chain(self):
        policy = DegradeMra(retries=1)
        machine = plain_machine()  # no fault_rng: the chain is exact
        values = [0b1110, 0b0111, 0b0110]
        # detection pair disagrees, retry pair disagrees -> degrade
        senses = iter([0b0001, 0b1000, 0b0100])
        value = policy.on_sense(machine, OpType.AND, 3, values, 0b1111,
                                lambda: next(senses))
        assert value == 0b1110 & 0b0111 & 0b0110
        assert policy.stats.degraded_ops == 1
        assert policy.stats.degraded_reads == 2   # k-1 two-row senses
        assert policy.stats.degraded_writes == 1  # k-2 write-backs
        assert policy.stats.overhead_latency_cycles > 0

    def test_inverted_op_chain_applies_final_not(self):
        policy = DegradeMra(retries=0)
        machine = plain_machine(lanes=4)
        values = [0b1100, 0b1010]
        # NAND is k=2: nothing to degrade to -> accept the detection sense
        senses = iter([0b0001])
        value = policy.on_sense(machine, OpType.NAND, 2, values, 0b1111,
                                lambda: next(senses))
        assert value == 0b0001
        assert policy.stats.retries_exhausted == 1
        # with k=3 the chain runs and the final inversion applies
        policy = DegradeMra(retries=0)
        values = [0b1100, 0b1010, 0b0110]
        senses = iter([0b0001])
        value = policy.on_sense(machine, OpType.NAND, 3, values, 0b1111,
                                lambda: next(senses))
        assert value == (~(0b1100 & 0b1010 & 0b0110)) & 0xF
        assert policy.stats.degraded_ops == 1


class TestCheckpointReplay:
    def test_fault_free_run_takes_no_rollbacks(self):
        program = faulty_program()
        inputs = random_inputs(program, lanes=8)
        policy = CheckpointReplay(interval=16)
        outputs = policy.execute(program, inputs, lanes=8, fault_rng=None)
        assert outputs == program.execute(inputs, lanes=8)
        assert policy.stats.checkpoints > 1
        assert policy.stats.rollbacks == 0
        assert policy.stats.overhead_latency_cycles == 0

    def test_rollback_replays_and_recovers(self):
        """A seed where plain execution fails but replay recovers."""
        program = faulty_program()
        inputs = random_inputs(program, lanes=8)
        expected = program.execute(inputs, lanes=8)
        failing_seed = None
        for seed in range(40):
            if program.execute(inputs, lanes=8,
                               fault_rng=random.Random(seed)) != expected:
                failing_seed = seed
                break
        assert failing_seed is not None
        policy = CheckpointReplay(interval=16, retries=5)
        outputs = policy.execute(program, inputs, lanes=8,
                                 fault_rng=random.Random(failing_seed))
        assert policy.stats.rollbacks >= 1
        assert policy.stats.replayed_instructions > 0
        assert policy.stats.overhead_latency_cycles > 0
        assert outputs == expected


class TestExecuteWithRecovery:
    def test_fault_free_outcome_matches_reference(self):
        program = faulty_program()
        inputs = random_inputs(program, lanes=8)
        outcome = execute_with_recovery(program, inputs, lanes=8)
        assert not outcome.failed
        assert outcome.policy == "none"
        assert outcome.outputs == outcome.expected

    def test_policy_accepts_registry_names(self):
        program = faulty_program()
        inputs = random_inputs(program, lanes=8)
        outcome = execute_with_recovery(program, inputs, lanes=8,
                                        fault_rng=random.Random(5),
                                        policy="reread-vote")
        assert outcome.policy == "reread-vote"
        assert outcome.stats.votes > 0

    def test_overhead_lands_in_metrics(self):
        program = faulty_program()
        inputs = random_inputs(program, lanes=8)
        outcome = execute_with_recovery(program, inputs, lanes=8,
                                        fault_rng=random.Random(5),
                                        policy=RereadVote())
        base = program.metrics
        assert outcome.metrics.recovery_latency_cycles == \
            outcome.stats.overhead_latency_cycles
        assert outcome.metrics.total_latency_cycles == \
            base.latency_cycles + outcome.stats.overhead_latency_cycles
        assert outcome.metrics.total_energy_pj == pytest.approx(
            base.energy_pj + outcome.stats.overhead_energy_pj)
        assert outcome.metrics.latency_ns > base.latency_ns

    def test_fresh_policy_instances_do_not_share_stats(self):
        first = get_policy("reread-vote")
        second = get_policy("reread-vote")
        first.stats.votes = 99
        assert second.stats.votes == 0


class TestRecoveryStats:
    def test_merge_sums_every_field(self):
        a = RecoveryStats(extra_senses=1, votes=2, rollbacks=3,
                          overhead_latency_cycles=10, overhead_energy_pj=1.5)
        b = RecoveryStats(extra_senses=4, votes=1, retries_exhausted=2,
                          overhead_latency_cycles=5, overhead_energy_pj=0.5)
        a.merge(b)
        assert a.extra_senses == 5
        assert a.votes == 3
        assert a.rollbacks == 3
        assert a.retries_exhausted == 2
        assert a.overhead_latency_cycles == 15
        assert a.overhead_energy_pj == pytest.approx(2.0)

    def test_charge_accumulates(self):
        stats = RecoveryStats()
        stats.charge(7, 1.25)
        stats.charge(3, 0.75)
        assert stats.overhead_latency_cycles == 10
        assert stats.overhead_energy_pj == pytest.approx(2.0)


class TestNoRecovery:
    def test_matches_program_execute(self):
        program = faulty_program()
        inputs = random_inputs(program, lanes=8)
        policy = NoRecovery()
        out_policy = policy.execute(program, inputs, lanes=8,
                                    fault_rng=random.Random(11))
        out_direct = program.execute(inputs, lanes=8,
                                     fault_rng=random.Random(11))
        assert out_policy == out_direct
        assert policy.machine is not None
        assert policy.stats == RecoveryStats()


class TestMachineLifetime:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_trial_machine_is_freed_without_gc(self, name):
        """A policy keeps its last machine for fault accounting but holds
        it in no reference cycle: dropping the policy frees the machine
        and its cells by reference counting alone."""
        program = faulty_program()
        lanes = 8
        policy = get_policy(name)
        gc.disable()
        try:
            policy.execute(program, random_inputs(program, lanes), lanes,
                           random.Random(1))
            assert policy.machine.injected_faults >= 0
            machine = weakref.ref(policy.machine)
            del policy
            assert machine() is None
        finally:
            gc.enable()

    def test_observer_is_unhooked_after_execute(self):
        program = faulty_program()
        policy = RereadVote()
        policy.execute(program, random_inputs(program, 8), 8,
                       random.Random(1))
        assert policy.machine.observer is None
        assert policy.stats.votes > 0


class TestStagedPrograms:
    """Every policy runs on the shared, stage-aware run path."""

    @pytest.fixture(scope="class")
    def staged_bfs(self):
        workload = get_workload("bfs")
        program = compile_dag(workload.build_dag(),
                              TargetSpec.square(32, RERAM, num_arrays=1),
                              cache=False)
        assert program.stages is not None
        inputs = workload.make_inputs(random.Random(0), 8)
        return program, inputs, evaluate(program.source_dag, inputs, 8)

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_staged_fault_free_run_matches_reference_or_is_rejected(
            self, name, staged_bfs):
        program, inputs, expected = staged_bfs
        policy = get_policy(name)
        try:
            policy.check_program(program)
        except SimulationError as error:
            assert name in str(error)
            assert program.degradation in str(error)
            with pytest.raises(SimulationError, match=name):
                policy.execute(program, inputs, 8, fault_rng=None)
            with pytest.raises(SimulationError, match=re.escape(program.degradation)):
                run_campaign(program, trials=1, lanes=8, policy=name)
            return
        assert policy.execute(program, inputs, 8, fault_rng=None) == expected
        result = run_campaign(program, trials=2, lanes=8, policy=name)
        assert result.trials == 2
