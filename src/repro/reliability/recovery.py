"""Detect-and-recover execution of compiled programs under injected faults.

The analytic model (:mod:`repro.devices.failure`) says how often a sensing
decision fails; this module is what a controller can *do* about it.  Three
pluggable policies close the detect → retry → degrade loop:

* ``reread-vote`` — re-sense every CIM read so each column is sensed an odd
  number of times (default 3) and take a per-lane majority vote.  Decision
  failures are independent across senses, so the per-lane failure
  probability drops from ``p`` to roughly ``3p²``.
* ``checkpoint-replay`` — snapshot the machine every K instructions; at the
  end of the run compare the outputs against a shadow check (the reference
  DAG evaluation, modeling a cheap controller-side recomputation).  On a
  mismatch, roll back and replay with a bounded retry budget, escalating to
  an older checkpoint on every retry so corruption that predates the last
  snapshot is eventually replayed too.
* ``degrade-mra`` — detect a suspect multi-row read by double-sensing;
  after R disagreeing retries, re-execute the op as a chain of MRA = 2
  reads (the paper's own reliability knob, Sec. 4.2, applied dynamically):
  ``k − 1`` two-row senses at the far smaller ``P_DF(op, 2)`` plus ``k − 2``
  intermediate write-backs.

Every recovery action is priced with the :mod:`repro.sim.metrics` cost
helpers and accumulated in :class:`RecoveryStats`, so the latency/energy
overhead of reliability lands in the same units as the base schedule
(``TraceMetrics.with_recovery``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from repro.dfg.evaluate import evaluate
from repro.dfg.ops import OpType, apply_op
from repro.errors import SimulationError
from repro.mapping.partition import run_program
from repro.sim.executor import ArrayMachine, extract_outputs, preload_sources
from repro.sim.metrics import (
    TraceMetrics,
    analyze_trace,
    read_cost,
    rowbuf_not_cost,
    write_cost,
)
from repro.util.vote import majority as _majority

__all__ = [
    "POLICIES",
    "CheckpointReplay",
    "DegradeMra",
    "NoRecovery",
    "RecoveryOutcome",
    "RecoveryPolicy",
    "RecoveryStats",
    "RereadVote",
    "execute_with_recovery",
    "get_policy",
    "register_policy",
]


@dataclass
class RecoveryStats:
    """Everything a recovery policy did during one (or many) runs."""

    #: re-sense reads issued beyond the scheduled one
    extra_senses: int = 0
    #: majority votes taken (one per voted CIM column sense)
    votes: int = 0
    #: sense disagreements detected (vote splits / double-sense mismatches)
    disagreements: int = 0
    #: CIM ops dynamically degraded to an MRA = 2 chain
    degraded_ops: int = 0
    #: two-row reads issued by degraded chains
    degraded_reads: int = 0
    #: intermediate write-backs issued by degraded chains
    degraded_writes: int = 0
    #: machine snapshots taken
    checkpoints: int = 0
    #: rollbacks to a checkpoint after a failed shadow check
    rollbacks: int = 0
    #: instructions re-executed during replays
    replayed_instructions: int = 0
    #: recoveries abandoned with the retry budget exhausted
    retries_exhausted: int = 0
    #: priced overhead of all of the above, in controller cycles
    overhead_latency_cycles: int = 0
    #: priced overhead of all of the above, in picojoules
    overhead_energy_pj: float = 0.0

    def charge(self, cycles: int, energy_pj: float) -> None:
        """Add priced recovery work to the overhead accumulators."""
        self.overhead_latency_cycles += cycles
        self.overhead_energy_pj += energy_pj

    def merge(self, other: "RecoveryStats") -> None:
        """Fold another stats record into this one (campaign aggregation)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class RecoveryPolicy:
    """Base policy: how to run a compiled program under faults.

    The default implementation is fault-oblivious plain execution; policies
    override :meth:`execute` (run-level recovery) or act as a
    :class:`repro.sim.executor.SenseObserver` (sense-level recovery) via
    :class:`_SensePolicy`.  A policy instance accumulates one
    :class:`RecoveryStats`; use a fresh instance per measured run.
    """

    name = "none"

    def __init__(self) -> None:
        self.stats = RecoveryStats()
        #: the machine of the most recent :meth:`execute` (fault accounting)
        self.machine: ArrayMachine | None = None

    def _make_machine(self, program, lanes: int,
                      fault_rng: random.Random | int | None,
                      observer=None) -> ArrayMachine:
        """Build (and retain) the program's machine for one run.

        The machine carries the program's hard-fault map (if it was
        compiled around one), so campaigns measure transient recovery on
        top of the permanent faults rather than on pristine silicon.
        Forcing stuck cells draws nothing from the fault RNG, so seeded
        campaigns without a fault map keep bit-identical streams.
        """
        self.machine = program.machine(lanes, fault_rng, observer=observer)
        return self.machine

    def check_program(self, program) -> None:
        """Raise :class:`SimulationError` if this policy cannot run ``program``.

        Campaigns call it before their first trial; every policy built on
        the shared run path handles every program.
        """

    def execute(self, program, inputs: dict[str, int], lanes: int = 64,
                fault_rng: random.Random | int | None = None,
                expected: dict[str, int] | None = None) -> dict[str, int]:
        """Run the program and return its outputs (possibly recovered)."""
        machine = self._make_machine(program, lanes, fault_rng)
        return run_program(program, machine, inputs)


#: the policy registry consulted by :func:`get_policy` and the campaign CLI
POLICIES: dict[str, type[RecoveryPolicy]] = {}


def register_policy(cls: type[RecoveryPolicy]) -> type[RecoveryPolicy]:
    """Register a :class:`RecoveryPolicy` subclass under its ``name``.

    Use as a class decorator.  Registered policies become valid ``policy``
    names for :func:`get_policy`, :func:`repro.reliability.run_campaign`
    and the ``sherlock campaign`` CLI.  Because parallel campaigns ship
    policy names (not instances) to worker processes and instantiate there,
    a registered class must be defined at module level in an importable
    module — a requirement pickling enforces anyway for any class that
    crosses a process boundary.
    """
    if not isinstance(cls.name, str) or not cls.name:
        raise SimulationError(
            f"policy class {cls.__name__} must define a non-empty 'name'")
    if cls.name in POLICIES and POLICIES[cls.name] is not cls:
        raise SimulationError(
            f"recovery policy name {cls.name!r} already registered "
            f"by {POLICIES[cls.name].__name__}")
    POLICIES[cls.name] = cls
    return cls


@register_policy
class NoRecovery(RecoveryPolicy):
    """Fault-oblivious execution — the baseline every policy is judged against."""


class _SensePolicy(RecoveryPolicy):
    """A policy that intercepts every sensed CIM column value."""

    def __init__(self) -> None:
        super().__init__()
        #: priced one-column re-sense per activated-row count, per run
        self._sense_costs: dict[int, tuple[int, float]] = {}

    def _sense_cost(self, machine: ArrayMachine, k: int) -> tuple[int, float]:
        """(cycles, pJ) of re-sensing one column on ``k`` rows (memoized)."""
        try:
            return self._sense_costs[k]
        except KeyError:
            cost = self._sense_costs[k] = read_cost(machine.target, k, 1)
            return cost

    def execute(self, program, inputs: dict[str, int], lanes: int = 64,
                fault_rng: random.Random | int | None = None,
                expected: dict[str, int] | None = None) -> dict[str, int]:
        """Run the program with this policy hooked into every sense.

        The machine stays on :attr:`machine` for fault accounting, but its
        observer back-reference is dropped once the run ends: policy and
        machine would otherwise form a reference cycle that only a full
        garbage-collection pass frees, cells and all.
        """
        self._sense_costs.clear()  # the costs are the target's
        machine = self._make_machine(program, lanes, fault_rng, observer=self)
        try:
            return run_program(program, machine, inputs)
        finally:
            machine.observer = None

    def on_sense(self, machine: ArrayMachine, op: OpType | None, k: int,
                 values: list[int], result: int, resense) -> int:
        """Decide the row-buffer value for one sensed column."""
        raise NotImplementedError


@register_policy
class RereadVote(_SensePolicy):
    """Re-sense each CIM read and take a per-lane majority vote."""

    name = "reread-vote"

    def __init__(self, votes: int = 3) -> None:
        super().__init__()
        if votes < 3 or votes % 2 == 0:
            raise SimulationError(f"vote count must be odd and >= 3, got {votes}")
        self.votes = votes

    def on_sense(self, machine: ArrayMachine, op: OpType | None, k: int,
                 values: list[int], result: int, resense) -> int:
        """Majority-vote the column over ``votes`` independent senses."""
        if op is None:
            return result  # plain single-row reads are not CIM decisions
        senses = [result] + [resense() for _ in range(self.votes - 1)]
        extra = self.votes - 1
        cycles, energy = self._sense_cost(machine, k)
        self.stats.extra_senses += extra
        self.stats.charge(extra * cycles, extra * energy)
        self.stats.votes += 1
        if senses.count(result) != self.votes:
            self.stats.disagreements += 1
        return _majority(senses, machine.mask)


@register_policy
class DegradeMra(_SensePolicy):
    """Double-sense detection with dynamic degradation to MRA = 2 chains."""

    name = "degrade-mra"

    def __init__(self, retries: int = 2) -> None:
        super().__init__()
        if retries < 0:
            raise SimulationError(f"retry budget must be >= 0, got {retries}")
        self.retries = retries

    def on_sense(self, machine: ArrayMachine, op: OpType | None, k: int,
                 values: list[int], result: int, resense) -> int:
        """Accept agreeing senses; degrade a persistently suspect read."""
        if op is None:
            return result
        cycles, energy = self._sense_cost(machine, k)
        second = resense()
        self.stats.extra_senses += 1
        self.stats.charge(cycles, energy)
        if second == result:
            return result
        self.stats.disagreements += 1
        for _ in range(self.retries):
            a, b = resense(), resense()
            self.stats.extra_senses += 2
            self.stats.charge(2 * cycles, 2 * energy)
            if a == b:
                return a
        if k <= 2 or not op.base.is_associative:
            # nothing lower to degrade to: accept the last sense
            self.stats.retries_exhausted += 1
            return second
        return self._degrade(machine, op, values)

    def _degrade(self, machine: ArrayMachine, op: OpType,
                 values: list[int]) -> int:
        """Re-execute the op as ``k − 1`` two-row senses plus write-backs.

        Each chain stage senses two rows, so it fails with the far smaller
        ``P_DF(base, 2)``; inverted ops finish with a fault-free row-buffer
        CMOS NOT.  Intermediates are written back to scratch cells between
        stages (``k − 2`` writes), which is where the overhead lives.
        """
        base = op.base
        k = len(values)
        acc = values[0]
        for value in values[1:]:
            true = apply_op(base, [acc, value], machine.mask)
            # same fault model as any two-row sense of this op family
            acc = machine._inject(true, base, 2) if machine.fault_rng else true
        if op.is_inverted:
            acc = ~acc & machine.mask
        read_c, read_e = read_cost(machine.target, 2, 1)
        write_c, write_e = write_cost(machine.target, 1)
        chain_cycles = (k - 1) * read_c + (k - 2) * write_c
        chain_energy = (k - 1) * read_e + (k - 2) * write_e
        if op.is_inverted:
            not_c, not_e = rowbuf_not_cost(machine.target, 1)
            chain_cycles += not_c
            chain_energy += not_e
        self.stats.charge(chain_cycles, chain_energy)
        self.stats.degraded_ops += 1
        self.stats.degraded_reads += k - 1
        self.stats.degraded_writes += k - 2
        return acc


@register_policy
class CheckpointReplay(RecoveryPolicy):
    """Periodic snapshots plus end-of-run shadow check and bounded replay."""

    name = "checkpoint-replay"

    def __init__(self, interval: int = 32, retries: int = 3) -> None:
        super().__init__()
        if interval < 1:
            raise SimulationError(f"checkpoint interval must be >= 1, got {interval}")
        if retries < 0:
            raise SimulationError(f"retry budget must be >= 0, got {retries}")
        self.interval = interval
        self.retries = retries

    def check_program(self, program) -> None:
        """Reject staged programs: snapshots of one stage's machine cannot
        replay the host-side boundary hand-offs between stages."""
        if program.stages is not None:
            raise SimulationError(
                f"recovery policy {self.name!r} cannot run a staged program "
                f"(degradation {program.degradation!r}): its checkpoints "
                f"cannot replay the host hand-offs between stages")

    def execute(self, program, inputs: dict[str, int], lanes: int = 64,
                fault_rng: random.Random | int | None = None,
                expected: dict[str, int] | None = None) -> dict[str, int]:
        """Run with checkpoints; on a failed shadow check, roll back and replay.

        Retry ``r`` rolls back ``2**(r-1)`` checkpoints (exponential
        escalation, clamped at the preloaded initial state), so corruption
        arbitrarily far before the last snapshot is replayed within a few
        attempts.  Replayed instructions are priced at full trace cost; the
        snapshot itself is modeled as a free controller-side state copy and
        the shadow check as a host-side recomputation.  Staged programs are
        rejected (:meth:`check_program`).
        """
        self.check_program(program)
        if expected is None:
            expected = evaluate(program.source_dag, inputs, lanes)
        machine = self._make_machine(program, lanes, fault_rng)
        preload_sources(machine, program.layout, program.dag, inputs)
        instructions = program.instructions
        checkpoints = [(0, machine.snapshot())]
        self.stats.checkpoints += 1
        for start in range(0, len(instructions), self.interval):
            end = start + self.interval
            machine.run(instructions[start:end])
            if end < len(instructions):
                checkpoints.append((end, machine.snapshot()))
                self.stats.checkpoints += 1
        outputs = extract_outputs(machine, program.layout, program.dag)
        attempt = 0
        while outputs != expected and attempt < self.retries:
            attempt += 1
            depth = 1 << (attempt - 1)
            start_pc, state = checkpoints[max(0, len(checkpoints) - depth)]
            machine.restore(state)
            self.stats.rollbacks += 1
            replay = instructions[start_pc:]
            machine.run(replay)
            self.stats.replayed_instructions += len(replay)
            replay_metrics = analyze_trace(replay, program.target)
            self.stats.charge(replay_metrics.latency_cycles,
                              replay_metrics.energy_pj)
            outputs = extract_outputs(machine, program.layout, program.dag)
        if outputs != expected:
            self.stats.retries_exhausted += 1
        return outputs


def get_policy(name: str, **kwargs) -> RecoveryPolicy:
    """Instantiate a recovery policy by registry name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise SimulationError(
            f"unknown recovery policy {name!r}; known: {sorted(POLICIES)}"
        ) from None
    return cls(**kwargs)


@dataclass(frozen=True)
class RecoveryOutcome:
    """One recovered execution: outputs, verdict, stats and priced metrics."""

    policy: str
    outputs: dict[str, int]
    expected: dict[str, int]
    stats: RecoveryStats
    #: the program's metrics with the recovery overhead folded in
    metrics: TraceMetrics

    @property
    def failed(self) -> bool:
        """Whether the run still produced wrong outputs after recovery."""
        return self.outputs != self.expected


def execute_with_recovery(program, inputs: dict[str, int], lanes: int = 64,
                          fault_rng: random.Random | int | None = None,
                          policy: RecoveryPolicy | str | None = None,
                          ) -> RecoveryOutcome:
    """Execute a compiled program under one recovery policy and price it.

    ``policy`` may be a policy instance, a registry name, or ``None``
    (plain execution).  The returned outcome carries the reference outputs
    (``repro.dfg.evaluate``), the policy's :class:`RecoveryStats`, and the
    program metrics with the recovery overhead applied.
    """
    if policy is None:
        policy = NoRecovery()
    elif isinstance(policy, str):
        policy = get_policy(policy)
    expected = evaluate(program.source_dag, inputs, lanes)
    outputs = policy.execute(program, inputs, lanes, fault_rng,
                             expected=expected)
    metrics = program.metrics.with_recovery(
        policy.stats.overhead_latency_cycles, policy.stats.overhead_energy_pj)
    return RecoveryOutcome(policy=policy.name, outputs=outputs,
                           expected=expected, stats=policy.stats,
                           metrics=metrics)
