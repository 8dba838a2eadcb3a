"""Monte-Carlo fault-injection campaigns over compiled programs.

The analytic reliability model (:mod:`repro.devices.failure`) predicts how
often sensing decisions fail; this module *measures* it.  A campaign runs a
compiled program for N seeded trials on fault-injecting
:class:`repro.sim.executor.ArrayMachine` instances, compares every trial's
outputs against the reference DAG evaluation (:func:`repro.dfg.evaluate`),
and reports the empirical failure rate with a Wilson 95% confidence
interval next to the analytic prediction — the model-validation experiment
the paper implies but never runs.

Two failure notions are tracked, because they differ systematically:

* **decision failure** — at least one lane flip was injected anywhere in
  the run.  This is what the analytic model predicts
  (:func:`analytic_failure_probability`, the per-column ``P_DF`` values
  compounded over every sensed column and every simulated lane).
* **output failure** — the program's outputs differ from the reference.
  Always at most the decision rate: many flips are logically masked
  (e.g. a flipped lane entering an AND with a 0, or landing in a value
  that is never consumed again).

Campaigns also drive the recovery policies of
:mod:`repro.reliability.recovery`: each trial runs under a fresh policy
instance, and the aggregated :class:`~repro.reliability.recovery.RecoveryStats`
plus priced overhead land in the :class:`CampaignResult`.

Statistically meaningful campaigns (>= 1000 trials per policy and workload)
are embarrassingly parallel: every trial derives its RNG streams purely from
``(seed, trial_index)``, so :func:`run_campaign` can shard the trial range
across a :class:`concurrent.futures.ProcessPoolExecutor` (``workers=N``)
and still produce **bit-identical** failure counts to a serial run on the
same master seed.  Shards that time out or die are re-run in-process under
the shared bounded-retry policy of :mod:`repro.util.retry`, and any
platform/pickling failure degrades gracefully to the serial path.
"""

from __future__ import annotations

import dataclasses
import math
import random
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.arch.isa import ReadInst
from repro.dfg.evaluate import evaluate
from repro.dfg.ops import OpType
from repro.errors import SimulationError
from repro.reliability.checkpoint import CheckpointJournal, program_digest
from repro.reliability.recovery import RecoveryStats, get_policy
from repro.sim.metrics import cached_p_df
from repro.sim.vectorized import validate_engine
from repro.util.retry import RetryPolicy, retry_call

__all__ = [
    "CampaignResult",
    "ShardOutcome",
    "analytic_failure_probability",
    "run_campaign",
    "run_trial_block",
    "sense_failure_probabilities",
    "shard_ranges",
    "wilson_interval",
]

# 2**32-scale odd constants (Fibonacci / Murmur-style) decorrelate the
# per-trial streams derived from one campaign seed
_MIX_A = 0x9E3779B1
_MIX_B = 0x85EBCA77

#: recovery schedule for shards that failed or timed out in the pool: the
#: in-process re-run is itself retried (bounded, jittered backoff) on
#: transient OS-level failures; everything else propagates immediately.
#: ``run_trial_block`` derives all randomness from ``(seed, trial range)``,
#: so however many attempts recovery takes, the merged counters stay
#: bit-identical to a serial run.  The jitter seed is pinned so the retry
#: schedule itself replays deterministically.
_SHARD_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.01,
                           max_delay_s=0.25,
                           retryable=(OSError, MemoryError), seed=0)


def _trial_rng(seed: int, trial: int, salt: int) -> random.Random:
    """An independent, reproducible RNG stream for one trial."""
    return random.Random((seed * _MIX_A + trial * _MIX_B + salt)
                         & 0xFFFFFFFFFFFFFFFF)


def _trial_inputs(seed: int, trial: int, names: list[str],
                  lanes: int) -> dict[str, int]:
    """The random lane-bitmask inputs of one trial (its own stream)."""
    input_rng = _trial_rng(seed, trial, 1)
    return {name: input_rng.getrandbits(lanes) for name in names}


def wilson_interval(failures: int, trials: int,
                    z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%).

    Unlike the normal approximation, the Wilson interval stays inside
    ``[0, 1]`` and behaves at the extremes (0 or ``trials`` failures) —
    exactly where reliability campaigns live.
    """
    if trials < 1:
        raise SimulationError(f"trial count must be positive, got {trials}")
    if not 0 <= failures <= trials:
        raise SimulationError(
            f"failure count {failures} outside [0, {trials}]")
    phat = failures / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z2 / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def sense_failure_probabilities(program) -> list[float]:
    """Per-column decision-failure probability of every sense in the trace.

    This mirrors exactly what the executor's fault injector applies: one
    Bernoulli(``P_DF``) draw per lane per sensed column, including plain
    single-row reads (sensed at the tiny ``P_DF(NOT, 1)``), not only CIM
    column ops.
    """
    tech = program.target.technology
    probabilities: list[float] = []
    for inst in program.instructions:
        if not isinstance(inst, ReadInst):
            continue
        if inst.ops is None:
            p = cached_p_df(tech, OpType.NOT, 1)
            probabilities.extend([p] * len(inst.cols))
        else:
            k = len(inst.rows)
            probabilities.extend(cached_p_df(tech, op, k) for op in inst.ops)
    return probabilities


def analytic_failure_probability(program, lanes: int = 64) -> float:
    """P(at least one lane flip in one run) at the simulated lane count.

    Each lane of each sensed column is an independent sensing decision, so
    the no-failure probability is ``prod(1 - p_i) ** lanes`` — the Sec. 4.2
    ``P_app`` composition evaluated at the machine's lane count (the paper
    quotes it per column op; a campaign observes all lanes at once).  The
    lane-free sum ``log prod(1 - p_i)`` is computed once per program and
    kept on it, like :attr:`~repro.core.compiler.CompiledProgram.metrics`.
    """
    log_ok = program.__dict__.get("_analytic_log_ok")
    if log_ok is None:
        log_ok = 0.0
        for p in sense_failure_probabilities(program):
            if p >= 1.0:
                log_ok = -math.inf  # lanes * -inf: the run always fails
                break
            log_ok += math.log1p(-p)
        program.__dict__["_analytic_log_ok"] = log_ok
    return -math.expm1(lanes * log_ok)


@dataclass(frozen=True)
class CampaignResult:
    """Aggregate outcome of one fault-injection campaign."""

    program_name: str
    policy: str
    trials: int
    lanes: int
    seed: int
    #: trials in which at least one lane flip was injected
    decision_failures: int
    #: trials whose final outputs differed from the reference evaluation
    output_failures: int
    #: model prediction for the decision-failure rate (lane-compounded)
    analytic_p_app: float
    #: total lane flips injected across all trials
    injected_faults: int
    #: recovery work aggregated over all trials
    stats: RecoveryStats
    #: single-run latency of the base schedule, for overhead ratios
    base_latency_cycles: int
    #: single-run energy of the base schedule, for overhead ratios
    base_energy_pj: float

    @property
    def decision_failure_rate(self) -> float:
        """Fraction of trials with at least one injected flip."""
        return self.decision_failures / self.trials

    @property
    def output_failure_rate(self) -> float:
        """Fraction of trials ending with wrong outputs."""
        return self.output_failures / self.trials

    @property
    def decision_wilson(self) -> tuple[float, float]:
        """95% Wilson interval around the decision-failure rate."""
        return wilson_interval(self.decision_failures, self.trials)

    @property
    def output_wilson(self) -> tuple[float, float]:
        """95% Wilson interval around the output-failure rate."""
        return wilson_interval(self.output_failures, self.trials)

    @property
    def analytic_within_interval(self) -> bool:
        """Whether the analytic prediction sits in the decision interval."""
        lo, hi = self.decision_wilson
        return lo <= self.analytic_p_app <= hi

    @property
    def mean_overhead_latency_cycles(self) -> float:
        """Average per-trial recovery latency overhead, in cycles."""
        return self.stats.overhead_latency_cycles / self.trials

    @property
    def mean_overhead_energy_pj(self) -> float:
        """Average per-trial recovery energy overhead, in picojoules."""
        return self.stats.overhead_energy_pj / self.trials

    @property
    def latency_overhead_frac(self) -> float:
        """Mean recovery latency overhead relative to the base schedule."""
        if self.base_latency_cycles == 0:
            return 0.0
        return self.mean_overhead_latency_cycles / self.base_latency_cycles

    @property
    def energy_overhead_frac(self) -> float:
        """Mean recovery energy overhead relative to the base schedule."""
        if self.base_energy_pj == 0:
            return 0.0
        return self.mean_overhead_energy_pj / self.base_energy_pj

    def summary(self) -> dict[str, float]:
        """Flat dictionary for table printing."""
        dec_lo, dec_hi = self.decision_wilson
        out_lo, out_hi = self.output_wilson
        return {
            "trials": self.trials,
            "decision_rate": self.decision_failure_rate,
            "decision_ci95_lo": dec_lo,
            "decision_ci95_hi": dec_hi,
            "analytic_p_app": self.analytic_p_app,
            "output_rate": self.output_failure_rate,
            "output_ci95_lo": out_lo,
            "output_ci95_hi": out_hi,
            "overhead_latency_frac": self.latency_overhead_frac,
            "overhead_energy_frac": self.energy_overhead_frac,
        }


@dataclass
class ShardOutcome:
    """Additive counters of one contiguous block of campaign trials.

    Shard outcomes are pure sums, so merging them in any order reproduces
    exactly the counters a serial run over the same trial indices would
    accumulate — the invariant the parallel campaign mode relies on.
    """

    #: trials in this block with at least one injected lane flip
    decision_failures: int = 0
    #: trials in this block whose outputs differed from the reference
    output_failures: int = 0
    #: total lane flips injected across the block
    injected_faults: int = 0
    #: recovery work aggregated over the block's trials
    stats: RecoveryStats = field(default_factory=RecoveryStats)

    def merge(self, other: "ShardOutcome") -> None:
        """Fold another shard's counters into this one."""
        self.decision_failures += other.decision_failures
        self.output_failures += other.output_failures
        self.injected_faults += other.injected_faults
        self.stats.merge(other.stats)


def _vector_trial_block(program, first: int, count: int, seed: int,
                        lanes: int,
                        inputs: dict[str, int] | None) -> ShardOutcome:
    """Batched (vectorized-engine) shard for the no-policy campaign path.

    Trial inputs are re-derived from the exact per-trial streams the
    interpreted path uses; fault draws come from per-trial Philox streams
    keyed by the same ``(seed, trial)`` mix, so the flip *distribution*
    matches while remaining independent of sharding and chunking.
    """
    from repro.sim.vectorized import campaign_trials

    input_names = [operand.name for operand in program.source_dag.inputs()]
    trial_range = range(first, first + count)
    if inputs is None:
        sets = [_trial_inputs(seed, trial, input_names, lanes)
                for trial in trial_range]
    else:
        sets = [inputs] * count
    keys = [(seed * _MIX_A + trial * _MIX_B + 2) & 0xFFFFFFFFFFFFFFFF
            for trial in trial_range]
    flips, mismatch = campaign_trials(program, sets, keys, lanes)
    outcome = ShardOutcome()
    outcome.injected_faults = int(flips.sum())
    outcome.decision_failures = int((flips > 0).sum())
    outcome.output_failures = int(mismatch.sum())
    return outcome


#: lane width of one packed reference evaluation: bounds the size of the
#: integers ``evaluate`` holds per operand when a trial block is large
_REFERENCE_LANES = 4096


def _reference_outputs(dag, input_sets: list[dict[str, int]],
                       lanes: int) -> list[dict[str, int]]:
    """:func:`evaluate` of every input set, from one lane-parallel call.

    Set ``i`` occupies lanes ``[i * lanes, (i + 1) * lanes)`` of one
    ``len(input_sets) * lanes``-lane evaluation, and its outputs are sliced
    back out of the same lanes.  ``evaluate`` is lane-parallel, so this is
    the same oracle.  A set that ``evaluate`` would reject on its own
    (missing or unknown name, value wider than ``lanes``) is handed to it
    alone to raise its exact :class:`~repro.errors.GraphError`, so no value
    can ever bleed into a neighbour's lanes.
    """
    mask = (1 << lanes) - 1
    packed = {operand.name: 0 for operand in dag.inputs()}
    for slot, inputs in enumerate(input_sets):
        if inputs.keys() != packed.keys() or not all(
                0 <= value <= mask for value in inputs.values()):
            evaluate(dag, inputs, lanes)  # raises this set's GraphError
        shift = slot * lanes
        for name, value in inputs.items():
            packed[name] |= value << shift
    wide = evaluate(dag, packed, len(input_sets) * lanes)
    return [{name: (value >> (slot * lanes)) & mask
             for name, value in wide.items()}
            for slot in range(len(input_sets))]


def _trial_references(dag, first: int, count: int, seed: int, lanes: int,
                      inputs: dict[str, int] | None):
    """Yield ``(inputs, reference outputs)`` for trials ``first, ...``.

    Caller-fixed ``inputs`` are evaluated once for the whole block;
    generated inputs are evaluated side by side, up to
    ``_REFERENCE_LANES`` lanes per :func:`evaluate` call.
    """
    if inputs is not None:
        expected = evaluate(dag, inputs, lanes)
        for _ in range(count):
            yield inputs, expected
        return
    names = [operand.name for operand in dag.inputs()]
    per_call = max(1, _REFERENCE_LANES // lanes)
    end = first + count
    for start in range(first, end, per_call):
        sets = [_trial_inputs(seed, trial, names, lanes)
                for trial in range(start, min(start + per_call, end))]
        yield from zip(sets, _reference_outputs(dag, sets, lanes))


def run_trial_block(program, first: int, count: int, seed: int,
                    policy: str, lanes: int,
                    policy_kwargs: dict | None = None,
                    inputs: dict[str, int] | None = None,
                    engine: str = "interpreted") -> ShardOutcome:
    """Run campaign trials ``[first, first + count)`` — the shard unit.

    This is a module-level function (not a closure) so a
    :class:`~concurrent.futures.ProcessPoolExecutor` can pickle it to
    worker processes.  Each trial re-derives its input and fault RNG
    streams purely from ``(seed, trial_index)``, so the block's counters
    are independent of how the trial range was partitioned.

    ``engine="vectorized"`` batches the whole block through the
    bit-packed backend — only for the bare ``"none"`` policy (recovery
    policies drive the interpreted machine directly); other policies
    fall back to the interpreted loop.
    """
    if engine == "vectorized" and policy == "none":
        return _vector_trial_block(program, first, count, seed, lanes,
                                   inputs)
    kwargs = dict(policy_kwargs or {})
    outcome = ShardOutcome()
    references = _trial_references(program.source_dag, first, count, seed,
                                   lanes, inputs)
    for trial, (trial_inputs, expected) in enumerate(references, first):
        fault_rng = _trial_rng(seed, trial, 2)
        trial_policy = get_policy(policy, **kwargs)
        outputs = trial_policy.execute(program, trial_inputs, lanes,
                                       fault_rng, expected=expected)
        faults = (trial_policy.machine.injected_faults
                  if trial_policy.machine is not None else 0)
        outcome.injected_faults += faults
        if faults:
            outcome.decision_failures += 1
        if outputs != expected:
            outcome.output_failures += 1
        outcome.stats.merge(trial_policy.stats)
    return outcome


#: shards per worker: small enough to keep per-shard pickling overhead low,
#: large enough that an unlucky slow shard cannot serialize the whole pool
_SHARDS_PER_WORKER = 4


def shard_ranges(trials: int, workers: int) -> list[tuple[int, int]]:
    """Partition ``trials`` into contiguous ``(first, count)`` blocks.

    Produces up to ``_SHARDS_PER_WORKER`` blocks per worker (never more
    blocks than trials), sized within one trial of each other.
    """
    if trials < 1:
        raise SimulationError(f"trial count must be positive, got {trials}")
    if workers < 1:
        raise SimulationError(f"worker count must be positive, got {workers}")
    shards = min(trials, workers * _SHARDS_PER_WORKER)
    base, extra = divmod(trials, shards)
    ranges: list[tuple[int, int]] = []
    first = 0
    for index in range(shards):
        count = base + (1 if index < extra else 0)
        ranges.append((first, count))
        first += count
    return ranges


def _parallel_outcomes(program, ranges: list[tuple[int, int]], seed: int,
                       policy: str, lanes: int, kwargs: dict,
                       inputs: dict[str, int] | None, workers: int,
                       shard_timeout_s: float | None,
                       engine: str = "interpreted",
                       ) -> list[ShardOutcome | None] | None:
    """Fan the shard blocks out across a process pool.

    Returns one outcome slot per shard (``None`` where the shard failed or
    timed out — the caller retries those serially), or ``None`` when the
    pool itself could not be used (pickling or platform failure), in which
    case the caller falls back to the fully serial path.
    """
    outcomes: list[ShardOutcome | None] = [None] * len(ranges)
    try:
        pool = ProcessPoolExecutor(max_workers=workers)
    except (OSError, NotImplementedError) as error:
        warnings.warn(f"campaign worker pool unavailable ({error}); "
                      "running serially", RuntimeWarning, stacklevel=3)
        return None
    hung = False
    try:
        try:
            futures = [pool.submit(run_trial_block, program, first, count,
                                   seed, policy, lanes, kwargs, inputs,
                                   engine)
                       for first, count in ranges]
        except Exception as error:  # unpicklable program/policy kwargs
            warnings.warn(f"campaign shard submission failed ({error}); "
                          "running serially", RuntimeWarning, stacklevel=3)
            return None
        for index, future in enumerate(futures):
            try:
                outcomes[index] = future.result(timeout=shard_timeout_s)
            except TimeoutError:
                hung = True  # worker may still be running: abandon the pool
            except Exception:
                pass  # dead worker / unpicklable result: retried serially
    finally:
        pool.shutdown(wait=not hung, cancel_futures=True)
    return outcomes


def _outcome_to_record(first: int, count: int,
                       outcome: ShardOutcome) -> dict:
    """One journaled shard block (JSON-safe, loss-free for resume)."""
    return {"first": first, "count": count,
            "decision_failures": outcome.decision_failures,
            "output_failures": outcome.output_failures,
            "injected_faults": outcome.injected_faults,
            "stats": dataclasses.asdict(outcome.stats)}


def _record_to_outcome(record: dict) -> ShardOutcome:
    return ShardOutcome(
        decision_failures=record["decision_failures"],
        output_failures=record["output_failures"],
        injected_faults=record["injected_faults"],
        stats=RecoveryStats(**record["stats"]))


def _campaign_identity(program, trials: int, seed: int, policy: str,
                       lanes: int, engine: str, kwargs: dict,
                       inputs: dict[str, int] | None) -> dict:
    """Everything that must match for journaled blocks to be mergeable."""
    return {"program": program_digest(program), "trials": trials,
            "seed": seed, "policy": policy, "lanes": lanes,
            "engine": engine,
            "policy_kwargs": repr(sorted(kwargs.items())),
            "inputs": repr(sorted(inputs.items())) if inputs else None}


def _campaign_outcome(program, trials, seed, policy, lanes, kwargs,
                      inputs, workers, shard_timeout_s, engine,
                      journal: CheckpointJournal | None) -> ShardOutcome:
    """Run every trial block and merge the counters in block order.

    Blocks fan out to the process pool when ``workers > 1``; a block the
    pool did not deliver re-runs in-process under the bounded retry
    policy.  A plain run is one block serially, or
    ``shard_ranges(trials, workers)`` in parallel (one serial block again
    when the pool is unusable).

    With a ``journal``, every finished block is appended to it and
    journaled blocks are skipped, and the canonical partition
    ``shard_ranges(trials, workers)`` is used even serially — so an
    interrupted-and-resumed run merges its counters in exactly the block
    order an uninterrupted run uses (float accumulators included).  A
    journal whose blocks do not align with the canonical partition
    (resumed with a different ``workers``) still merges exactly: the gaps
    between journaled blocks are re-run as their own blocks, and only the
    float addition *grouping* can differ from an uninterrupted run.
    """
    from repro.reliability.checkpoint import remaining_ranges

    parallel = workers > 1 and trials > 1
    done: dict[tuple[int, int], ShardOutcome] = {}
    if journal is None:
        blocks = shard_ranges(trials, workers) if parallel else [(0, trials)]
    else:
        done = {(record["first"], record["count"]):
                _record_to_outcome(record) for record in journal.records}
        blocks = shard_ranges(trials, workers)
        if not set(done) <= set(blocks):
            blocks = sorted(set(done)
                            | set(remaining_ranges(trials, sorted(done))))
    pending = [block for block in blocks if block not in done]
    slots: list[ShardOutcome | None] | None = None
    if pending and parallel:
        slots = _parallel_outcomes(program, pending, seed, policy, lanes,
                                   kwargs, inputs, workers,
                                   shard_timeout_s, engine)
        if slots is None and journal is None:
            blocks = pending = [(0, trials)]
    for index, (first, count) in enumerate(pending):
        outcome = slots[index] if slots is not None else None
        if outcome is None:
            outcome = retry_call(
                lambda first=first, count=count: run_trial_block(
                    program, first, count, seed, policy, lanes, kwargs,
                    inputs, engine),
                policy=_SHARD_RETRY,
                label=f"campaign shard [{first}, {first + count})")
        done[(first, count)] = outcome
        if journal is not None:
            journal.append(_outcome_to_record(first, count, outcome))
    aggregate = ShardOutcome()
    for block in blocks:
        aggregate.merge(done[block])
    return aggregate


def run_campaign(program, trials: int = 1000, seed: int = 0,
                 policy: str = "none", lanes: int = 64,
                 policy_kwargs: dict | None = None,
                 inputs: dict[str, int] | None = None,
                 workers: int = 1,
                 shard_timeout_s: float | None = None,
                 engine: str = "interpreted",
                 checkpoint=None) -> CampaignResult:
    """Run a seeded Monte-Carlo fault-injection campaign.

    Every trial gets decorrelated input and fault RNG streams derived from
    ``seed``, fresh random lane-bitmask inputs (unless fixed ``inputs`` are
    given), and a fresh instance of the named recovery policy; the same
    ``(seed, trials)`` pair replays bit-identically, so policies can be
    compared on the *same* fault sequences.

    ``workers > 1`` shards the trial range across a process pool.  Because
    per-trial RNG streams depend only on ``(seed, trial_index)``, the
    parallel result is bit-identical to the serial one.  Each shard may be
    bounded by ``shard_timeout_s``; failed or timed-out shards are re-run
    in-process under the bounded-retry policy of :mod:`repro.util.retry`
    (transient OS failures backed off and re-attempted, anything else
    propagated), and if the pool cannot be used at all (e.g. an unpicklable
    custom policy) the campaign silently degrades to serial execution with
    a :class:`RuntimeWarning`.

    ``engine="vectorized"`` batches trials through the bit-packed backend
    for the bare ``"none"`` policy (an order of magnitude faster; flip
    counts are drawn from equivalent but distinct RNG streams, so they
    are statistically — not bit — identical to the interpreted engine).
    Recovery policies always run interpreted.  The default (and
    ``"auto"``) stays interpreted so existing campaign streams replay
    bit-identically.

    ``checkpoint`` names a journal file making the campaign resumable:
    each completed trial block is appended atomically, and re-running the
    same invocation against an existing journal skips the journaled
    blocks — bit-identical to an uninterrupted checkpointed run on the
    same master seed.  A journal from a *different* run (program, trials,
    seed, policy, lanes, engine, inputs) raises
    :class:`~repro.errors.CheckpointError`.  The finished journal is left
    on disk (re-running is then a no-op merge of journaled blocks).
    """
    engine = validate_engine(engine)
    if engine == "auto":
        engine = "interpreted"
    if trials < 1:
        raise SimulationError(f"trial count must be positive, got {trials}")
    if workers < 1:
        raise SimulationError(f"worker count must be positive, got {workers}")
    kwargs = dict(policy_kwargs or {})
    # fail fast on a bad name / kwargs or a program the policy cannot run
    get_policy(policy, **kwargs).check_program(program)
    journal = None
    if checkpoint is not None:
        journal = CheckpointJournal(
            checkpoint, "campaign",
            _campaign_identity(program, trials, seed, policy, lanes,
                               engine, kwargs, inputs))
    aggregate = _campaign_outcome(program, trials, seed, policy, lanes,
                                  kwargs, inputs, workers, shard_timeout_s,
                                  engine, journal)
    metrics = program.metrics
    return CampaignResult(
        program_name=program.source_dag.name,
        policy=policy, trials=trials, lanes=lanes, seed=seed,
        decision_failures=aggregate.decision_failures,
        output_failures=aggregate.output_failures,
        analytic_p_app=analytic_failure_probability(program, lanes),
        injected_faults=aggregate.injected_faults, stats=aggregate.stats,
        base_latency_cycles=metrics.latency_cycles,
        base_energy_pj=metrics.energy_pj)
