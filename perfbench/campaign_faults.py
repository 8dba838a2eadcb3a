"""``campaign_faults``: seeded fault-injection campaigns, policy by policy.

Set-up compiles ``bitweaving`` and ``bfs`` once for default-variability
STT-MRAM at MRA 4 and checks that a fault-free run of each (on both
engines) equals ``dfg.evaluate``.  One *round* is then a fixed list of
``run_campaign`` calls with ``workers=1``: policy ``none`` on the
vectorized engine with thousands of trials, and the ``reread-vote``,
``checkpoint-replay`` and ``degrade-mra`` recovery policies on the
interpreter with a dozen trials each.  Rounds repeat until the run's time
is spent; each round draws its campaign seed from the workload seed.

An op is one trial.  A batch call's wall time is spread evenly over its
trials, so the per-trial latency percentiles are weighted by trial count:
the median lands on the vectorized bitweaving trials and the 99th
percentile on the interpreted ``reread-vote`` bitweaving trials.  After the window, the
first round's cheaper calls are replayed on the same seeds and must give
identical counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from common import (Outcome, now, profile_counts, program_profile,
                    profile_report, spanner)

#: simulated lanes per trial
LANES = 8
RECOVERY_POLICIES = ("reread-vote", "checkpoint-replay", "degrade-mra")

#: (kernel, policy, trials) of one round at full scale.  The vectorized
#: bitweaving trials come in three campaigns so each round has several
#: samples around its median, and the 12 reread-vote bitweaving trials
#: (the slowest per trial) are over 1% of the round, so p99 is theirs
ROUND = (
    [("bitweaving", "none", 250)] * 3 + [("bfs", "none", 250)]
    + [(kernel, policy, 12) for kernel in ("bitweaving", "bfs")
       for policy in RECOVERY_POLICIES]
)
TINY_ROUND = (
    [("bfs", "none", 100)]
    + [("bfs", policy, 2) for policy in RECOVERY_POLICIES]
)


@dataclass
class State:
    """Compiled campaign programs and the round to run over them."""

    seed: int
    programs: dict[str, object]
    calls: tuple
    #: call index -> (campaign seed, CampaignResult) of the first round
    first_round: dict = field(default_factory=dict)


def warm() -> None:
    """One-time lazy work: imports, the first ``P_DF`` table, lowering."""
    from repro.arch.target import TargetSpec
    from repro.core.compiler import compile_dag
    from repro.devices import STT_MRAM
    from repro.reliability.campaign import run_campaign
    from repro.workloads import synthetic_dag

    program = compile_dag(synthetic_dag(num_ops=8, num_inputs=4, seed=0),
                          TargetSpec.square(32, STT_MRAM), cache=False)
    run_campaign(program, trials=2, lanes=LANES, engine="vectorized")
    run_campaign(program, trials=1, lanes=LANES, policy="reread-vote")


def setup(seed: int, scale: str, scratch, seconds: float,
          tracer=None) -> State:
    """Compile both kernels and check fault-free runs on both engines."""
    import random

    from repro import dfg
    from repro.arch.target import TargetSpec
    from repro.core.compiler import compile_dag
    from repro.core.config import CompilerConfig
    from repro.devices import STT_MRAM
    from repro.errors import SherlockError
    from repro.workloads import get_workload

    span = spanner(tracer)
    calls = ROUND if scale == "full" else TINY_ROUND
    target = TargetSpec.square(512, STT_MRAM, max_activated_rows=4)
    config = CompilerConfig(mapper="sherlock", mra=4)
    programs = {}
    for name in sorted({kernel for kernel, _, _ in calls}):
        workload = get_workload(name)
        with span("frontend.build_dag"):
            dag = workload.build_dag()
        program = compile_dag(dag, target, config, cache=False)
        inputs = workload.make_inputs(random.Random(f"campaign:{seed}"), LANES)
        expected = dfg.evaluate(dag, inputs, LANES)
        for engine in ("vectorized", "interpreted"):
            if program.execute(inputs, LANES, engine=engine) != expected:
                raise SherlockError(f"fault-free {name} on the {engine} "
                                    "engine differs from dfg.evaluate")
        programs[name] = program
    return State(seed, programs, tuple(calls))


def _campaign(state: State, kernel: str, policy: str, trials: int,
              seed: int, span):
    from repro.reliability.campaign import run_campaign

    engine = "vectorized" if policy == "none" else "interpreted"
    with span("reliability.campaign"):
        return run_campaign(state.programs[kernel], trials=trials,
                            seed=seed, policy=policy, lanes=LANES,
                            workers=1, engine=engine)


def _counters(result) -> tuple:
    return (result.decision_failures, result.output_failures,
            result.injected_faults, result.stats)


def run(state: State, seconds: float, tracer=None) -> Outcome:
    """Campaign rounds until ``seconds`` have passed."""
    span = spanner(tracer)
    out = Outcome()
    state.first_round.clear()
    time_by_engine = {"vectorized": [0.0, 0], "interpreted": [0.0, 0]}
    out.start = now()
    rounds = 0
    while True:
        out.rounds.append([])
        for index, (kernel, policy, trials) in enumerate(state.calls):
            seed = (state.seed * 1000 + rounds) * 100 + index
            out.attempted += trials
            t0 = now()
            try:
                result = _campaign(state, kernel, policy, trials, seed, span)
            except Exception as error:  # a crashed campaign fails its trials
                out.fail(f"{kernel}/{policy}: {type(error).__name__}: "
                         f"{error}", trials)
                continue
            elapsed = now() - t0
            out.rounds[-1].append((elapsed / trials, trials))
            bucket = time_by_engine["vectorized" if policy == "none"
                                    else "interpreted"]
            bucket[0] += elapsed
            bucket[1] += trials
            if rounds == 0:
                state.first_round[index] = (seed, result)
        rounds += 1
        elapsed = now() - out.start
        if elapsed + elapsed / rounds / 2 >= seconds:
            break
    out.end = now()
    vec_s, vec_n = time_by_engine["vectorized"]
    int_s, int_n = time_by_engine["interpreted"]
    out.report = {
        "trials_per_s": (vec_n / vec_s if vec_s else 0.0, "trials/s"),
        "recovery_trials_per_s": (int_n / int_s if int_s else 0.0,
                                  "trials/s"),
        "rounds": (rounds, "count"),
    }
    return out


def finish(state: State, out: Outcome) -> None:
    """Replay the first round's cheap calls; fill in per-layer counts."""
    for index, (seed, first) in state.first_round.items():
        kernel, policy, trials = state.calls[index]
        if kernel != "bfs" and policy != "none":
            continue  # interpreted bitweaving is too slow to replay
        again = _campaign(state, kernel, policy, trials, seed, spanner(None))
        if _counters(again) != _counters(first):
            out.errors.append(f"{kernel}/{policy}: same-seed campaigns "
                              f"differ: {_counters(first)} vs "
                              f"{_counters(again)}")
    results = [result for _, result in state.first_round.values()]
    profiles = [program_profile(p) for p in state.programs.values()]
    out.report.update(profile_report(profiles,
                                     next(iter(state.programs.values()))))
    out.counts.update(profile_counts(profiles))
    out.counts.update({
        "reliability.trials": sum(r.trials for r in results),
        "reliability.decision_failures": sum(r.decision_failures
                                             for r in results),
        "reliability.output_failures": sum(r.output_failures
                                           for r in results),
        "reliability.recovery_events": sum(
            r.stats.disagreements + r.stats.rollbacks + r.stats.degraded_ops
            for r in results),
    })


def close(state: State) -> None:
    """Nothing to release."""
