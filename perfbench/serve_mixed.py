"""``serve_mixed``: a closed loop of clients against ``CompileService``.

Two client threads each send their next request only after the previous
answer arrived, against a ``CompileService`` with one worker serving a
fleet of two arrays.  Each fleet member carries its own stuck-at faults,
the same under every workload seed.  The service is not told about them:
set-up runs the service's own bring-up patrol scrub
(``CompileService.scrub``) over every cell, so the program finds them
itself.  From then on compiles place around the
known faults, every write is read back by verify-after-write, and the
known fault map takes part in every artifact key.  A voted request also
runs its program on the other array, whose faults the program was not
compiled around; verify-after-write and the voting referee catch those.

Each request is made from the seed and its index just before it is
sent.  In every ten, one is a DAG never seen before (it compiles and
writes an artifact), one is a batch request (``input_sets``) and one a
``redundancy=3`` voted request; the others draw Zipf-skewed from a pool
of 64 synthetic DAGs of 16-64 ops, more than the 32-entry in-memory
compile cache holds.  Set-up also fills a fresh artifact cache directory
with the pool, compiled for each array's known faults, so pool requests
are artifact reads.  An op is one request, timed from submit to answer;
after the window every answer (single, batch and voted) is compared with
``dfg.evaluate``.
"""

from __future__ import annotations

import itertools
import random
import shutil
import threading
from dataclasses import dataclass, field

from common import Outcome, now, profile_counts, program_profile, spanner

LANES = 16
FLEET = (0, 1)
#: closed-loop client threads, so requests queue behind each other
CLIENTS = 2
#: service worker threads.  The workers are CPU-bound Python, so on two
#: cores a second worker only adds interpreter-lock contention: it cut
#: throughput by a fifth and doubled the run-to-run spread
WORKERS = 1
#: stuck-at faults each fleet member carries
FAULTS_PER_ARRAY = 6
BATCH_SETS = 8
ZIPF_S = 1.1
#: positions in every run of ten requests of the fresh, batch and voted ones
FRESH_SLOT, BATCH_SLOT, VOTED_SLOT = 4, 3, 7
#: pool size per scale
POOL = {"full": 64, "tiny": 8}


@dataclass
class State:
    """The service, its primed artifact cache and the request pool."""

    seed: int
    service: object
    cache_dir: object
    pool: list
    #: cumulative Zipf weights over ``pool``
    cum_weights: list[float]
    profiles: list[dict]
    #: (request, ServeResult or the exception raised, seconds) per request
    records: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)


def _target():
    from repro.arch.target import TargetSpec
    from repro.devices import STT_MRAM

    return TargetSpec.square(64, STT_MRAM, num_arrays=2)


def warm() -> None:
    """One-time lazy work: imports, the first ``P_DF`` table, a service."""
    from repro.core.compiler import compile_dag
    from repro.serve import CompileService
    from repro.workloads import synthetic_dag

    program = compile_dag(synthetic_dag(num_ops=8, num_inputs=4, seed=0),
                          _target(), cache=False)
    program.metrics
    CompileService(_target(), workers=1).close()


def _random_dag(rng: random.Random, name: str, num_ops: int):
    from repro.workloads import synthetic_dag

    return synthetic_dag(num_ops=num_ops, num_inputs=6 + num_ops % 7,
                         seed=rng.getrandbits(32), name=name)


def _pool_ops(rank: int) -> int:
    """Op count of the ``rank``-th DAG: spread evenly over 16-64 ops."""
    return 16 + (rank * 37) % 49


def _inputs(rng: random.Random, dag) -> dict[str, int]:
    return {op.name: rng.getrandbits(LANES) for op in dag.inputs()}


def _ground_truth(rng: random.Random, target) -> dict:
    """Per-array stuck-at faults drawn from ``rng``: the ground truth."""
    from repro.devices import CellFault, FaultMap

    fleet = {}
    for array_id in FLEET:
        faults = FaultMap()
        while len(faults) < FAULTS_PER_ARRAY:
            faults.set_fault(rng.randrange(target.num_arrays),
                             rng.randrange(target.rows),
                             rng.randrange(target.cols),
                             rng.choice((CellFault.STUCK0, CellFault.STUCK1)))
        fleet[array_id] = faults
    return fleet


def setup(seed: int, scale: str, scratch, seconds: float,
          tracer=None) -> State:
    """Build the pool, start the service, scrub the fleet, prime the cache."""
    import tempfile

    from repro.core.compiler import SherlockCompiler, clear_compile_cache
    from repro.core.config import CompilerConfig
    from repro.serve import ArtifactCache, CompileService
    from repro.serve.scrub import ScrubPolicy

    span = spanner(tracer)
    # DAG shapes and the fleet's faults are the same under every seed, so
    # every seed runs the same work on the same hardware; the seed draws
    # the request stream and the inputs
    shapes = random.Random("serve_mixed:shapes")
    target = _target()
    config = CompilerConfig()
    with span("frontend.build_dag"):
        pool = [_random_dag(shapes, f"pool{i}", _pool_ops(i))
                for i in range(POOL[scale])]
    cum_weights = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_S for rank in range(len(pool))))
    cache_dir = tempfile.mkdtemp(prefix="artifacts-", dir=scratch)
    cache = ArtifactCache(cache_dir)
    # bring-up faults are manufacturing defects, not decay, so the scrub
    # that finds them gives the health registry no failure evidence
    service = CompileService(
        target, config, cache=cache, workers=WORKERS,
        machine_faults=_ground_truth(random.Random("serve_mixed:fleet"),
                                     target),
        scrub=ScrubPolicy(weight=0.0))
    # the bring-up scrub: march-test every cell of every fleet member
    cells = target.num_arrays * target.rows * target.cols
    known = service.scrub(budget=cells * len(FLEET)).discoveries
    clear_compile_cache()
    profiles = []
    for array_id in FLEET:
        faults = known.get(array_id)
        compiler = SherlockCompiler(target, config, cache=False,
                                    fault_map=faults)
        for dag in pool:
            program = compiler.compile(dag)
            cache.put(ArtifactCache.key_for(dag, target, config, faults),
                      program)
            profiles.append(program_profile(program))
    clear_compile_cache()
    return State(seed, service, cache_dir, pool, cum_weights, profiles)


def _request(state: State, index: int, span):
    """The ``index``-th request of the seed's stream."""
    from repro.serve import ServeRequest

    rng = random.Random(f"serve_mixed:{state.seed}:{index}")
    # a fixed pattern of request kinds, so every seed sends the same mix:
    # 1 in 10 is a never-seen DAG, 1 in 10 a batch, 1 in 10 voted
    slot = index % 10
    if slot == FRESH_SLOT:
        with span("frontend.build_dag"):
            dag = _random_dag(random.Random(f"serve_mixed:fresh:{index}"),
                              f"fresh{index}", _pool_ops(index // 10))
    else:
        dag = rng.choices(state.pool, cum_weights=state.cum_weights)[0]
    request = ServeRequest(dag=dag, inputs=_inputs(rng, dag), lanes=LANES,
                           request_id=f"r{index}",
                           array_id=FLEET[index % len(FLEET)])
    if slot == BATCH_SLOT:
        request.input_sets = [_inputs(rng, dag) for _ in range(BATCH_SETS)]
    elif slot == VOTED_SLOT:
        request.redundancy = 3
    return request


def run(state: State, seconds: float, tracer=None) -> Outcome:
    """Two closed-loop clients until ``seconds`` have passed."""
    span = spanner(tracer)
    out = Outcome()
    state.records.clear()
    cursor = itertools.count()
    service = state.service

    def client() -> None:
        while now() < deadline:
            request = _request(state, next(cursor), span)
            t0 = now()
            with span("serve.request", request.request_id):
                try:
                    result = service.process([request])[0]
                except Exception as error:  # counted as a failed request
                    result = error
            state.records.append((request, result, now() - t0))

    clients = [threading.Thread(target=client, name=f"perfbench-client{i}")
               for i in range(CLIENTS)]
    out.start = now()
    deadline = out.start + seconds
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    out.end = now()
    service.close()
    state.stats = service.stats()
    out.rounds = [[(seconds_, 1.0) for _, _, seconds_ in state.records]]
    out.attempted = len(state.records)
    out.report = {
        "requests_per_s": (out.attempted / out.wall_s, "req/s"),
    }
    return out


def finish(state: State, out: Outcome) -> None:
    """Compare every answer with ``dfg.evaluate``; fill in counts."""
    from repro.dfg.evaluate import evaluate

    for request, result, _ in state.records:
        if isinstance(result, Exception):
            out.fail(f"{request.request_id}: {type(result).__name__}: "
                     f"{result}")
            continue
        if result.error is not None or result.shed:
            out.fail(f"{request.request_id}: {result.error}")
            continue
        if request.input_sets is not None:
            expected = [evaluate(request.dag, inputs, LANES)
                        for inputs in request.input_sets]
            got = result.batch_outputs
        else:
            expected = evaluate(request.dag, request.inputs, LANES)
            got = result.outputs
        if got != expected:
            out.fail(f"{request.request_id}: wrong answer "
                     f"({'voted' if result.voted else result.engine})")
    stats = state.stats
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    arrays = stats["health"]["arrays"].values()
    out.counts.update(profile_counts(state.profiles))
    out.counts.update({
        "serve.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        **{f"serve.{key}": stats[key]
           for key in ("votes", "vote_disagreements", "remaps", "retries",
                       "cpu_served", "shed", "queue_high_water")},
        "serve.scrub_faults": sum(a["scrub_faults"] for a in arrays),
        "serve.hard_faults": sum(a["hard_faults"] for a in arrays),
        "serve.quarantines": stats["health"]["quarantined"],
    })
    for stage in ("compile", "execute", "total"):
        for q in (50, 99):
            out.report[f"serve.{stage}_p{q}_ms"] = (
                stats[f"{stage}_p{q}_ms"], "ms")
    out.report["serve.cached_requests"] = (
        sum(1 for _, r, _ in state.records
            if not isinstance(r, Exception) and r.cached), "count")


def close(state: State) -> None:
    """Stop the service and delete the run's artifact cache directory."""
    state.service.close()
    shutil.rmtree(state.cache_dir, ignore_errors=True)
