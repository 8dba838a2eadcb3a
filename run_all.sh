#!/bin/sh
# Reproduce everything: tests, all paper experiments, benchmark timings.
#
#   ./run_all.sh          full run (the AES Table 2 matrix takes ~10-15 min)
#   QUICK=1 ./run_all.sh  reduced-round AES for a fast pass
set -e

if [ -n "$QUICK" ]; then
    export SHERLOCK_BENCH_AES_ROUNDS=2
fi

echo "== lint (ruff) =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests benchmarks examples
elif python -c "import ruff" >/dev/null 2>&1; then
    python -m ruff check src tests benchmarks examples
else
    echo "ruff not installed (pip install -e .[lint]); skipping lint"
fi

echo "== docstring coverage (D100-D104 on src/) =="
if command -v ruff >/dev/null 2>&1; then
    ruff check --select D100,D101,D102,D103,D104 src
elif python -c "import ruff" >/dev/null 2>&1; then
    python -m ruff check --select D100,D101,D102,D103,D104 src
else
    echo "ruff not installed; gate enforced by tests/test_docstrings.py"
fi

echo "== unit / integration / property tests =="
python -m pytest tests/ 2>&1 | tee test_output.txt

echo "== interpreter fault-stream golden gate =="
python -m pytest tests/test_campaign.py -k golden -q

echo "== codegen golden gate =="
python -m pytest tests/test_codegen_golden.py -q

echo "== packed-vs-interpreted differential gate =="
python -m pytest tests/test_vectorized.py -q

echo "== executable-docs gate (fenced snippets in README.md + docs/API.md) =="
python -m pytest tests/test_docsnippets.py -q

echo "== smoke fault-injection campaign (50 trials, fixed seed) =="
python -m repro.cli campaign --synthetic 24 --trials 50 --seed 0 \
    --lanes 8 --tech stt-mram --size 64 --arrays 4 --mra 4 \
    --variability 0.12

echo "== vectorized campaign + batch execution smoke =="
python -m repro.cli campaign --synthetic 24 --trials 200 --seed 0 \
    --lanes 8 --tech stt-mram --size 64 --arrays 4 --mra 4 \
    --variability 0.12 --engine vectorized
BATCH_TMP=$(mktemp -d)
printf '[{}, {"s0_x[0]": 5}, {"s1_x[3]": 255}]\n' > "$BATCH_TMP/batch.json"
python -m repro.cli run --workload bitweaving \
    --batch "$BATCH_TMP/batch.json" --engine vectorized

echo "== vectorized campaign model check (1000 trials, Wilson vs P_app) =="
python - <<'EOF'
import sys

from repro.arch.target import TargetSpec
from repro.core import CompilerConfig, compile_dag
from repro.devices import STT_MRAM
from repro.reliability.campaign import run_campaign
from repro.workloads.synthetic import synthetic_dag

tech = STT_MRAM.with_variability(0.12, 0.12)
target = TargetSpec.square(64, tech, num_arrays=4, max_activated_rows=4)
dag = synthetic_dag(num_ops=24, num_inputs=8, seed=0, name="synthetic24")
program = compile_dag(dag, target, CompilerConfig(mra=4), cache=False)
result = run_campaign(program, trials=1000, seed=0, lanes=8,
                      engine="vectorized")
lo, hi = result.decision_wilson
print(f"decision rate {result.decision_failure_rate:.4f} "
      f"CI95 [{lo:.4f}, {hi:.4f}] vs analytic P_app "
      f"{result.analytic_p_app:.4f}")
if not result.analytic_within_interval:
    sys.exit("vectorized campaign: analytic P_app outside the decision-rate "
             "Wilson interval")
EOF

echo "== staged-program campaign smoke (recovery on a spill-and-partition program) =="
python -m repro.cli campaign --workload bfs --size 32 --arrays 1 --trials 3 \
    --lanes 8 --policy reread-vote

echo "== full fault-injection campaigns (marker-gated tests) =="
python -m pytest tests/ -m campaign 2>&1 | tee campaign_output.txt

echo "== graceful-degradation gate (oversized kernel through the ladder) =="
python - <<'EOF'
import random
import sys

from repro.arch.target import TargetSpec
from repro.core import CompilerConfig, compile_dag
from repro.devices import RERAM
from repro.dfg.evaluate import evaluate
from repro.workloads.synthetic import synthetic_dag

dag = synthetic_dag(num_ops=48, num_inputs=8, seed=7, name="degrade-gate")
target = TargetSpec.square(8, RERAM, num_arrays=2)
program = compile_dag(dag, target, CompilerConfig(mapper="sherlock"),
                      cache=False)
if program.degradation == "none":
    sys.exit("degradation gate: kernel fit outright; gate is not "
             "exercising the ladder")
rng = random.Random(0)
lanes = 8
inputs = {o.name: rng.getrandbits(lanes) for o in dag.inputs()}
got = program.execute(inputs, lanes)
want = evaluate(dag, inputs, lanes)
if got != want:
    bad = sorted(n for n in want if got.get(n) != want[n])
    sys.exit(f"degradation gate: staged execution diverged from the "
             f"reference evaluator on outputs {bad}")
print(f"degradation gate passed: rung {program.degradation!r}, "
      f"{len(program.stages or [])} stages, "
      f"{len(dag.outputs)} outputs bit-identical")
EOF

echo "== hard-fault gate (compile + execute around ~5% dead cells) =="
python - <<'EOF'
import random
import sys

from repro.arch.target import TargetSpec
from repro.core import CompilerConfig, SherlockCompiler
from repro.devices import RERAM, FaultMap
from repro.dfg.evaluate import evaluate
from repro.workloads.synthetic import synthetic_dag

dag = synthetic_dag(num_ops=48, num_inputs=12, seed=11, name="fault-gate")
target = TargetSpec.square(32, RERAM, num_arrays=4)
fault_map = FaultMap.random_map(target, fraction=0.05, seed=11)
program = SherlockCompiler(target, CompilerConfig(mapper="sherlock"),
                           fault_map=fault_map).compile(dag)
rng = random.Random(0)
lanes = 8
inputs = {o.name: rng.getrandbits(lanes) for o in dag.inputs()}
got = program.execute(inputs, lanes, verify_writes=True)
want = evaluate(dag, inputs, lanes)
if got != want:
    bad = sorted(n for n in want if got.get(n) != want[n])
    sys.exit(f"hard-fault gate: execution on {len(fault_map)} dead cells "
             f"diverged from the reference evaluator on outputs {bad}")
print(f"hard-fault gate passed: compiled around {len(fault_map)} dead "
      f"cells, {len(dag.outputs)} outputs bit-identical under "
      f"verify-after-write")
EOF

echo "== multi-array gate (co-scheduled Sobel vs serial spill chain) =="
python - <<'EOF'
import random
import sys

from repro.arch.target import TargetSpec
from repro.core import CompilerConfig, SherlockCompiler
from repro.devices import RERAM
from repro.dfg.evaluate import evaluate
from repro.workloads import get_workload

workload = get_workload("sobel")
dag = workload.build_dag()
lanes = 8
inputs = workload.make_inputs(random.Random(0), lanes)

# 1 array: Sobel overflows the 128 columns, so the ladder spills and
# partitions into serial stages — the pre-refactor baseline schedule
single = SherlockCompiler(
    TargetSpec.square(128, RERAM, num_arrays=1),
    CompilerConfig(mapper="sherlock")).compile(dag)
# 4 arrays, schedule=multi: the co-scheduler partitions clusters across
# arrays and the overlap model prices concurrent execution
multi = SherlockCompiler(
    TargetSpec.square(128, RERAM, num_arrays=4),
    CompilerConfig(mapper="sherlock", schedule="multi")).compile(dag)

want = evaluate(dag, inputs, lanes)
got_multi = multi.execute(inputs, lanes)
got_single = single.execute(inputs, lanes)
if got_multi != want:
    bad = sorted(n for n in want if got_multi.get(n) != want[n])
    sys.exit(f"multi-array gate: co-scheduled execution diverged from "
             f"the reference evaluator on outputs {bad}")
if got_multi != got_single:
    bad = sorted(n for n in got_single if got_multi.get(n) != got_single[n])
    sys.exit(f"multi-array gate: co-scheduled execution diverged from "
             f"the single-array schedule on outputs {bad}")
chain = single.overlap.serial_cycles
makespan = multi.overlap.makespan_cycles
if makespan >= chain:
    sys.exit(f"multi-array gate: co-scheduled makespan {makespan} is not "
             f"below the serial spill-and-partition chain {chain}")
print(f"multi-array gate passed: {len(dag.outputs)} outputs bit-identical "
      f"to reference and single-array schedule; makespan {makespan} vs "
      f"serial chain {chain} cycles "
      f"(latency ratio {makespan / chain:.2f}, "
      f"single degradation {single.degradation!r}, "
      f"{len(single.stages or [])} serial stages)")
EOF

echo "== lifetime campaign gate (wear-leveling + remap extend life) =="
python -m repro.cli lifetime --synthetic 30 --trials 5 --seed 0 \
    --endurance 50 --size 16 --arrays 2 --validate

echo "== serve smoke (CLI batch mode + stats surface) =="
SERVE_TMP=$(mktemp -d)
cat > "$SERVE_TMP/requests.jsonl" <<'EOF'
{"id": "s1", "kernel": "int f(int a, int b){return a ^ (a & b);}", "inputs": {"a": 9, "b": 12}}
{"id": "s2", "synthetic": 20, "seed": 3}
{"id": "s2-again", "synthetic": 20, "seed": 3}
EOF
python -m repro.cli serve --requests "$SERVE_TMP/requests.jsonl" \
    --cache-dir "$SERVE_TMP/cache" --lanes 8 --size 64 --arrays 2 --stats \
    > "$SERVE_TMP/results.jsonl"
cat "$SERVE_TMP/results.jsonl"

echo "== serve gate (corrupted cache + oversized kernel, diff vs evaluator) =="
python - <<'EOF'
import json
import pathlib
import random
import sys
import tempfile

from repro.arch.target import TargetSpec
from repro.core import CompilerConfig, SherlockCompiler
from repro.devices import RERAM
from repro.dfg.evaluate import evaluate
from repro.serve import ArtifactCache, CompileService, handle_request_file
from repro.serve.server import parse_request_lines

tmp = pathlib.Path(tempfile.mkdtemp(prefix="sherlock-serve-gate-"))
requests = [
    {"id": "g1", "kernel": "int f(int a, int b){return a ^ (a & b);}",
     "inputs": {"a": 9, "b": 12}, "lanes": 8},
    {"id": "g2", "synthetic": 20, "seed": 3, "lanes": 8},
    # oversized for the 16x16 arrays: rides the degradation ladder
    {"id": "g3", "synthetic": 128, "seed": 5, "lanes": 8},
]
request_file = tmp / "requests.jsonl"
request_file.write_text("\n".join(json.dumps(obj) for obj in requests))
parsed = parse_request_lines(request_file.read_text(), 8)
want = [evaluate(r.dag, r.inputs, r.lanes) for r in parsed]

target = TargetSpec.square(16, RERAM, num_arrays=2)
cache = ArtifactCache(tmp / "cache")
with CompileService(target, cache=cache, workers=2) as service:
    first = handle_request_file(service, request_file, 8)
    # corrupt one published artifact mid-run: the second pass must
    # quarantine it and transparently recompile
    victim = next(cache.root.glob("*.json"))
    victim.write_text(victim.read_text()[:25])
    second = handle_request_file(service, request_file, 8)
    stats = service.stats()
    stats_text = service.stats_text()

for batch in (first, second):
    for result, expected in zip(batch, want):
        if result.error is not None:
            sys.exit(f"serve gate: request {result.request_id!r} failed: "
                     f"{result.error}")
        if result.outputs != expected:
            sys.exit(f"serve gate: request {result.request_id!r} diverged "
                     f"from the reference evaluator")
if stats["cache"]["quarantined"] != 1:
    sys.exit(f"serve gate: expected exactly 1 quarantined entry, stats say "
             f"{stats['cache']}")
if stats["errors"] != 0 or stats["completed"] != 2 * len(requests):
    sys.exit(f"serve gate: unexpected service counters {stats}")
for needle in ("breaker: state=closed", "quarantined=1"):
    if needle not in stats_text:
        sys.exit(f"serve gate: stats surface is missing {needle!r}:\n"
                 f"{stats_text}")
degraded = [r.degradation for r in first if r.degradation != "none"]
if not degraded:
    sys.exit("serve gate: the oversized request never rode the "
             "degradation ladder; gate is not exercising it")
# a fresh cache over the gate's directory reloads a published program
# with the spare rows and verified outputs it was compiled with
g2 = parsed[1]
compiled = SherlockCompiler(target, cache=False).compile(g2.dag)
reloaded = ArtifactCache(cache.root).get(
    ArtifactCache.key_for(g2.dag, target, CompilerConfig()))
if reloaded is None or not compiled.spare_pool:
    sys.exit("serve gate: g2 was not reloadable with a spare pool")
if reloaded.spare_pool != compiled.spare_pool:
    sys.exit(f"serve gate: reloaded g2 has {len(reloaded.spare_pool)} "
             f"spares, compiled {len(compiled.spare_pool)}")
if (reloaded.execute(g2.inputs, g2.lanes, verify_writes=True)
        != compiled.execute(g2.inputs, g2.lanes, verify_writes=True)):
    sys.exit("serve gate: reloaded g2 diverged from its compile")
# a batch on an array whose ground truth hides a stuck-at under a cell
# the program writes: it must run verified and remap like a single request
from repro.devices import CellFault, FaultMap
from repro.serve import ServeRequest
from repro.util import write_victims

rng = random.Random(0)
sets = [{o.name: rng.getrandbits(8) for o in g2.dag.inputs()}
        for _ in range(4)]
ground = FaultMap()
ground.set_fault(*write_victims(compiled, g2.dag, sets[0], 8)[0],
                 CellFault.STUCK0)
with CompileService(target, workers=1, spare_cells=False,
                    machine_faults={0: ground}) as faulted:
    batch = faulted.process([ServeRequest(
        dag=g2.dag, inputs=sets[0], input_sets=sets, lanes=8,
        request_id="g2-batch")])[0]
if batch.error is not None or not batch.remapped:
    sys.exit(f"serve gate: a batch over an unknown stuck-at cell was not "
             f"remapped (error={batch.error}, remapped={batch.remapped})")
if batch.batch_outputs != [evaluate(g2.dag, s, 8) for s in sets]:
    sys.exit("serve gate: the remapped batch diverged from the reference "
             "evaluator")
print(f"serve gate passed: {2 * len(requests)} requests bit-identical "
      f"across a corrupted cache (quarantined=1), degradations {degraded}; "
      f"reloaded g2 kept its {len(compiled.spare_pool)} spares; a "
      f"{len(sets)}-set batch over an unknown stuck-at cell remapped")
EOF

echo "== chaos gate (seeded kills + corruption + fault burst, diff vs evaluator) =="
python - <<'EOF'
import random
import sys

from repro.arch.target import TargetSpec
from repro.core import CompilerConfig, SherlockCompiler
from repro.devices import RERAM, FaultMap
from repro.dfg.evaluate import evaluate
from repro.serve import (
    ArrayHealth,
    ArtifactCache,
    CompileService,
    HealthPolicy,
    ServeRequest,
)
from repro.util import ChaosEvent, ChaosInjector, ChaosSchedule, write_victims
from repro.workloads.synthetic import synthetic_dag

import pathlib
import tempfile


class Clock:
    now = 100.0

    def __call__(self):
        return self.now


clock = Clock()
lanes = 8
target = TargetSpec.square(64, RERAM, num_arrays=2)
config = CompilerConfig()
dag_a = synthetic_dag(num_ops=16, num_inputs=6, seed=1, name="chaos-a")
dag_b = synthetic_dag(num_ops=16, num_inputs=6, seed=2, name="chaos-b")
rng = random.Random(0)
inputs = {d.name: {o.name: rng.getrandbits(lanes) for o in d.inputs()}
          for d in (dag_a, dag_b)}
want = {d.name: evaluate(d, inputs[d.name], lanes) for d in (dag_a, dag_b)}
program_a = SherlockCompiler(target, config, cache=False).compile(dag_a)
victims = write_victims(program_a, dag_a, inputs[dag_a.name], lanes, count=2)
# the burst also takes all but one spare of the victims' column, so
# verify-after-write runs out of spares and the run hard-faults
column = {(array, col) for array, _row, col in victims}
burst = victims + tuple((s.array, s.row, s.col) for s in program_a.spare_pool
                        if (s.array, s.col) in column)[1:]

tmp = pathlib.Path(tempfile.mkdtemp(prefix="sherlock-chaos-gate-"))
cache = ArtifactCache(tmp / "cache")
ground = {0: FaultMap(), 1: FaultMap()}
schedule = ChaosSchedule((
    ChaosEvent(at=2, kind="worker-kill", stage="execute"),
    ChaosEvent(at=4, kind="cache-corrupt", stage="compile"),
    ChaosEvent(at=6, kind="fault-burst", stage="execute",
               array_id=0, cells=burst, duration=4),
))
injector = ChaosInjector(schedule, cache=cache, machine_faults=ground)
policy = HealthPolicy(min_samples=2, probation_period_s=5.0,
                      probation_successes=2)


def serve(service, dag, array_id):
    result = service.process([ServeRequest(
        dag=dag, inputs=inputs[dag.name], lanes=lanes,
        request_id=dag.name, array_id=array_id)])[0]
    if result.error is not None:
        sys.exit(f"chaos gate: {dag.name} failed: {result.error}")
    if result.outputs != want[dag.name]:
        sys.exit(f"chaos gate: {dag.name} diverged from the reference "
                 f"evaluator under chaos")
    return result


with CompileService(target, config, cache=cache, workers=1,
                    machine_faults=ground, health_policy=policy,
                    chaos=injector, clock=clock,
                    sleep=lambda _s: None) as service:
    serve(service, dag_a, 0)
    serve(service, dag_b, 1)
    serve(service, dag_b, 1)      # worker kill + retry
    serve(service, dag_a, 0)      # cache corruption fires
    serve(service, dag_b, 1)      # corrupted entry quarantined
    serve(service, dag_a, 0)      # fault burst: dirty -> quarantined
    if service.health.state_of(0) is not ArrayHealth.QUARANTINED:
        sys.exit(f"chaos gate: array 0 is "
                 f"{service.health.state_of(0).value}, expected quarantined")
    offloaded = serve(service, dag_a, 0)
    if offloaded.engine != "cpu" or "quarantined" not in (
            offloaded.offload_reason or ""):
        sys.exit("chaos gate: quarantined array was not offloaded to CPU")
    for _ in range(4):            # B traffic advances past the heal ordinal
        serve(service, dag_b, 1)
    clock.now += 5.1              # probation cool-down elapses
    serve(service, dag_a, 0)
    serve(service, dag_a, 0)      # two clean probes restore the array
    if service.health.state_of(0) is not ArrayHealth.HEALTHY:
        sys.exit("chaos gate: array 0 did not recover after probation")
    snap = service.stats()["health"]
    stats_text = service.stats_text()

if snap["degraded"] < 1 or snap["quarantined"] < 1 or snap["recovered"] < 1:
    sys.exit(f"chaos gate: transition counters incomplete: {snap}")
if cache.stats()["quarantined"] != 1:
    sys.exit(f"chaos gate: expected 1 quarantined cache entry, got "
             f"{cache.stats()}")
for needle in ("health: baseline=", "array 0: state=healthy",
               "transition: array 0 degraded -> quarantined"):
    if needle not in stats_text:
        sys.exit(f"chaos gate: stats surface is missing {needle!r}:\n"
                 f"{stats_text}")
print(f"chaos gate passed: 12 requests bit-identical through a worker "
      f"kill, cache corruption, and a {len(burst)}-cell fault burst; "
      f"array 0 walked healthy -> degraded -> quarantined -> healthy "
      f"(fired: {injector.fired})")
EOF

echo "== scrub gate (planted latent fault found by patrol before any request fails) =="
python - <<'EOF'
import random
import sys

from repro.arch.target import TargetSpec
from repro.core import CompilerConfig, SherlockCompiler
from repro.devices import RERAM, FaultMap
from repro.dfg.evaluate import evaluate
from repro.serve import (
    ArrayHealth,
    CompileService,
    HealthPolicy,
    ScrubPolicy,
    ServeRequest,
)
from repro.util import ChaosEvent, ChaosInjector, ChaosSchedule, latent_victims
from repro.workloads.synthetic import synthetic_dag


class Clock:
    now = 100.0

    def __call__(self):
        return self.now


clock = Clock()
lanes = 8
target = TargetSpec.square(64, RERAM, num_arrays=2)
config = CompilerConfig()
dag_a = synthetic_dag(num_ops=16, num_inputs=6, seed=1, name="scrub-a")
dag_b = synthetic_dag(num_ops=16, num_inputs=6, seed=2, name="scrub-b")


def inputs_for(dag):
    rng = random.Random(0)
    return {o.name: rng.getrandbits(lanes) for o in dag.inputs()}


inputs = {d.name: inputs_for(d) for d in (dag_a, dag_b)}
want = {d.name: evaluate(d, inputs[d.name], lanes) for d in (dag_a, dag_b)}
# the victim is an input cell of dag_a's deterministic compile: preloads
# write it without read-back, so only the patrol scrubber can find it
victims = latent_victims(
    SherlockCompiler(target, config, cache=False).compile(dag_a),
    dag_a, inputs[dag_a.name], lanes, count=1)
ground = {0: FaultMap(), 1: FaultMap()}
space = target.num_arrays * target.rows * target.cols
injector = ChaosInjector(
    ChaosSchedule((ChaosEvent(at=2, kind="latent-fault", stage="execute",
                              array_id=1, cells=victims),)),
    machine_faults=ground)
policy = HealthPolicy(min_samples=1, probation_period_s=5.0,
                      probation_successes=1)


def serve(service, dag, array_id, **kwargs):
    result = service.process([ServeRequest(
        dag=dag, inputs=inputs[dag.name], lanes=lanes,
        request_id=dag.name, array_id=array_id, **kwargs)])[0]
    if result.error is not None:
        sys.exit(f"scrub gate: {dag.name} failed: {result.error}")
    if result.outputs != want[dag.name]:
        sys.exit(f"scrub gate: {dag.name} diverged from the reference "
                 f"evaluator")
    return result


with CompileService(target, config, workers=1, machine_faults=ground,
                    health_policy=policy, placement="health",
                    scrub=ScrubPolicy(budget=2 * space, seed=3, weight=64.0),
                    chaos=injector, clock=clock,
                    sleep=lambda _s: None) as service:
    voted = serve(service, dag_a, 0, redundancy=3)
    if not voted.voted or voted.disagreeing != ():
        sys.exit(f"scrub gate: clean vote was not unanimous: {voted}")
    serve(service, dag_b, 1)
    serve(service, dag_b, 1)          # ordinal 2: latent fault planted
    report = service.scrub()          # patrol finds it, zero failures so far
    if report.latent_faults_found != 1 or sorted(report.discoveries) != [1]:
        sys.exit(f"scrub gate: patrol missed the planted latent fault: "
                 f"found={report.latent_faults_found} "
                 f"arrays={sorted(report.discoveries)}")
    found = [cell for cell, _ in report.discoveries[1].cells()]
    if found != [victims[0]]:
        sys.exit(f"scrub gate: patrol reported {found}, planted {victims}")
    if service.stats()["errors"] != 0:
        sys.exit("scrub gate: a request failed before the patrol ran")
    if service.health.state_of(1) is not ArrayHealth.DEGRADED:
        sys.exit(f"scrub gate: array 1 is "
                 f"{service.health.state_of(1).value}, expected degraded")
    moved = serve(service, dag_b, 1)  # placement shifts degraded traffic
    if moved.placed_array != 0:
        sys.exit(f"scrub gate: degraded array kept its traffic "
                 f"(placed on {moved.placed_array})")
    outvoted = serve(service, dag_a, 0, redundancy=3)
    if outvoted.disagreeing != (1,):  # minority stays bit-identical
        sys.exit(f"scrub gate: expected array 1 outvoted, "
                 f"disagreeing={outvoted.disagreeing}")
    if service.health.state_of(1) is not ArrayHealth.QUARANTINED:
        sys.exit("scrub gate: vote disagreement did not quarantine array 1")
    clock.now += 5.1                  # probation cool-down elapses
    probe = serve(service, dag_b, 1)
    if probe.engine != "cim" or probe.placed_array != 1:
        sys.exit("scrub gate: probation probe did not land on array 1")
    if service.health.state_of(1) is not ArrayHealth.HEALTHY:
        sys.exit("scrub gate: array 1 did not recover after probation")
    final = serve(service, dag_b, 0, redundancy=3)
    if not final.voted or 1 not in final.voters:
        sys.exit("scrub gate: recovered array never voted again")
    snap = service.stats()
    text = service.stats_text()

if snap["scrub"]["latent_faults_found"] != 1 or snap["errors"] != 0:
    sys.exit(f"scrub gate: unexpected counters: scrub={snap['scrub']} "
             f"errors={snap['errors']}")
for needle in ("placement: health", "scrub: passes=1", "votes: 3"):
    if needle not in text:
        sys.exit(f"scrub gate: stats surface is missing {needle!r}:\n{text}")
print(f"scrub gate passed: patrol found the planted latent cell "
      f"{victims[0]} with zero failed requests; array 1 walked degraded "
      f"-> quarantined -> healthy while every answer (3 of them voted) "
      f"stayed bit-identical")
EOF

echo "== health smoke (static fault-map assessment CLI) =="
HEALTH_TMP=$(mktemp -d)
python - <<EOF
from repro.arch.target import TargetSpec
from repro.devices import RERAM, FaultMap
fm = FaultMap.random_map(TargetSpec.square(16, RERAM, num_arrays=4),
                         fraction=0.08, seed=3)
fm.save("$HEALTH_TMP/faults.json")
EOF
python -m repro.cli health --tech reram --size 16 --arrays 4 \
    --fault-map "$HEALTH_TMP/faults.json"

echo "== paper experiments (tables land in benchmarks/results/) =="
PAPER_TMP=$(mktemp -d)
for name in fig2b.txt fig6.txt table2.txt fig7.txt; do
    # the committed copy; outside a git checkout, the checked-out one
    git show "HEAD:benchmarks/results/$name" > "$PAPER_TMP/$name" \
        2>/dev/null || cp "benchmarks/results/$name" "$PAPER_TMP/$name"
done
python -m pytest benchmarks/ 2>&1 | tee benchmarks/results/full_run.log

echo "== paper gate (regenerated tables vs their committed copies) =="
PAPER_FILES="fig2b.txt fig6.txt table2.txt fig7.txt"
if [ -n "$QUICK" ]; then
    # SHERLOCK_BENCH_AES_ROUNDS=2 changes the AES rows of both tables
    echo "QUICK=1: comparing fig2b.txt and fig6.txt only (reduced-round" \
         "AES changes table2.txt and fig7.txt)"
    PAPER_FILES="fig2b.txt fig6.txt"
fi
for name in $PAPER_FILES; do
    if ! diff -u "$PAPER_TMP/$name" "benchmarks/results/$name"; then
        echo "paper gate: regenerated benchmarks/results/$name differs" \
             "from its committed copy"
        exit 1
    fi
done
echo "paper gate passed: $PAPER_FILES byte-identical"
if [ -n "$QUICK" ]; then
    # put the committed full-round tables back, so a quick run leaves the
    # checkout clean
    cp "$PAPER_TMP/table2.txt" "$PAPER_TMP/fig7.txt" benchmarks/results/
fi

echo "== benchmark timings =="
python -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

echo "== performance benchmark smoke (perfbench workloads at a tiny size) =="
python3 -m pytest perfbench/test_smoke.py -q

echo "== examples =="
for example in examples/*.py; do
    echo "-- $example"
    python "$example" > /dev/null
done
echo "all green"
