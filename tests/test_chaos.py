"""Tests for the deterministic chaos harness (repro.util.chaos).

The acceptance test at the bottom is the PR's end-to-end gate: one serve
loop survives seeded worker kills, artifact-cache corruption, and an
injected write-failure burst with bit-identical outputs throughout,
while the health registry walks the burst's victim array through
HEALTHY -> DEGRADED -> QUARANTINED -> (probation) -> HEALTHY.
"""

import pytest

from repro.core.compiler import SherlockCompiler
from repro.core.config import CompilerConfig
from repro.devices import FaultMap
from repro.dfg.evaluate import evaluate
from repro.errors import ServeError, WorkerCrashError
from repro.serve import ArrayHealth, ArtifactCache, CompileService, HealthPolicy
from repro.util import (
    ChaosEvent,
    ChaosInjector,
    ChaosSchedule,
    latent_victims,
    write_victims,
)

from tests.test_serve import (
    FakeClock,
    inputs_for,
    request_for,
    small_dag,
    small_target,
)


class TestChaosEvents:
    @pytest.mark.parametrize("kwargs", [
        {"at": 0, "kind": "coffee-spill"},
        {"at": 0, "kind": "worker-kill", "stage": "ship-it"},
        {"at": -1, "kind": "worker-kill"},
        {"at": 0, "kind": "fault-burst", "duration": 0},
        {"at": 0, "kind": "fault-burst", "fault": "stuck-sideways"},
    ])
    def test_rejects_invalid_events(self, kwargs):
        with pytest.raises((ServeError, ValueError)):
            ChaosEvent(**kwargs)

    def test_schedule_sorts_and_validates(self):
        late = ChaosEvent(at=5, kind="worker-kill")
        early = ChaosEvent(at=1, kind="worker-kill")
        schedule = ChaosSchedule((late, early))
        assert schedule.events == (early, late)
        with pytest.raises(ServeError):
            ChaosSchedule(("not-an-event",))

    def test_generate_is_seed_deterministic(self):
        first = ChaosSchedule.generate(7, horizon=10, kills=3, corruptions=2)
        again = ChaosSchedule.generate(7, horizon=10, kills=3, corruptions=2)
        other = ChaosSchedule.generate(8, horizon=10, kills=3, corruptions=2)
        assert first == again
        assert first != other
        kinds = [e.kind for e in first.events]
        assert kinds.count("worker-kill") == 3
        assert kinds.count("cache-corrupt") == 2
        assert all(0 <= e.at < 10 for e in first.events)


class TestChaosInjector:
    def test_kill_fires_at_its_ordinal_exactly_once(self):
        injector = ChaosInjector(ChaosSchedule(
            (ChaosEvent(at=2, kind="worker-kill"),)))
        injector("execute", None)  # ordinal 0
        injector("execute", None)  # ordinal 1
        with pytest.raises(WorkerCrashError):
            injector("execute", None)  # ordinal 2
        injector("execute", None)  # ordinal 3: consumed, no re-fire
        assert injector.fired == [("execute", 2, "worker-kill")]
        with pytest.raises(ServeError):
            injector("deploy", None)

    def test_stages_have_independent_clocks(self):
        injector = ChaosInjector(ChaosSchedule(
            (ChaosEvent(at=0, kind="worker-kill", stage="compile"),)))
        injector("execute", None)  # execute ordinal 0: nothing
        with pytest.raises(WorkerCrashError):
            injector("compile", None)  # compile ordinal 0

    def test_fault_burst_installs_and_heals(self):
        ground = FaultMap()
        injector = ChaosInjector(
            ChaosSchedule((ChaosEvent(
                at=0, kind="fault-burst", array_id=3,
                cells=((0, 1, 2), (0, 1, 3)), duration=2),)),
            machine_faults={3: ground})
        injector("execute", None)  # ordinal 0: burst
        assert ground.fault_at(0, 1, 2) is not None
        assert ground.fault_at(0, 1, 3) is not None
        injector("execute", None)  # ordinal 1: still faulty
        assert ground.fault_at(0, 1, 2) is not None
        injector("execute", None)  # ordinal 2: heal fires
        assert ground.fault_at(0, 1, 2) is None
        assert ground.fault_at(0, 1, 3) is None

    def test_wear_is_permanent(self):
        ground = FaultMap()
        injector = ChaosInjector(
            ChaosSchedule((ChaosEvent(at=0, kind="wear", array_id=0,
                                      cells=((0, 2, 2),), fault="dead"),)),
            machine_faults={0: ground})
        for _ in range(5):
            injector("execute", None)
        assert ground.fault_at(0, 2, 2) is not None

    def test_cache_corrupt_truncates_the_first_entry(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        target, config, dag = small_target(), CompilerConfig(), small_dag()
        program = SherlockCompiler(target, config, cache=False).compile(dag)
        key = ArtifactCache.key_for(dag, target, config)
        cache.put(key, program)
        injector = ChaosInjector(
            ChaosSchedule((ChaosEvent(at=0, kind="cache-corrupt",
                                      stage="compile"),)),
            cache=cache)
        injector("compile", None)
        victim = sorted(cache.root.glob("*.json"))[0]
        assert len(victim.read_text()) == 25
        assert cache.get(key) is None  # quarantined, not served
        assert cache.stats()["quarantined"] == 1


class TestWriteVictims:
    def test_victims_are_nonzero_output_placements(self):
        target, config, dag = small_target(), CompilerConfig(), small_dag()
        program = SherlockCompiler(target, config, cache=False).compile(dag)
        inputs = inputs_for(dag)
        victims = write_victims(program, dag, inputs, 8, count=2)
        assert 1 <= len(victims) <= 2
        placements = program.layout.placements()
        expected = evaluate(dag, inputs, 8)
        for victim in victims:
            owners = [name for name, node in dag.outputs.items()
                      if any((a.array, a.row, a.col) == victim
                             for a in placements.get(node, []))]
            assert owners, f"victim {victim} is not an output placement"
            assert any(expected[name] != 0 for name in owners)
        with pytest.raises(ServeError):
            write_victims(program, dag, inputs, 8, count=0)


# ----------------------------------------------------------------------
# the end-to-end chaos acceptance gate
# ----------------------------------------------------------------------
class TestChaosAcceptance:
    def test_serve_loop_survives_seeded_chaos_bit_identically(self, tmp_path):
        clock = FakeClock()
        lanes = 8
        target = small_target(num_arrays=2)
        config = CompilerConfig()
        dag_a, dag_b = small_dag(seed=1), small_dag(seed=2)
        expect_a = evaluate(dag_a, inputs_for(dag_a), lanes)
        expect_b = evaluate(dag_b, inputs_for(dag_b), lanes)
        # victim cells come from the deterministic compile of dag_a, so
        # the burst provably hits output cells the serve loop will write
        program_a = SherlockCompiler(target, config, cache=False
                                     ).compile(dag_a)
        victims = write_victims(program_a, dag_a, inputs_for(dag_a), lanes,
                                count=2)
        # the burst also takes all but one spare of the victims' column,
        # so verify-after-write runs out of spares and the run hard-faults
        column = {(array, col) for array, _row, col in victims}
        spares = tuple((s.array, s.row, s.col) for s in program_a.spare_pool
                       if (s.array, s.col) in column)
        burst = victims + spares[1:]
        cache = ArtifactCache(tmp_path)
        ground = {0: FaultMap(), 1: FaultMap()}
        schedule = ChaosSchedule((
            ChaosEvent(at=2, kind="worker-kill", stage="execute"),
            ChaosEvent(at=4, kind="cache-corrupt", stage="compile"),
            ChaosEvent(at=6, kind="fault-burst", stage="execute",
                       array_id=0, cells=burst, duration=4),
        ))
        injector = ChaosInjector(schedule, cache=cache,
                                 machine_faults=ground)
        policy = HealthPolicy(min_samples=2, probation_period_s=5.0,
                              probation_successes=2)
        transitions = []

        def serve_one(service, dag, array_id):
            result = service.process([request_for(dag, lanes=lanes,
                                                  array_id=array_id)])[0]
            assert result.error is None, result.error
            assert result.outputs == (expect_a if dag is dag_a else expect_b)
            return result

        with CompileService(target, config, cache=cache, workers=1,
                            machine_faults=ground, health_policy=policy,
                            chaos=injector, clock=clock,
                            sleep=lambda _s: None) as service:
            # phase 1 — clean traffic on both fleet arrays
            serve_one(service, dag_a, 0)   # compile 0 / execute 0
            serve_one(service, dag_b, 1)   # compile 1 / execute 1
            # phase 2 — the worker serving B crashes; the retry succeeds
            serve_one(service, dag_b, 1)   # kill at execute 2, retry at 3
            assert service.stats()["retries"] >= 1
            # phase 3 — a published artifact is corrupted on disk; the
            # next lookups quarantine it and transparently recompile
            serve_one(service, dag_a, 0)   # corrupt fires at compile 4
            serve_one(service, dag_b, 1)
            assert cache.stats()["quarantined"] == 1
            # phase 4 — a write-failure burst hits A's output cells: the
            # run hard-faults, the in-loop remap rung recovers it, and
            # the dirty samples walk array 0 down the ladder one rung
            # each (HEALTHY -> DEGRADED -> QUARANTINED)
            serve_one(service, dag_a, 0)   # burst at execute 6; dirty
            assert service.health.state_of(0) is ArrayHealth.QUARANTINED
            assert service.health.snapshot()["degraded"] >= 1
            # phase 5 — quarantine diverts A to the CPU baseline, still
            # bit-identical; B traffic keeps flowing on CIM (and advances
            # the execute clock past the burst's heal ordinal)
            offloaded = serve_one(service, dag_a, 0)
            assert offloaded.engine == "cpu"
            assert "quarantined" in offloaded.offload_reason
            for _ in range(4):             # execute 7..10 (heal at 10)
                assert serve_one(service, dag_b, 1).engine == "cim"
            assert ground[0].fault_at(*victims[0]) is None
            # phase 6 — probation: after the cool-down, probes reach CIM
            # and two clean probes restore the array
            clock.advance(5.1)
            assert serve_one(service, dag_a, 0).engine == "cim"
            assert service.health.state_of(0) is ArrayHealth.QUARANTINED
            assert serve_one(service, dag_a, 0).engine == "cim"
            assert service.health.state_of(0) is ArrayHealth.HEALTHY

            assert injector.fired == [
                ("execute", 2, "worker-kill"),
                ("compile", 4, "cache-corrupt"),
                ("execute", 6, "fault-burst"),
            ]
            snap = service.stats()["health"]
            assert snap["degraded"] >= 1
            assert snap["quarantined"] >= 1
            assert snap["recovered"] >= 1
            transitions = [(t["array"], t["from"], t["to"])
                           for t in snap["transitions"]]
            text = service.stats_text()
        assert [(a, f, t) for a, f, t in transitions if a == 0] == [
            (0, "healthy", "degraded"),
            (0, "degraded", "quarantined"),
            (0, "quarantined", "healthy"),
        ]
        # the operator-facing stats surface shows the whole story
        assert "health: baseline=" in text
        assert "array 0: state=healthy" in text
        assert "transition: array 0 degraded -> quarantined" in text


class TestLatentFaults:
    def test_latent_fault_event_is_permanent(self):
        ground = FaultMap()
        injector = ChaosInjector(
            ChaosSchedule((ChaosEvent(at=0, kind="latent-fault", array_id=1,
                                      cells=((0, 4, 4),)),)),
            machine_faults={1: ground})
        for _ in range(5):
            injector("execute", None)
        assert ground.fault_at(0, 4, 4) is not None

    def test_latent_victims_are_nonzero_input_placements(self):
        target, config, dag = small_target(), CompilerConfig(), small_dag()
        program = SherlockCompiler(target, config, cache=False).compile(dag)
        inputs = inputs_for(dag)
        victims = latent_victims(program, dag, inputs, 8, count=2)
        assert 1 <= len(victims) <= 2
        placements = program.layout.placements()
        for victim in victims:
            owners = [op.name for op in dag.inputs()
                      if any((a.array, a.row, a.col) == victim
                             for a in placements.get(op.node_id, []))]
            assert owners, f"victim {victim} is not an input placement"
            assert any(inputs[name] != 0 for name in owners)
        with pytest.raises(ServeError):
            latent_victims(program, dag, inputs, 8, count=0)
        with pytest.raises(ServeError):
            latent_victims(program, dag, {k: 0 for k in inputs}, 8)


# ----------------------------------------------------------------------
# the active-integrity acceptance gate
# ----------------------------------------------------------------------
class TestActiveIntegrityAcceptance:
    def test_scrub_finds_planted_latents_before_any_request_fails(self):
        """The PR's end-to-end gate for the active-integrity layer.

        A chaos event plants a latent fault (an input cell no write ever
        verifies) on array 1.  The patrol scrubber must diagnose it
        before any request fails; the discovery degrades the array, so
        health-aware placement visibly shifts its traffic to array 0; a
        voted request outvotes the still-poisoned array bit-identically,
        quarantining it; and after probation the array earns its way
        back and votes again.
        """
        from repro.serve import ScrubPolicy
        from repro.util import latent_victims

        clock = FakeClock()
        lanes = 8
        target = small_target(num_arrays=2)
        config = CompilerConfig()
        dag_a, dag_b = small_dag(seed=1), small_dag(seed=2)
        expect_a = evaluate(dag_a, inputs_for(dag_a), lanes)
        expect_b = evaluate(dag_b, inputs_for(dag_b), lanes)
        # the victim comes from the deterministic compile of dag_a: an
        # input cell carrying a nonzero lane mask, written by preloads
        # only — no verify-after-write ladder ever reads it back
        program_a = SherlockCompiler(target, config, cache=False
                                     ).compile(dag_a)
        victims = latent_victims(program_a, dag_a, inputs_for(dag_a),
                                 lanes, count=1)
        ground = {0: FaultMap(), 1: FaultMap()}
        space = target.num_arrays * target.rows * target.cols
        injector = ChaosInjector(
            ChaosSchedule((ChaosEvent(at=2, kind="latent-fault",
                                      stage="execute", array_id=1,
                                      cells=victims),)),
            machine_faults=ground)
        policy = HealthPolicy(min_samples=1, probation_period_s=5.0,
                              probation_successes=1)

        def serve_one(service, dag, expect, **kwargs):
            result = service.process([request_for(dag, lanes=lanes,
                                                  **kwargs)])[0]
            assert result.error is None, result.error
            assert result.outputs == expect
            return result

        with CompileService(target, config, workers=1,
                            machine_faults=ground, health_policy=policy,
                            placement="health", chaos=injector,
                            scrub=ScrubPolicy(budget=2 * space, seed=3,
                                              weight=64.0),
                            clock=clock, sleep=lambda _s: None) as service:
            # phase 1 — clean traffic, including a unanimous vote
            voted = serve_one(service, dag_a, expect_a, array_id=0,
                              redundancy=3)
            assert voted.voted and voted.disagreeing == ()
            serve_one(service, dag_b, expect_b, array_id=1)
            # phase 2 — the chaos event plants the latent fault silently
            serve_one(service, dag_b, expect_b, array_id=1)  # ordinal 2
            assert injector.fired == [("execute", 2, "latent-fault")]
            assert ground[1].fault_at(*victims[0]) is not None
            # phase 3 — the patrol scrubber finds it before any request
            # does: zero failed requests so far, and the march test
            # reports exactly the planted cell
            report = service.scrub()
            assert report.latent_faults_found == 1
            assert sorted(report.discoveries) == [1]
            found = [cell for cell, _ in report.discoveries[1].cells()]
            assert found == [victims[0]]
            assert service.stats()["errors"] == 0
            assert service.health.state_of(1) is ArrayHealth.DEGRADED
            # phase 4 — placement visibly shifts the degraded array's
            # traffic onto its healthy peer
            moved = serve_one(service, dag_b, expect_b, array_id=1)
            assert moved.placed_array == 0
            stats = service.stats()
            assert stats["placement_shifts"] >= 1
            text = service.stats_text()
            assert "placement: health" in text
            assert "state=degraded" in text
            assert "latent=1" in text
            # phase 5 — a voted request outvotes the poisoned array:
            # the answer stays bit-identical, the minority is reported,
            # and the disagreement quarantines the array
            outvoted = serve_one(service, dag_a, expect_a, array_id=0,
                                 redundancy=3)
            assert outvoted.voted
            assert outvoted.disagreeing == (1,)
            assert service.health.state_of(1) is ArrayHealth.QUARANTINED
            parked = service.process([request_for(dag_b, lanes=lanes,
                                                  array_id=1)])[0]
            assert parked.engine == "cpu"
            assert "quarantined" in parked.offload_reason
            # phase 6 — probation: the probe lands on array 1 itself
            # (placement never steals probe traffic), compiles around
            # the now-known cell, runs clean, and restores the array
            clock.advance(5.1)
            probe = serve_one(service, dag_b, expect_b, array_id=1)
            assert probe.engine == "cim" and probe.placed_array == 1
            assert service.health.state_of(1) is ArrayHealth.HEALTHY
            # phase 7 — the recovered array votes again, bit-identically
            final = serve_one(service, dag_b, expect_b, array_id=0,
                              redundancy=3)
            assert final.voted and 1 in final.voters
            snap = service.stats()
        assert snap["errors"] == 0
        assert snap["votes"] == 3
        assert snap["vote_disagreements"] == 1
        assert snap["scrub"]["latent_faults_found"] == 1
        assert snap["health"]["arrays"][1]["scrub_faults"] == 1
        assert snap["health"]["arrays"][1]["vote_disagreements"] == 1
