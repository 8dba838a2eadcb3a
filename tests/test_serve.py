"""Tests for the resilient compile-and-serve subsystem (repro.serve)."""

import json
import os
import pathlib
import random
import socket
import threading
import time
from dataclasses import replace

import pytest

from repro.arch.target import TargetSpec
from repro.cli import main
from repro.core.compiler import SherlockCompiler, clear_compile_cache
from repro.core.config import CompilerConfig
from repro.devices import RERAM, CellFault, FaultMap
from repro.dfg.evaluate import evaluate
from repro.errors import (
    ServeError,
    ServiceOverloadError,
    SherlockError,
    WorkerCrashError,
)
from repro.serve import (
    ARTIFACT_SCHEMA,
    ArtifactCache,
    BreakerState,
    CircuitBreaker,
    CompileService,
    ServeRequest,
    handle_request_file,
    parse_request,
    serve_tcp,
)
from repro.sim.cpu import dag_events, run_model
from repro.sim.metrics import analyze_trace
from repro.workloads.synthetic import synthetic_dag


def small_target(**kwargs):
    kwargs.setdefault("num_arrays", 2)
    return TargetSpec.square(64, RERAM, **kwargs)


def small_dag(seed=1, ops=16):
    return synthetic_dag(num_ops=ops, num_inputs=6, seed=seed,
                         name=f"serve{seed}")


def inputs_for(dag, lanes=8, seed=0):
    rng = random.Random(seed)
    return {o.name: rng.getrandbits(lanes) for o in dag.inputs()}


def request_for(dag, lanes=8, seed=0, **kwargs):
    return ServeRequest(dag=dag, inputs=inputs_for(dag, lanes, seed),
                        lanes=lanes, **kwargs)


class FakeClock:
    """A manually advanced monotonic clock for breaker/deadline tests."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# artifact cache
# ----------------------------------------------------------------------
class TestArtifactCache:
    def test_round_trip_hit_and_counters(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        target, config = small_target(), CompilerConfig()
        dag = small_dag()
        program = SherlockCompiler(target, config, cache=False).compile(dag)
        key = ArtifactCache.key_for(dag, target, config)
        assert cache.get(key) is None  # cold miss
        cache.put(key, program)
        reloaded = cache.get(key)
        assert reloaded is not None
        assert reloaded.instructions == program.instructions
        inputs = inputs_for(dag)
        assert reloaded.execute(inputs, 8) == program.execute(inputs, 8)
        assert cache.stats() == {"hits": 1, "misses": 1, "quarantined": 0,
                                 "writes": 1, "evictions": 0, "entries": 1}

    def test_fault_map_content_changes_the_key(self):
        target, config, dag = small_target(), CompilerConfig(), small_dag()
        fm = FaultMap()
        fm.mark_dead(0, 0, 0)
        blank = ArtifactCache.key_for(dag, target, config)
        faulty = ArtifactCache.key_for(dag, target, config, fm)
        same = ArtifactCache.key_for(dag, target, config, fm.copy())
        assert blank != faulty
        assert faulty == same
        fm.mark_dead(0, 1, 1)
        assert ArtifactCache.key_for(dag, target, config, fm) != faulty

    @pytest.mark.parametrize("corruption", [
        "truncated", "garbage", "wrong-schema", "version-mismatch"])
    def test_corrupt_entries_quarantine_and_recompile(self, tmp_path,
                                                      corruption):
        cache = ArtifactCache(tmp_path)
        target, config, dag = small_target(), CompilerConfig(), small_dag()
        program = SherlockCompiler(target, config, cache=False).compile(dag)
        key = ArtifactCache.key_for(dag, target, config)
        cache.put(key, program)
        path = cache.path_for(key)
        if corruption == "truncated":
            path.write_text(path.read_text()[:40])
        elif corruption == "garbage":
            path.write_bytes(b"\x00\xffnot json at all")
        elif corruption == "wrong-schema":
            document = json.loads(path.read_text())
            document["schema"] = "someone-elses-cache/v9"
            path.write_text(json.dumps(document))
        else:  # version-mismatch inside the program document
            document = json.loads(path.read_text())
            document["program"]["format_version"] = 99
            path.write_text(json.dumps(document))
        assert cache.get(key) is None  # tolerated, reported as a miss
        assert cache.quarantined == 1
        assert not path.exists()
        assert len(list(cache.quarantine_dir.iterdir())) == 1
        # the service would now recompile and overwrite; prove that works
        cache.put(key, program)
        assert cache.get(key) is not None

    def test_quarantine_can_discard_instead_of_keep(self, tmp_path):
        cache = ArtifactCache(tmp_path, keep_quarantined=False)
        key = "0" * 64
        cache.path_for(key).write_text("{broken")
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert not cache.quarantine_dir.exists()

    def test_concurrent_readers_never_see_partial_entries(self, tmp_path):
        """Hammer one key from writer and reader threads concurrently."""
        cache = ArtifactCache(tmp_path)
        target, config, dag = small_target(), CompilerConfig(), small_dag()
        program = SherlockCompiler(target, config, cache=False).compile(dag)
        key = ArtifactCache.key_for(dag, target, config)
        cache.put(key, program)
        stop = threading.Event()
        failures = []

        def writer():
            while not stop.is_set():
                cache.put(key, program)

        def reader():
            while not stop.is_set():
                got = cache.get(key)
                if got is None:
                    failures.append("reader saw a missing/partial entry")
                    return

        threads = ([threading.Thread(target=writer) for _ in range(2)]
                   + [threading.Thread(target=reader) for _ in range(3)])
        for t in threads:
            t.start()
        for t in threads[2:]:
            t.join(timeout=1.5)
        stop.set()
        for t in threads:
            t.join(timeout=5)
        assert not failures
        assert cache.quarantined == 0


class TestMemoryTier:
    """The in-memory tier every :class:`ArtifactCache` puts before disk."""

    @staticmethod
    def compiled(fault_map=None):
        target, config, dag = small_target(), CompilerConfig(), small_dag()
        program = SherlockCompiler(target, config, cache=False,
                                   fault_map=fault_map).compile(dag)
        return ArtifactCache.key_for(dag, target, config, fault_map), program

    def test_service_lookups_skip_the_process_cache(self, tmp_path):
        """One lookup per request: the service's own cache, nothing else."""
        from repro.core.compiler import compile_cache_info

        clear_compile_cache()
        dag = small_dag()
        cache = ArtifactCache(tmp_path)
        before = compile_cache_info()
        with CompileService(small_target(), CompilerConfig(), cache=cache,
                            workers=1) as service:
            miss = service.process([request_for(dag)])[0]
            hit = service.process([request_for(dag)])[0]
        assert not miss.cached and hit.cached
        assert compile_cache_info() == before
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_memory_hit_matches_a_fresh_disk_hit(self, tmp_path):
        target = small_target()
        faults = FaultMap.random_map(target, fraction=0.02, seed=3)
        key, program = self.compiled(faults)
        cache = ArtifactCache(tmp_path)
        cache.put(key, program)
        hot = cache.get(key)
        cold = ArtifactCache(tmp_path).get(key)
        assert hot.instructions == cold.instructions == program.instructions
        assert hot.spare_pool == cold.spare_pool == program.spare_pool
        assert hot.fault_map.cells() == cold.fault_map.cells() == \
            faults.cells()
        inputs = inputs_for(small_dag())
        want = program.execute(inputs, 8, verify_writes=True)
        assert hot.execute(inputs, 8, verify_writes=True) == want
        assert cold.execute(inputs, 8, verify_writes=True) == want

    def test_hot_hit_does_not_deserialize(self, tmp_path, monkeypatch):
        import sys

        from repro.core.serialize import program_from_dict

        key, program = self.compiled()
        cache = ArtifactCache(tmp_path)
        cache.put(key, program)

        def refuse(document):
            raise AssertionError("a hot hit re-parsed the artifact")

        for module in list(sys.modules.values()):  # every binding of it
            if getattr(module, "program_from_dict", None) is program_from_dict:
                monkeypatch.setattr(module, "program_from_dict", refuse)
        assert cache.get(key).instructions == program.instructions
        assert cache.get(key) is not cache.get(key)  # private copies

    def test_editing_a_hit_cannot_poison_the_cache(self, tmp_path):
        key, program = self.compiled()
        for cache in (ArtifactCache(), ArtifactCache(tmp_path)):
            cache.put(key, program)
            cache.get(key).instructions.clear()
            assert cache.get(key).instructions == program.instructions

    def test_another_writers_publication_is_seen(self, tmp_path):
        key, program = self.compiled()
        cache = ArtifactCache(tmp_path)
        cache.put(key, program)
        assert cache.get(key) is not None  # now hot in memory
        other = ArtifactCache(tmp_path)
        newer = program.instructions[:-1]
        other.put(key, replace(program, mapping=replace(
            program.mapping, instructions=newer)))
        assert cache.get(key).instructions == newer

    def test_memory_only_cache_is_bounded(self):
        from repro.core.cache import MEMORY_ENTRIES

        cache = ArtifactCache()
        _, program = self.compiled()
        for index in range(MEMORY_ENTRIES + 1):
            cache.put(f"key{index}", program)
        assert cache.get("key0") is None  # least recently used, dropped
        assert cache.get(f"key{MEMORY_ENTRIES}") is not None
        assert "key1" in cache and "key0" not in cache
        assert cache.stats() == {"hits": 1, "misses": 1, "quarantined": 0,
                                 "writes": MEMORY_ENTRIES + 1,
                                 "evictions": 0, "entries": MEMORY_ENTRIES}

    def test_derived_facts_are_computed_once_per_entry(self, tmp_path,
                                                       monkeypatch):
        from repro.core import compiler

        calls = []

        def counted(instructions, target):
            calls.append(len(instructions))
            return analyze_trace(instructions, target)

        monkeypatch.setattr(compiler, "analyze_trace", counted)
        key, program = self.compiled()
        cache = ArtifactCache(tmp_path)
        cache.put(key, program)
        views = [cache.get(key) for _ in range(5)]
        want = analyze_trace(program.instructions, program.target)
        assert all(view.metrics == want for view in views)
        assert len(calls) == 1
        assert views[0].overlap is views[4].overlap

    def test_interned_values_are_shared_between_entries(self):
        # two compiles of one DAG: equal values, distinct objects
        _, first = self.compiled()
        _, second = self.compiled()
        assert first.instructions[0] is not second.instructions[0]
        held = (list(second.instructions),
                {op: list(addrs)
                 for op, addrs in second.layout._copies.items()})
        cache = ArtifactCache()
        cache.put("a", first)
        cache.put("b", second)
        a, b = cache.get("a"), cache.get("b")
        assert a.instructions == second.instructions
        assert all(x is y for x, y in zip(a.instructions, b.instructions))
        for operand, addrs in a.layout._copies.items():
            assert all(x is y for x, y in
                       zip(addrs, b.layout._copies[operand]))
        # the callers' own program objects were left untouched
        assert all(x is y for x, y in zip(second.instructions, held[0]))
        assert b.layout is not second.layout
        for operand, addrs in second.layout._copies.items():
            assert all(x is y for x, y in zip(addrs, held[1][operand]))

    def test_editing_a_view_poisons_neither_tier_nor_other_views(
            self, tmp_path):
        key, program = self.compiled()
        want = analyze_trace(program.instructions, program.target)
        cache = ArtifactCache(tmp_path)
        cache.put(key, program)
        edited, other = cache.get(key), cache.get(key)
        edited.instructions.clear()
        edited.pass_events.clear()
        assert other.metrics == want
        assert other.instructions == program.instructions
        assert cache.get(key).instructions == program.instructions
        cold = ArtifactCache(tmp_path).get(key)
        assert cold.instructions == program.instructions
        assert cold.metrics == want

    @staticmethod
    def assert_table_matches_tier(cache):
        """The intern table counts exactly the values live entries hold."""
        import collections
        import itertools

        holds = collections.Counter(
            value for entry, _ in cache._memory.values()
            for value in itertools.chain(entry.instructions,
                                         *entry.layout._copies.values()))
        assert {value: slot[1] for value, slot in
                cache._interned.items()} == dict(holds)
        assert set(cache._known_lines) == {
            value.to_text() for value in holds if hasattr(value, "to_text")}

    def test_intern_table_holds_only_live_entries(self, tmp_path,
                                                  monkeypatch):
        from repro.core import cache as cache_module

        monkeypatch.setattr(cache_module, "MEMORY_ENTRIES", 2)
        target, config = small_target(), CompilerConfig()
        compiler = SherlockCompiler(target, config, cache=False)
        cache = ArtifactCache(tmp_path)
        for seed in (1, 2, 3, 4):
            cache.put(f"k{seed}", compiler.compile(small_dag(seed=seed)))
            self.assert_table_matches_tier(cache)
        assert "k1" not in cache._memory and len(cache._memory) == 2
        assert ArtifactCache(tmp_path).get("k1") is not None  # disk has it
        other = ArtifactCache(tmp_path)  # a stale entry leaves the tier
        other.put("k4", compiler.compile(small_dag(seed=5)))
        assert cache.get("k4") is not None
        self.assert_table_matches_tier(cache)
        cache.clear()
        assert cache._interned == {} and cache._known_lines == {}

    def test_intern_table_survives_concurrent_puts_and_gets(
            self, tmp_path, monkeypatch):
        import sys

        from repro.core import cache as cache_module

        monkeypatch.setattr(cache_module, "MEMORY_ENTRIES", 3)
        target, config = small_target(), CompilerConfig()
        compiler = SherlockCompiler(target, config, cache=False)
        programs = [compiler.compile(small_dag(seed=seed))
                    for seed in (1, 2, 3)]
        cache = ArtifactCache(tmp_path)

        def worker(index):
            for step in range(40):
                key = f"k{(index + step) % 5}"
                if step % 3 == 0:
                    cache.put(key, programs[step % 3])
                else:
                    cache.get(key)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        self.assert_table_matches_tier(cache)

    def test_golden_v2_artifact_still_loads(self, tmp_path):
        """An entry file written before compact JSON and interning."""
        golden = pathlib.Path(__file__).parent / "golden" \
            / "artifact_v2_serve1.json"
        document = json.loads(golden.read_text())
        target, config = small_target(), CompilerConfig()
        dag = small_dag()
        faults = FaultMap.random_map(target, fraction=0.02, seed=3)
        key = ArtifactCache.key_for(dag, target, config, faults)
        assert document["key"] == key  # program keys are unchanged
        cache = ArtifactCache(tmp_path)
        cache.path_for(key).write_bytes(golden.read_bytes())
        loaded = cache.get(key)
        program = SherlockCompiler(target, config, cache=False,
                                   fault_map=faults).compile(dag)
        assert loaded.instructions == program.instructions
        assert loaded.spare_pool == program.spare_pool
        assert loaded.spare_pool
        inputs = inputs_for(dag)
        assert loaded.execute(inputs, 8, verify_writes=True) == \
            evaluate(dag, inputs, 8)
        assert cache.get(key).instructions == program.instructions


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, recovery_time_s=10,
                                 clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the consecutive count
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1
        assert not breaker.allow()

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_time_s=5,
                                 clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.1)
        assert breaker.allow()  # the probe
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_retrips(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_time_s=5,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2
        assert not breaker.allow()
        clock.advance(5.1)
        assert breaker.allow()

    def test_validation_and_force_open(self):
        with pytest.raises(ServeError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ServeError):
            CircuitBreaker(recovery_time_s=-1)
        breaker = CircuitBreaker()
        breaker.force_open()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1
        breaker.force_open()  # idempotent while open
        assert breaker.trips == 1


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class TestCompileService:
    def test_serves_correct_outputs_and_caches(self, tmp_path):
        dag = small_dag()
        cache = ArtifactCache(tmp_path)
        with CompileService(small_target(), CompilerConfig(),
                            cache=cache, workers=2) as service:
            first = service.submit(request_for(dag, request_id="a")).wait(30)
            second = service.submit(request_for(dag, request_id="b")).wait(30)
        expected = evaluate(dag, inputs_for(dag), 8)
        assert first.outputs == expected and second.outputs == expected
        assert first.engine == "cim" and second.engine == "cim"
        assert not first.cached and second.cached
        assert first.cim_latency_us is not None
        assert first.cpu_latency_us == pytest.approx(
            run_model(dag_events(dag, 8)).latency_us)

    def test_killed_worker_is_retried_and_request_still_served(self):
        dag = small_dag()
        crashes = {"left": 2}

        def chaos(stage, request):
            if stage == "compile" and crashes["left"] > 0:
                crashes["left"] -= 1
                raise WorkerCrashError("worker killed mid-job (chaos)")

        with CompileService(small_target(), CompilerConfig(), workers=1,
                            chaos=chaos, sleep=lambda _s: None) as service:
            result = service.submit(request_for(dag)).wait(30)
        assert result.error is None
        assert result.engine == "cim"
        assert result.outputs == evaluate(dag, inputs_for(dag), 8)
        assert service.stats()["retries"] == 2

    def test_persistent_crash_falls_back_to_cpu_with_correct_outputs(self):
        dag = small_dag()

        def chaos(stage, request):
            raise WorkerCrashError("worker keeps dying")

        with CompileService(small_target(), CompilerConfig(), workers=1,
                            chaos=chaos, sleep=lambda _s: None) as service:
            result = service.submit(request_for(dag)).wait(30)
        assert result.engine == "cpu"
        assert "RetryExhaustedError" in result.offload_reason
        assert result.outputs == evaluate(dag, inputs_for(dag), 8)
        assert service.stats()["cim_failures"] == 1

    def test_overload_sheds_with_structured_error(self):
        dag = small_dag()
        gate = threading.Event()

        def chaos(stage, request):
            gate.wait(10)  # stall the single worker

        service = CompileService(small_target(), CompilerConfig(),
                                 workers=1, queue_limit=1, chaos=chaos)
        try:
            admitted = [service.submit(request_for(dag, request_id="run"))]
            with pytest.raises(ServiceOverloadError) as excinfo:
                for index in range(4):  # worker holds 1, queue holds 1
                    admitted.append(service.submit(
                        request_for(dag, request_id=f"q{index}")))
            error = excinfo.value
            assert error.queue_limit == 1
            assert error.queue_depth >= 1
            assert error.retry_after_s > 0
            assert any("queue depth" in line for line in error.details())
            gate.set()
            for job in admitted:
                assert job.wait(30).outputs is not None
            assert service.stats()["shed"] >= 1
        finally:
            gate.set()
            service.close()

    def test_deadline_miss_counts_and_offloads(self):
        dag = small_dag()
        with CompileService(small_target(), CompilerConfig(), workers=1,
                            deadline_s=0.0) as service:
            result = service.submit(request_for(dag)).wait(30)
        assert result.engine == "cpu"
        assert "DeadlineExceededError" in result.offload_reason
        assert result.outputs == evaluate(dag, inputs_for(dag), 8)
        stats = service.stats()
        assert stats["deadline_misses"] == 1
        assert stats["cim_failures"] == 1

    def test_breaker_trips_to_cpu_and_recovers_half_open(self):
        clock = FakeClock()
        target = TargetSpec.square(8, RERAM, num_arrays=1)
        big = synthetic_dag(num_ops=120, num_inputs=8, seed=2, name="big")
        ok = synthetic_dag(num_ops=4, num_inputs=3, seed=3, name="ok")
        config = CompilerConfig(fallback="strict")
        with CompileService(target, config, workers=1,
                            breaker=CircuitBreaker(failure_threshold=1,
                                                   recovery_time_s=30,
                                                   clock=clock),
                            clock=clock, sleep=lambda _s: None) as service:
            failed = service.submit(request_for(big, request_id="f")).wait(30)
            assert failed.engine == "cpu"  # compile failed, CPU answered
            assert "Error" in failed.offload_reason
            assert failed.outputs == evaluate(big, inputs_for(big), 8)
            assert service.breaker.state is BreakerState.OPEN
            shunted = service.submit(
                request_for(ok, request_id="s")).wait(30)
            assert shunted.engine == "cpu"
            assert shunted.offload_reason == "breaker-open"
            assert shunted.outputs == evaluate(ok, inputs_for(ok), 8)
            clock.advance(31)  # recovery window elapsed: half-open probe
            probe = service.submit(request_for(ok, request_id="p")).wait(30)
            assert probe.engine == "cim"
            assert probe.outputs == evaluate(ok, inputs_for(ok), 8)
            assert service.breaker.state is BreakerState.CLOSED
        assert service.stats()["breaker"]["trips"] == 1

    def test_degraded_capacity_offloads(self):
        dag = small_dag()
        target = small_target()
        mostly_dead = FaultMap.random_map(target, 0.6, seed=1)
        with CompileService(target, CompilerConfig(), workers=1,
                            fault_maps={0: mostly_dead}) as service:
            result = service.submit(request_for(dag)).wait(30)
        assert result.engine == "cpu"
        assert result.offload_reason.startswith("degraded-capacity")
        assert result.outputs == evaluate(dag, inputs_for(dag), 8)
        assert service.breaker.state is BreakerState.OPEN

    def test_remap_rung_runs_inside_the_service_loop(self, tmp_path):
        """A runtime hard fault remaps, republishes, and still answers."""
        clear_compile_cache()
        target, config, dag = small_target(), CompilerConfig(), small_dag()
        reference = SherlockCompiler(target, config,
                                     cache=False).compile(dag)
        # ground truth: a cell holding a *programmed* output value is
        # stuck, at the opposite polarity of the value the schedule
        # writes there, so verify-after-write fails its read-back
        # deterministically (input preloads bounce off faulty cells
        # silently by design, so an input cell would not do)
        inputs = inputs_for(dag)
        expected = evaluate(dag, inputs, 8)
        name, value = next((n, v) for n, v in expected.items()
                           if v not in (0, 0xFF))
        victim = reference.layout.placements()[dag.outputs[name]][0]
        ground = FaultMap()
        ground.set_fault(victim.array, victim.row, victim.col,
                         CellFault.STUCK0 if value else CellFault.STUCK1)
        cache = ArtifactCache(tmp_path)
        with CompileService(target, config, cache=cache, workers=1,
                            machine_faults={0: ground},
                            spare_cells=False) as service:
            request = ServeRequest(dag=dag, inputs=inputs, lanes=8,
                                   request_id="remap-me")
            result = service.submit(request).wait(30)
            assert result.error is None
            assert result.engine == "cim"
            assert result.remapped
            assert result.degradation == "remap"
            assert result.outputs == evaluate(dag, inputs, 8)
            # the fleet's known map learned the discovered fault
            learned = service.fault_map_of(0)
            assert learned is not None
            assert not learned.is_healthy(victim.array, victim.row,
                                          victim.col)
            # the remapped artifact was published for the whole fleet:
            # the next identical request is a cache hit, no second remap
            again = service.submit(ServeRequest(
                dag=dag, inputs=inputs, lanes=8,
                request_id="cached")).wait(30)
            assert again.error is None
            assert again.cached and not again.remapped
            assert again.outputs == evaluate(dag, inputs, 8)
        assert service.stats()["remaps"] == 1

    def test_chaos_acceptance(self, tmp_path):
        """Corrupt the cache mid-run AND kill a worker mid-job.

        Every request must still come back bit-identical to the reference
        evaluator, and the stats surface must show the quarantine and the
        retry.
        """
        dags = [small_dag(seed=s, ops=12 + s) for s in (1, 2, 3)]
        cache = ArtifactCache(tmp_path)
        target, config = small_target(), CompilerConfig()
        kills = {"left": 1}

        def chaos(stage, request):
            if stage == "execute" and kills["left"] > 0:
                kills["left"] -= 1
                raise WorkerCrashError("chaos kill mid-job")

        def check(results, dags):
            for result, dag in zip(results, dags):
                assert result.error is None
                assert result.outputs == evaluate(dag, inputs_for(dag), 8)

        with CompileService(target, config, cache=cache, workers=2,
                            chaos=chaos, sleep=lambda _s: None) as service:
            check(service.process([request_for(d) for d in dags]), dags)
            # corrupt one published entry mid-run
            key = ArtifactCache.key_for(dags[0], target, config)
            path = cache.path_for(key)
            path.write_text(path.read_text()[:25])
            check(service.process([request_for(d) for d in dags]), dags)
            check(service.process([request_for(d) for d in dags]), dags)
        stats = service.stats()
        assert stats["cache"]["quarantined"] == 1
        assert stats["retries"] == 1
        assert stats["cache"]["hits"] >= 3  # cached serving did happen
        assert stats["errors"] == 0
        assert stats["completed"] == 9

    def test_closed_service_is_freed_by_reference_counting(self, tmp_path):
        """Its artifact tier does not wait for the cycle collector."""
        import gc
        import weakref

        cache = ArtifactCache(tmp_path)
        service = CompileService(small_target(), CompilerConfig(),
                                 cache=cache, workers=1)
        assert service.process([request_for(small_dag())])[0].error is None
        service.close()
        alive = weakref.ref(service)
        gc.disable()
        try:
            del service
            assert alive() is None
        finally:
            gc.enable()

    def test_overlapping_identical_misses_compile_once(self, tmp_path,
                                                       monkeypatch):
        compiles = []
        compile_dag = SherlockCompiler.compile

        def slow_compile(self, dag):
            compiles.append(dag.name)
            time.sleep(0.3)
            return compile_dag(self, dag)

        monkeypatch.setattr(SherlockCompiler, "compile", slow_compile)
        dag = small_dag(seed=7)
        cache = ArtifactCache(tmp_path)
        requests = [request_for(dag, seed=seed, request_id=f"r{seed}")
                    for seed in (0, 1)]
        with CompileService(small_target(), CompilerConfig(), cache=cache,
                            workers=2) as service:
            results = service.process(requests)
        assert compiles == [dag.name]
        for request, result in zip(requests, results):
            assert result.error is None
            assert result.outputs == evaluate(dag, request.inputs, 8)
        assert sorted(result.cached for result in results) == [False, True]
        assert cache.stats()["hits"] == 1


class TestStatsSchema:
    """Pins the ``CompileService.stats()`` surface.

    ``perfbench/serve_mixed.py`` and :meth:`CompileService.stats_text`
    read these keys by name, so the set must not drift silently.
    """

    TOP_LEVEL = {
        "requests", "completed", "cim_served", "cpu_served", "shed",
        "retries", "remaps", "proactive_recompiles", "deadline_misses",
        "cim_failures", "errors", "queue_high_water", "votes",
        "vote_disagreements", "placement_shifts", "placements",
        *(f"{stage}_p{q}_ms" for stage in ("compile", "execute", "total")
          for q in (50, 90, 99)),
        "queue_depth", "queue_limit", "workers", "shed_policy", "placement",
        "breaker", "cache", "health", "scrub",
    }
    CACHE = {"hits", "misses", "quarantined", "writes", "evictions",
             "entries"}
    BREAKER = {"state", "trips", "consecutive_failures"}
    SCRUB = {"passes", "cells_probed", "latent_faults_found", "sweeps",
             "arrays"}
    HEALTH = {"baseline", "degraded", "quarantined", "recovered",
              "breaker_trips", "vote_disagreements", "arrays",
              "transitions"}
    HEALTH_ARRAY = {"state", "failure_rate", "window_rate", "samples",
                    "probes", "retries", "faults_discovered", "hard_faults",
                    "transitions", "scrub_probes", "scrub_faults",
                    "vote_disagreements"}

    def test_key_sets_and_counters(self, tmp_path):
        from repro.serve import ScrubPolicy

        dag = small_dag()
        crashes = {"left": 1}

        def chaos(stage, request):
            if stage == "compile" and crashes["left"] > 0:
                crashes["left"] -= 1
                raise WorkerCrashError("worker killed mid-job (chaos)")

        fleet = {0: FaultMap(), 1: FaultMap()}
        with CompileService(small_target(), CompilerConfig(),
                            cache=ArtifactCache(tmp_path), workers=1,
                            queue_limit=4, machine_faults=fleet,
                            scrub=ScrubPolicy(budget=32), chaos=chaos,
                            sleep=lambda _s: None) as service:
            service.process([
                request_for(dag, request_id="single"),
                request_for(dag, request_id="voted", redundancy=3),
                ServeRequest(dag=dag, inputs={}, lanes=8, request_id="batch",
                             input_sets=[inputs_for(dag, seed=s)
                                         for s in range(3)]),
            ])
            service.scrub()
            stats = service.stats()
        assert set(stats) == self.TOP_LEVEL
        assert set(stats["cache"]) == self.CACHE
        assert set(stats["breaker"]) == self.BREAKER
        assert set(stats["scrub"]) == self.SCRUB
        assert set(stats["health"]) == self.HEALTH
        assert set(stats["health"]["arrays"]) == {0, 1}
        for entry in stats["health"]["arrays"].values():
            assert set(entry) == self.HEALTH_ARRAY
        counters = {key: stats[key] for key in (
            "requests", "completed", "cim_served", "cpu_served", "shed",
            "retries", "remaps", "deadline_misses", "cim_failures",
            "errors", "votes", "vote_disagreements", "queue_limit",
            "workers", "queue_depth")}
        assert counters == {
            "requests": 3, "completed": 3, "cim_served": 3, "cpu_served": 0,
            "shed": 0, "retries": 1, "remaps": 0, "deadline_misses": 0,
            "cim_failures": 0, "errors": 0, "votes": 1,
            "vote_disagreements": 0, "queue_limit": 4, "workers": 1,
            "queue_depth": 0}
        assert 1 <= stats["queue_high_water"] <= 3
        assert stats["cache"]["writes"] == 1 and stats["cache"]["hits"] == 2
        assert stats["scrub"]["passes"] == 1
        assert stats["scrub"]["cells_probed"] == 32
        assert stats["breaker"]["state"] == "closed"
        for stage in ("compile", "execute", "total"):
            p50, p90, p99 = (stats[f"{stage}_p{q}_ms"] for q in (50, 90, 99))
            assert 0.0 <= p50 <= p90 <= p99
        assert stats["total_p50_ms"] > 0.0
        text = service.stats_text()
        assert "  retries: 1" in text and "  votes: 1" in text
        assert "scrub: passes=1" in text and "  array 1: state=" in text


# ----------------------------------------------------------------------
# request parsing, batch mode, TCP mode, CLI
# ----------------------------------------------------------------------
class TestServer:
    def test_parse_kernel_request(self):
        request = parse_request({
            "id": "k1",
            "kernel": "int f(int a, int b) { return a & (b | a); }",
            "inputs": {"a": 5, "b": 3}, "lanes": 8, "array_id": 2})
        assert request.request_id == "k1"
        assert request.array_id == 2
        assert request.inputs == {"a": 5, "b": 3}
        assert evaluate(request.dag, request.inputs, 8)

    def test_parse_fills_missing_inputs_reproducibly(self):
        obj = {"synthetic": 10, "seed": 5}
        first = parse_request(obj)
        second = parse_request(obj)
        assert first.inputs == second.inputs
        assert len(first.inputs) == len(list(first.dag.inputs()))

    @pytest.mark.parametrize("bad", [
        {},  # no kernel source at all
        {"kernel": "int f(int a){return a;}", "workload": "bitweaving"},
        {"synthetic": 0},
        {"synthetic": 4, "lanes": 0},
        {"synthetic": 4, "inputs": {"i0": "not-a-bitmask"}},
        "not an object",
    ])
    def test_parse_rejects_malformed_requests(self, bad):
        with pytest.raises(ServeError):
            parse_request(bad)

    def test_request_file_batch_mode(self, tmp_path):
        requests_path = tmp_path / "requests.jsonl"
        requests_path.write_text(
            "# two requests, one per line\n"
            '{"id": "r1", "synthetic": 10, "seed": 4, "lanes": 8}\n'
            '{"id": "r2", "kernel": "int f(int a, int b)'
            ' { return a ^ b; }", "inputs": {"a": 9, "b": 12},'
            ' "lanes": 8}\n')
        with CompileService(small_target(), CompilerConfig(),
                            workers=2) as service:
            results = handle_request_file(service, requests_path)
        assert [r.request_id for r in results] == ["r1", "r2"]
        assert results[1].outputs == {"return": 9 ^ 12}
        assert all(r.error is None for r in results)

    def test_tcp_server_round_trip(self):
        with CompileService(small_target(), CompilerConfig(),
                            workers=1) as service:
            server = serve_tcp(service, port=0)
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            try:
                host, port = server.server_address[:2]
                with socket.create_connection((host, port), timeout=10) as s:
                    handle = s.makefile("rw", encoding="utf-8")
                    handle.write(json.dumps(
                        {"id": "t1", "kernel":
                         "int f(int a, int b) { return a | b; }",
                         "inputs": {"a": 1, "b": 6}, "lanes": 8}) + "\n")
                    handle.flush()
                    answer = json.loads(handle.readline())
                    assert answer["outputs"] == {"return": 7}
                    assert answer["error"] is None
                    handle.write(json.dumps({"cmd": "stats"}) + "\n")
                    handle.flush()
                    stats = json.loads(handle.readline())
                    assert stats["completed"] == 1
                    handle.write("nonsense\n")
                    handle.flush()
                    broken = json.loads(handle.readline())
                    assert "error" in broken
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)

    def test_cli_serve_batch_with_stats(self, tmp_path, capsys):
        requests_path = tmp_path / "requests.jsonl"
        requests_path.write_text(
            '{"id": "c1", "synthetic": 10, "seed": 2, "lanes": 8}\n'
            '{"id": "c2", "synthetic": 10, "seed": 2, "lanes": 8}\n')
        # one worker: the identical requests resolve in queue order, so
        # c1 deterministically compiles and c2 deterministically hits
        code = main(["serve", "--requests", str(requests_path),
                     "--cache-dir", str(tmp_path / "cache"),
                     "--size", "64", "--arrays", "2", "--workers", "1",
                     "--stats"])
        assert code == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in
                 captured.out.strip().splitlines()]
        assert [r["request_id"] for r in lines] == ["c1", "c2"]
        assert lines[0]["outputs"] == lines[1]["outputs"]
        assert not lines[0]["cached"] and lines[1]["cached"]
        assert "breaker: state=closed" in captured.err
        assert "artifact cache:" in captured.err

    def test_cli_serve_needs_exactly_one_mode(self, capsys):
        assert main(["serve"]) == 1
        assert "exactly one of" in capsys.readouterr().err

    def test_artifact_schema_tag_is_stable(self):
        assert ARTIFACT_SCHEMA == "sherlock-artifact/v1"


# ----------------------------------------------------------------------
# artifact-cache eviction (LRU size bounds)
# ----------------------------------------------------------------------
class TestCacheEviction:
    @staticmethod
    def fill(cache, seeds):
        """Publish one entry per seed; returns {seed: (key, path)}."""
        target, config = small_target(), CompilerConfig()
        entries = {}
        for age, seed in enumerate(seeds):
            dag = small_dag(seed=seed)
            program = SherlockCompiler(target, config,
                                       cache=False).compile(dag)
            key = ArtifactCache.key_for(dag, target, config)
            path = cache.put(key, program)
            # explicit mtimes make the LRU order filesystem-independent
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
            entries[seed] = (key, path)
        return entries

    def test_rejects_non_positive_bounds(self, tmp_path):
        with pytest.raises(SherlockError):
            ArtifactCache(tmp_path, max_entries=0)
        with pytest.raises(SherlockError):
            ArtifactCache(tmp_path, max_bytes=0)

    def test_max_entries_evicts_the_oldest(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_entries=2)
        entries = self.fill(cache, [1, 2])
        os.utime(entries[2][1], (2_000_000, 2_000_000))
        self.fill(cache, [3])
        assert not entries[1][1].exists()  # oldest mtime lost
        assert cache.get(entries[2][0]) is not None
        assert cache.evictions == 1
        assert cache.stats()["entries"] == 2
        assert cache.stats()["evictions"] == 1

    def test_hit_refreshes_recency(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_entries=2)
        entries = self.fill(cache, [1, 2])  # 1 older than 2
        assert cache.get(entries[1][0]) is not None  # touch 1: now newest
        self.fill(cache, [3])
        assert entries[1][1].exists()
        assert not entries[2][1].exists()  # 2 became the LRU victim

    def test_max_bytes_bound(self, tmp_path):
        probe = ArtifactCache(tmp_path / "probe")
        size = self.fill(probe, [1])[1][1].stat().st_size
        cache = ArtifactCache(tmp_path / "real",
                              max_bytes=int(size * 1.5))
        entries = self.fill(cache, [1, 2])
        assert not entries[1][1].exists()
        assert entries[2][1].exists()
        assert cache.evictions == 1

    def test_never_evicts_the_fresh_entry(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=1)  # below any entry
        entries = self.fill(cache, [1])
        assert entries[1][1].exists()  # protected despite the bound
        assert cache.get(entries[1][0]) is not None
        assert cache.evictions == 0


# ----------------------------------------------------------------------
# circuit-breaker edges
# ----------------------------------------------------------------------
class TestCircuitBreakerEdges:
    def test_half_open_failure_resets_the_full_backoff(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_time_s=5,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()  # the probe
        breaker.record_failure()  # probe fails: re-trip
        assert breaker.state is BreakerState.OPEN
        clock.advance(4.9)
        assert not breaker.allow()  # backoff restarted, not resumed
        clock.advance(0.2)
        assert breaker.allow()

    def test_force_open_while_half_open(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_time_s=5,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.force_open()
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2
        assert not breaker.allow()

    def test_exactly_one_concurrent_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_time_s=5,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(5.1)
        admitted = []
        barrier = threading.Barrier(8)

        def prober():
            barrier.wait()
            if breaker.allow():
                admitted.append(threading.get_ident())

        threads = [threading.Thread(target=prober) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert len(admitted) == 1
        assert breaker.state is BreakerState.HALF_OPEN


# ----------------------------------------------------------------------
# TCP front-end hardening
# ----------------------------------------------------------------------
class TestServerHardening:
    def serve(self, service, **kwargs):
        server = serve_tcp(service, port=0, **kwargs)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return server, thread

    def test_oversized_request_answers_error_and_connection_survives(self):
        with CompileService(small_target(), CompilerConfig(),
                            workers=1) as service:
            server, thread = self.serve(service, max_request_bytes=512)
            try:
                host, port = server.server_address[:2]
                with socket.create_connection((host, port), timeout=10) as s:
                    handle = s.makefile("rw", encoding="utf-8")
                    handle.write("x" * 2048 + "\n")
                    handle.flush()
                    answer = json.loads(handle.readline())
                    assert answer["oversized"] is True
                    assert "512 bytes" in answer["error"]
                    # the same connection still serves real requests
                    handle.write(json.dumps(
                        {"id": "ok", "kernel":
                         "int f(int a, int b) { return a & b; }",
                         "inputs": {"a": 6, "b": 3}, "lanes": 8}) + "\n")
                    handle.flush()
                    result = json.loads(handle.readline())
                    assert result["outputs"] == {"return": 2}
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)

    def test_malformed_json_is_a_structured_error(self):
        with CompileService(small_target(), CompilerConfig(),
                            workers=1) as service:
            server, thread = self.serve(service)
            try:
                host, port = server.server_address[:2]
                with socket.create_connection((host, port), timeout=10) as s:
                    handle = s.makefile("rw", encoding="utf-8")
                    for bad in ('{"unterminated": ', "[1, 2, 3]",
                                '"just-a-string"'):
                        handle.write(bad + "\n")
                        handle.flush()
                        answer = json.loads(handle.readline())
                        assert "error" in answer
                    handle.write(json.dumps({"cmd": "stats"}) + "\n")
                    handle.flush()
                    stats = json.loads(handle.readline())
                    assert "completed" in stats
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)

    def test_rejects_non_positive_size_bound(self):
        with CompileService(small_target(), CompilerConfig(),
                            workers=1) as service:
            with pytest.raises(ServeError):
                serve_tcp(service, port=0, max_request_bytes=0)


# ----------------------------------------------------------------------
# serve CLI flag validation
# ----------------------------------------------------------------------
class TestServeCliValidation:
    @pytest.mark.parametrize("flag,value,needle", [
        ("--workers", "0", "positive integer"),
        ("--workers", "-3", "positive integer"),
        ("--queue-limit", "0", "positive integer"),
        ("--deadline", "0", "positive number of seconds"),
        ("--deadline", "-1.5", "positive number of seconds"),
        ("--deadline", "soon", "expected a number"),
    ])
    def test_non_positive_serve_flags_exit_2(self, capsys, flag, value,
                                             needle):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", flag, value])
        assert excinfo.value.code == 2
        assert needle in capsys.readouterr().err


# ----------------------------------------------------------------------
# active integrity: shed policies, placement, voting, scrubbing
# ----------------------------------------------------------------------
class TestShedPolicies:
    def _stalled(self, shed_policy, queue_limit=1):
        gate = threading.Event()

        def chaos(stage, request):
            gate.wait(10)

        service = CompileService(small_target(), CompilerConfig(),
                                 workers=1, queue_limit=queue_limit,
                                 shed_policy=shed_policy, chaos=chaos)
        return service, gate

    @staticmethod
    def _settle(service):
        """Wait for the stalled worker to hold its job off the queue."""
        import time as _time
        deadline = _time.monotonic() + 5.0
        while service.stats()["queue_depth"] > 0:
            if _time.monotonic() > deadline:
                raise AssertionError("worker never picked up the job")
            _time.sleep(0.005)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ServeError):
            CompileService(small_target(), shed_policy="coin-flip")

    def test_reject_error_carries_the_policy(self):
        dag = small_dag()
        service, gate = self._stalled("reject")
        try:
            service.submit(request_for(dag, request_id="run"))
            self._settle(service)
            queued = service.submit(request_for(dag, request_id="q"))
            with pytest.raises(ServiceOverloadError) as excinfo:
                service.submit(request_for(dag, request_id="shed-me"))
            assert excinfo.value.shed_policy == "reject"
            assert any("shed policy: reject" in line
                       for line in excinfo.value.details())
            gate.set()
            assert queued.wait(30).outputs is not None
        finally:
            gate.set()
            service.close()

    def test_oldest_policy_evicts_the_queue_head(self):
        dag = small_dag()
        service, gate = self._stalled("oldest")
        try:
            running = service.submit(request_for(dag, request_id="run"))
            self._settle(service)
            old = service.submit(request_for(dag, request_id="old"))
            new = service.submit(request_for(dag, request_id="new"))
            evicted = old.wait(5)  # completed immediately with a shed result
            assert evicted.shed and evicted.outputs is None
            assert "shed by admission control" in evicted.error
            assert "policy oldest" in evicted.error
            gate.set()
            assert running.wait(30).outputs is not None
            assert new.wait(30).outputs is not None
            assert service.stats()["shed"] == 1
        finally:
            gate.set()
            service.close()

    def test_deadline_policy_evicts_the_least_slack_job(self):
        dag = small_dag()
        service, gate = self._stalled("deadline", queue_limit=2)
        try:
            running = service.submit(request_for(dag, request_id="run"))
            self._settle(service)
            tight = service.submit(request_for(dag, request_id="tight",
                                               deadline_s=0.5))
            loose = service.submit(request_for(dag, request_id="loose",
                                               deadline_s=60.0))
            new = service.submit(request_for(dag, request_id="new"))
            evicted = tight.wait(5)
            assert evicted.shed and "policy deadline" in evicted.error
            gate.set()
            for job in (running, loose, new):
                assert job.wait(30).outputs is not None
        finally:
            gate.set()
            service.close()

    def test_deadline_policy_rejects_when_nothing_has_a_deadline(self):
        dag = small_dag()
        service, gate = self._stalled("deadline")
        try:
            service.submit(request_for(dag, request_id="run"))
            self._settle(service)
            queued = service.submit(request_for(dag, request_id="q"))
            with pytest.raises(ServiceOverloadError) as excinfo:
                service.submit(request_for(dag, request_id="shed-me"))
            assert excinfo.value.shed_policy == "deadline"
            gate.set()
            assert queued.wait(30).outputs is not None
        finally:
            gate.set()
            service.close()

    def test_stats_surface_names_the_policy(self):
        with CompileService(small_target(),
                            shed_policy="oldest") as service:
            assert service.stats()["shed_policy"] == "oldest"
            assert "shed_policy: oldest" in service.stats_text()


class TestHealthAwarePlacement:
    def test_rejects_unknown_placement(self):
        with pytest.raises(ServeError):
            CompileService(small_target(), placement="astrology")

    def test_sticky_placement_never_moves(self):
        from repro.serve import ArrayHealth

        dag = small_dag()
        fleet = {0: FaultMap(), 1: FaultMap()}
        with CompileService(small_target(), workers=1,
                            machine_faults=fleet) as service:
            service.health.force_state(0, ArrayHealth.DEGRADED)
            result = service.process([request_for(dag, array_id=0)])[0]
            assert result.placed_array == 0
            assert service.stats()["placement_shifts"] == 0

    def test_degraded_array_sheds_traffic_to_a_healthy_peer(self):
        from repro.serve import ArrayHealth

        dag = small_dag()
        fleet = {0: FaultMap(), 1: FaultMap()}
        with CompileService(small_target(), workers=1,
                            machine_faults=fleet,
                            placement="health") as service:
            service.health.force_state(0, ArrayHealth.DEGRADED)
            moved = service.process([request_for(dag, array_id=0)])[0]
            assert moved.error is None and moved.engine == "cim"
            assert moved.array_id == 0 and moved.placed_array == 1
            assert moved.outputs == evaluate(dag, inputs_for(dag), 8)
            stats = service.stats()
            assert stats["placement_shifts"] == 1
            assert stats["placements"] == {1: 1}
            assert "placement: health" in service.stats_text()
            # after recovery the requested array wins ties again
            service.health.force_state(0, ArrayHealth.HEALTHY)
            back = service.process([request_for(dag, array_id=0)])[0]
            assert back.placed_array == 0

    def test_quarantined_requested_array_stays_for_probation(self):
        from repro.serve import ArrayHealth

        from repro.serve import HealthPolicy

        clock = FakeClock()
        policy = HealthPolicy(min_samples=1, probation_period_s=5.0,
                              probation_successes=1)
        dag = small_dag()
        fleet = {0: FaultMap(), 1: FaultMap()}
        with CompileService(small_target(), workers=1, clock=clock,
                            machine_faults=fleet, placement="health",
                            health_policy=policy) as service:
            service.health.force_state(0, ArrayHealth.QUARANTINED)
            # during the cool-down the offload gate answers from the CPU
            parked = service.process([request_for(dag, array_id=0)])[0]
            assert parked.engine == "cpu"
            assert "quarantined" in parked.offload_reason
            # after it, the probe must hit array 0 itself — placement
            # does not steal the probe traffic probation needs
            clock.advance(5.1)
            probe = service.process([request_for(dag, array_id=0)])[0]
            assert probe.engine == "cim" and probe.placed_array == 0
            from repro.serve import ArrayHealth as AH
            assert service.health.state_of(0) is AH.HEALTHY


class TestVotedExecution:
    def test_rejects_non_positive_redundancy(self):
        dag = small_dag()
        with CompileService(small_target(), workers=1) as service:
            with pytest.raises(ServeError):
                service.submit(request_for(dag, redundancy=0))

    def test_unanimous_vote_is_bit_identical(self):
        dag = small_dag()
        fleet = {0: FaultMap(), 1: FaultMap()}
        with CompileService(small_target(), workers=1,
                            machine_faults=fleet) as service:
            result = service.process([request_for(dag, redundancy=3)])[0]
        assert result.error is None and result.voted
        assert result.outputs == evaluate(dag, inputs_for(dag), 8)
        assert list(result.voters) == [0, 1, "cpu"]  # referee fills to 3
        assert result.disagreeing == ()

    def test_outvoted_minority_is_reported_and_penalized(self):
        from repro.util import latent_victims

        dag = small_dag()
        target, config = small_target(), CompilerConfig()
        program = SherlockCompiler(target, config, cache=False).compile(dag)
        inputs = inputs_for(dag)
        victims = latent_victims(program, dag, inputs, 8, count=1)
        poisoned = FaultMap()
        poisoned.set_fault(*victims[0], CellFault.STUCK0)
        fleet = {0: FaultMap(), 1: poisoned}
        with CompileService(target, config, workers=1,
                            machine_faults=fleet) as service:
            result = service.process([request_for(dag, redundancy=3)])[0]
            health = service.stats()["health"]["arrays"]
        assert result.error is None and result.voted
        # the corrupted voter is outvoted; the answer stays bit-identical
        assert result.outputs == evaluate(dag, inputs, 8)
        assert result.disagreeing == (1,)
        assert health[1]["vote_disagreements"] == 1
        stats = service.stats()
        assert stats["votes"] == 1 and stats["vote_disagreements"] == 1

    @pytest.mark.parametrize("engine", ["vectorized", "interpreted"])
    def test_batch_votes_per_input_set_on_both_engines(self, engine):
        # the served vote is bit-identical to the compiled program run
        # directly on either execution engine
        from repro.dfg.evaluate import evaluate_many

        dag = small_dag()
        target, config = small_target(), CompilerConfig()
        sets = [inputs_for(dag, seed=s) for s in range(4)]
        fleet = {0: FaultMap(), 1: FaultMap()}
        with CompileService(target, config, workers=1,
                            machine_faults=fleet) as service:
            result = service.process([ServeRequest(
                dag=dag, inputs=sets[0], input_sets=sets, lanes=8,
                redundancy=3, request_id="batch")])[0]
        assert result.error is None and result.voted
        assert result.outputs is None
        assert result.batch_outputs == evaluate_many(dag, sets, 8)
        assert result.disagreeing == ()
        program = SherlockCompiler(target, config, cache=False).compile(dag)
        assert result.batch_outputs == program.execute_many(
            sets, 8, engine=engine)

    def test_batch_outvotes_a_poisoned_voter_differentially(self):
        from repro.dfg.evaluate import evaluate_many
        from repro.util import latent_victims

        dag = small_dag()
        target, config = small_target(), CompilerConfig()
        program = SherlockCompiler(target, config, cache=False).compile(dag)
        sets = [inputs_for(dag, seed=s) for s in range(3)]
        live = next(s for s in sets if any(s.values()))
        victims = latent_victims(program, dag, live, 8, count=1)
        poisoned = FaultMap()
        poisoned.set_fault(*victims[0], CellFault.STUCK0)
        fleet = {0: FaultMap(), 1: poisoned}
        with CompileService(target, config, workers=1,
                            machine_faults=fleet) as service:
            result = service.process([ServeRequest(
                dag=dag, inputs=sets[0], input_sets=sets, lanes=8,
                redundancy=3, request_id="batch")])[0]
        assert result.error is None
        assert result.batch_outputs == evaluate_many(dag, sets, 8)

    def test_parse_request_carries_redundancy(self):
        request = parse_request({"synthetic": 8, "redundancy": 2})
        assert request.redundancy == 2
        with pytest.raises(ServeError):
            parse_request({"synthetic": 8, "redundancy": 0})


class TestServiceScrub:
    def test_scrub_discovers_merges_and_feeds_health(self):
        from repro.serve import ScrubPolicy

        target = small_target()
        ground = FaultMap()
        ground.set_fault(0, 5, 7, CellFault.STUCK0)
        fleet = {0: ground, 1: FaultMap()}
        space = target.num_arrays * target.rows * target.cols
        with CompileService(target, machine_faults=fleet,
                            scrub=ScrubPolicy(budget=2 * space)) as service:
            report = service.scrub()
            assert report.latent_faults_found == 1
            # the discovery is merged into the known map: a second pass
            # has nothing latent left to find
            assert service.scrub().latent_faults_found == 0
            stats = service.stats()
        assert stats["scrub"]["passes"] == 2
        assert stats["scrub"]["latent_faults_found"] == 1
        assert stats["health"]["arrays"][0]["scrub_faults"] == 1
        assert "scrub: passes=2" in service.stats_text()

    def test_autoscrub_runs_on_the_request_cadence(self):
        from repro.serve import ScrubPolicy

        dag = small_dag()
        fleet = {0: FaultMap()}
        with CompileService(small_target(), workers=1,
                            machine_faults=fleet,
                            scrub=ScrubPolicy(budget=32,
                                              every_requests=2)) as service:
            for index in range(4):
                service.process([request_for(dag, request_id=str(index))])
            stats = service.stats()
        assert stats["scrub"]["passes"] == 2
        assert stats["scrub"]["cells_probed"] == 64


# ----------------------------------------------------------------------
# admission: malformed requests are refused, not CIM failures
# ----------------------------------------------------------------------
class TestAdmission:
    def test_malformed_requests_are_refused_at_submit(self):
        dag = small_dag()
        good = inputs_for(dag)
        name = sorted(good)[0]
        missing = {k: v for k, v in good.items() if k != name}
        # three CIM failures open the breaker: were these admitted, the
        # good request after them would be offloaded to the CPU
        malformed = [ServeRequest(dag=dag, inputs=good, lanes=0)] * 3 + [
            ServeRequest(dag=dag, inputs=missing, lanes=8),
            ServeRequest(dag=dag, inputs={**good, "nope": 1}, lanes=8),
            ServeRequest(dag=dag, inputs={**good, name: 1 << 8}, lanes=8),
            ServeRequest(dag=dag, inputs={**good, name: -1}, lanes=8),
            ServeRequest(dag=dag, inputs={}, lanes=8,
                         input_sets=[good, {**good, name: 1 << 8}]),
        ]
        with CompileService(small_target(), workers=1) as service:
            for request in malformed:
                with pytest.raises(ServeError):
                    service.submit(request)
            result = service.process([request_for(dag)])[0]
            stats = service.stats()
        assert result.engine == "cim" and result.offload_reason is None
        assert result.outputs == evaluate(dag, good, 8)
        assert stats["cim_failures"] == 0 and stats["requests"] == 1
        assert stats["breaker"]["state"] == "closed"

    def test_process_refuses_the_call_before_queueing_any_request(self):
        dag = small_dag()
        with CompileService(small_target(), workers=1) as service:
            with pytest.raises(ServeError):
                service.process([request_for(dag),
                                 request_for(dag, lanes=0)])
            stats = service.stats()
        assert stats["requests"] == 0 and stats["completed"] == 0


# ----------------------------------------------------------------------
# one request path: single, batch and voted requests alike
# ----------------------------------------------------------------------
MODES = ("single", "batch", "voted-single", "voted-batch")


def _stuck_under_a_write(dag, inputs):
    """Ground truth with an unknown STUCK0 under a cell the program writes."""
    from repro.util import write_victims

    program = SherlockCompiler(small_target(), CompilerConfig(),
                               cache=False).compile(dag)
    ground = FaultMap()
    ground.set_fault(*write_victims(program, dag, inputs, 8)[0],
                     CellFault.STUCK0)
    return ground


def _serve_mode(dag, mode, sets, faulted):
    """Serve one request of ``mode`` on array 0 (without spare cells)."""
    ground = _stuck_under_a_write(dag, sets[0]) if faulted else FaultMap()
    request = ServeRequest(
        dag=dag, inputs=sets[0], lanes=8, request_id=mode,
        input_sets=sets if mode.endswith("batch") else None,
        redundancy=3 if mode.startswith("voted") else 1)
    with CompileService(small_target(), workers=1, spare_cells=False,
                        machine_faults={0: ground, 1: FaultMap()}
                        ) as service:
        result = service.process([request])[0]
        known = service.fault_map_of(0) or FaultMap()
        stats = service.stats()
    return result, stats, sorted(cell for cell, _ in known.cells())


class TestServeDifferential:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["clean", "stuck-at"])
    @pytest.mark.parametrize("mode", MODES)
    def test_every_answer_matches_the_reference(self, mode, faulted, seed):
        from repro.dfg.evaluate import evaluate_many

        dag = small_dag(seed=seed)
        sets = [inputs_for(dag, seed=s) for s in range(4)]
        result, stats, _known = _serve_mode(dag, mode, sets, faulted)
        assert result.error is None and result.engine == "cim"
        batch = mode.endswith("batch")
        got = result.batch_outputs if batch else [result.outputs]
        assert got == evaluate_many(dag, sets if batch else sets[:1], 8)
        voted = mode.startswith("voted")
        assert result.voted == voted
        # a plain request remaps around the stuck cell; a voted panel drops
        # the hard-faulting voter instead
        assert result.remapped == (faulted and not voted)
        assert stats["cim_failures"] == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_batch_remaps_like_a_single_request(self, seed):
        dag = small_dag(seed=seed)
        sets = [inputs_for(dag, seed=s) for s in range(4)]
        single, s_stats, s_known = _serve_mode(dag, "single", sets, True)
        batch, b_stats, b_known = _serve_mode(dag, "batch", sets, True)
        assert single.remapped and batch.remapped
        assert s_stats["remaps"] == b_stats["remaps"] == 1
        assert s_known == b_known and len(b_known) == 1
        assert (s_stats["health"]["arrays"][0]["samples"]
                == b_stats["health"]["arrays"][0]["samples"])

    @pytest.mark.parametrize("mode", MODES)
    def test_one_health_sample_per_ballot(self, mode):
        dag = small_dag()
        sets = [inputs_for(dag, seed=s) for s in range(5)]
        _result, stats, _known = _serve_mode(dag, mode, sets, False)
        arrays = stats["health"]["arrays"]
        assert arrays[0]["samples"] == 1
        if mode.startswith("voted"):
            assert arrays[1]["samples"] == 1
