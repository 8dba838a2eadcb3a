"""The compile-and-serve job queue, worker pool, and offload policy.

:class:`CompileService` accepts :class:`ServeRequest`\\ s (a DAG, one or
more sets of lane-bitmask inputs, and the array the request targets),
pushes them through a bounded job queue into a pool of compile workers,
and answers with :class:`ServeResult`\\ s.  Per request the pipeline is:

1. **admission control** — a malformed request is refused with
   :class:`~repro.errors.ServeError`; a full queue sheds it with a structured
   :class:`~repro.errors.ServiceOverloadError` (queue depth, limit, and a
   retry-after hint derived from recent service latency);
2. **compile** — resolve the program through the persistent
   :class:`~repro.serve.cache.ArtifactCache` (corrupt entries quarantine
   and recompile transparently), keyed by the requesting array's current
   fault map, falling back to a fresh fault-aware compile;
3. **execute** — all ``n`` input sets run as one ``n·lanes``-lane word on
   the array's ground-truth machine with verify-after-write; a
   :class:`~repro.errors.HardFaultError` triggers the remap rung *inside
   the service loop*: the discovered faults merge into the fleet's
   per-array map, the program recompiles around them, the new artifact is
   published for the whole fleet, and the request re-executes;
4. **offload** — a :class:`~repro.serve.breaker.CircuitBreaker` counts CIM
   failures (compile errors, exhausted retries, deadline misses); while it
   is open — or when an array's healthy capacity drops below threshold —
   requests are served from the CPU baseline
   (:func:`repro.dfg.evaluate.evaluate` for values,
   :func:`repro.sim.cpu.dag_events` + :func:`repro.sim.cpu.run_model` for
   pricing).  Healthy requests are priced CIM-vs-CPU per request.

Worker crashes (or the injectable ``chaos`` hook standing in for them) are
retried with :func:`repro.util.retry.retry_call` under a bounded
exponential-backoff policy; fatal compiler errors are not retried.  Every
stage is timed, and :meth:`CompileService.stats` exposes the counters and
per-stage latency percentiles behind ``sherlock serve --stats``.

On top of the per-request pipeline sits the **active-integrity layer**:

* ``placement="health"`` steers each request to the cheapest healthy
  fleet member instead of its sticky ``array_id`` (DEGRADED arrays carry
  a ``placement_penalty``, QUARANTINED arrays are skipped entirely until
  probation readmits them) — and ``schedule="multi"`` compiles
  additionally penalize DEGRADED *sub-arrays* through
  ``CompilerConfig.array_penalties``;
* ``ServeRequest(redundancy=K)`` executes on ``K`` arrays, majority-votes
  the outputs per lane (a CPU referee joins when the fleet is thin or the
  panel would be even, and breaks exact ties), answers with the voted
  result, and reports out-voted arrays to the health registry as
  top-weight failure samples;
* a :class:`~repro.serve.scrub.PatrolScrubber` march-tests idle cells in
  the background (:meth:`CompileService.scrub`, or automatically every
  ``ScrubPolicy.every_requests`` completed jobs) so latent faults — the
  ones input preloads hit *silently* — are discovered, merged into the
  known per-array maps, and placed around before a user's answer is
  corrupted;
* ``shed_policy`` picks who loses under overload: ``"reject"`` the
  newcomer (the historical behavior), ``"oldest"`` the head of the queue,
  or ``"deadline"`` the queued job with the least slack left.
"""

from __future__ import annotations

import math
import queue
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.compiler import SherlockCompiler
from repro.core.config import CompilerConfig
from repro.devices.faultmap import FaultMap
from repro.dfg.evaluate import evaluate, evaluate_many
from repro.dfg.stats import structural_hash
from repro.errors import (
    DeadlineExceededError,
    HardFaultError,
    ServeError,
    ServiceOverloadError,
    SherlockError,
    WorkerCrashError,
)
from repro.mapping.partition import run_program
from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import ArtifactCache
from repro.serve.health import (
    ArrayHealth,
    HealthPolicy,
    HealthRegistry,
    subarray_exclusions,
    subarray_penalties,
)
from repro.serve.scrub import PatrolScrubber, ScrubPolicy, ScrubReport
from repro.sim.cpu import CpuSpec, dag_events, run_model
from repro.sim.executor import ArrayMachine
from repro.util.retry import RetryPolicy, retry_call

__all__ = [
    "CompileService",
    "ServeRequest",
    "ServeResult",
    "ServiceStats",
    "VALID_PLACEMENTS",
    "VALID_SHED_POLICIES",
]

#: admission-control policies for a full queue (see ``shed_policy``)
VALID_SHED_POLICIES = ("reject", "oldest", "deadline")
#: compile-targeting policies (see ``placement``)
VALID_PLACEMENTS = ("sticky", "health")


@dataclass
class ServeRequest:
    """One unit of work: execute ``dag`` on its input sets for one array."""

    dag: object
    inputs: dict[str, int]
    lanes: int = 16
    request_id: str = ""
    #: which array of the served fleet the request targets (its fault map
    #: keys the compile)
    array_id: int = 0
    #: wall-clock budget from submission; ``None`` = no deadline
    deadline_s: float | None = None
    #: batch mode: many independent input sets run side by side as one
    #: lane-packed execution (``inputs`` is ignored when set; answers land
    #: in :attr:`ServeResult.batch_outputs`)
    input_sets: list[dict[str, int]] | None = None
    #: voted redundant execution: run on this many arrays and answer with
    #: the per-lane majority (1 = plain single-array execution; a CPU
    #: referee joins thin fleets and breaks even-panel ties)
    redundancy: int = 1


@dataclass
class ServeResult:
    """The service's answer for one request."""

    request_id: str
    outputs: dict[str, int] | None
    #: which engine produced the outputs: "cim" or "cpu"
    engine: str = "cim"
    #: per-set outputs of a batch request (None for single-input requests)
    batch_outputs: list[dict[str, int]] | None = None
    #: whether the program came from the persistent artifact cache
    cached: bool = False
    #: whether the remap rung ran inside the service loop for this request
    remapped: bool = False
    #: the compile's degradation rung ("none" = clean compile)
    degradation: str = "none"
    #: why the request was served from the CPU baseline (None = CIM)
    offload_reason: str | None = None
    #: failure description when not even the CPU baseline could answer
    error: str | None = None
    compile_s: float = 0.0
    execute_s: float = 0.0
    total_s: float = 0.0
    #: modeled one-run CIM latency (None when the CIM path did not run)
    cim_latency_us: float | None = None
    #: modeled CPU-baseline latency for the same work (priced per request)
    cpu_latency_us: float | None = None
    array_id: int = 0
    #: the array health-aware placement actually compiled/executed on
    #: (== ``array_id`` under sticky placement; None for CPU-only answers)
    placed_array: int | None = None
    #: whether the outputs are a redundancy-K majority vote
    voted: bool = False
    #: the voting panel: fleet array ids plus "cpu" for the referee
    voters: tuple = ()
    #: arrays whose ballot the majority out-voted (reported to health)
    disagreeing: tuple = ()
    #: whether admission control evicted this request under overload
    shed: bool = False


def _weak_callback(method):
    """Call a bound ``method`` through a weak reference to its object.

    The health registry's transition callback would otherwise point back
    at the service that owns the registry, and a dropped service would
    wait for the cycle collector, holding its artifact tier until then.
    """
    ref = weakref.WeakMethod(method)

    def call(*args):
        bound = ref()
        if bound is not None:
            bound(*args)

    return call


def _input_sets(request: ServeRequest) -> list[dict[str, int]]:
    """The request's input sets: ``input_sets``, or ``[inputs]``."""
    return request.input_sets or [request.inputs]


def _check_request(request: ServeRequest) -> None:
    """Refuse a malformed request at admission with ``ServeError``.

    Besides ``lanes``/``redundancy`` >= 1 and a non-empty batch, every
    input set must name exactly the DAG's inputs, each an integer in
    ``[0, 2**lanes)`` (the rule of ``evaluate``) — lane packing relies on
    it, so no value can bleed into a neighbouring set's lanes.
    """
    if request.input_sets is not None and not request.input_sets:
        raise ServeError(
            f"batch request {request.request_id!r} has no input sets")
    if request.redundancy < 1:
        raise ServeError(
            f"redundancy must be >= 1, got {request.redundancy}")
    if request.lanes < 1:
        raise ServeError(f"lanes must be >= 1, got {request.lanes}")
    names = {operand.name for operand in request.dag.inputs()}
    limit = 1 << request.lanes
    for inputs in _input_sets(request):
        if inputs.keys() != names:
            raise ServeError(
                f"request {request.request_id!r}: inputs must name exactly "
                f"the DAG's inputs (missing {sorted(names - inputs.keys())}, "
                f"unknown {sorted(inputs.keys() - names)})")
        for name, value in inputs.items():
            if not isinstance(value, int) or not 0 <= value < limit:
                raise ServeError(
                    f"request {request.request_id!r}: input {name!r} = "
                    f"{value!r} does not fit in {request.lanes} lanes")


def _pack(sets: list[dict[str, int]], lanes: int) -> dict[str, int]:
    """Set ``i`` fills lanes ``[i·lanes, (i+1)·lanes)`` of one wide word."""
    return {name: sum(inputs[name] << (index * lanes)
                      for index, inputs in enumerate(sets))
            for name in sets[0]}


def _unpack(packed: dict[str, int], count: int,
            lanes: int) -> list[dict[str, int]]:
    """Split a packed answer back into ``count`` per-set answers."""
    mask = (1 << lanes) - 1
    return [{name: (value >> (index * lanes)) & mask
             for name, value in packed.items()} for index in range(count)]


def _majority_value(values: list[int], lanes: int,
                    tiebreak: int | None = None) -> int:
    """Per-lane majority of lane-bitmask ballots.

    A lane bit is set in the result when a strict majority of ``values``
    set it.  With an even panel, bits split exactly in half are resolved
    by ``tiebreak`` (the CPU referee's ballot) — the panel construction
    guarantees a referee is present whenever a tie is possible.
    """
    n = len(values)
    need = n // 2 + 1
    out = 0
    for bit in range(lanes):
        mask = 1 << bit
        ones = sum(1 for value in values if value & mask)
        if ones >= need:
            out |= mask
        elif tiebreak is not None and 2 * ones == n and tiebreak & mask:
            out |= mask
    return out


def _majority_outputs(ballots: list[dict[str, int]], lanes: int,
                      tiebreak: dict[str, int] | None = None
                      ) -> dict[str, int]:
    """Majority-vote every output of a ballot panel (see above)."""
    return {name: _majority_value(
        [ballot[name] for ballot in ballots], lanes,
        None if tiebreak is None else tiebreak[name])
        for name in ballots[0]}


def _percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (nearest-rank) of a latency sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


#: latency samples kept per stage (a bounded window so a long-lived server
#: does not grow without bound)
_LATENCY_WINDOW = 2048

#: (array, dag) pairs remembered for proactive health recompiles
_SERVED_DAG_WINDOW = 32


#: the plain counters of :class:`ServiceStats`, in snapshot order
_COUNTERS = ("requests", "completed", "cim_served", "cpu_served", "shed",
             "retries", "remaps", "proactive_recompiles", "deadline_misses",
             "cim_failures", "errors", "queue_high_water", "votes",
             "vote_disagreements", "placement_shifts")


class ServiceStats:
    """Thread-safe counters and latency windows of one service instance."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters = dict.fromkeys(_COUNTERS, 0)
        self.placements: dict[int, int] = {}
        self._compile_s: list[float] = []
        self._execute_s: list[float] = []
        self._total_s: list[float] = []

    def note(self, name: str, n: int = 1) -> None:
        """Bump one named counter (``"shed"``, ``"retries"``, ...) by ``n``."""
        with self._lock:
            self._counters[name] += n

    def note_enqueue(self, depth: int) -> None:
        """Record an admitted request and the queue depth it saw."""
        with self._lock:
            self._counters["requests"] += 1
            self._counters["queue_high_water"] = max(
                self._counters["queue_high_water"], depth)

    def note_vote(self, disagreements: int) -> None:
        """Record one voted execution and its out-voted minority size."""
        with self._lock:
            self._counters["votes"] += 1
            self._counters["vote_disagreements"] += disagreements

    def note_placement(self, array_id: int, shifted: bool) -> None:
        """Record where one request was placed (and whether it moved)."""
        with self._lock:
            self.placements[array_id] = self.placements.get(array_id, 0) + 1
            if shifted:
                self._counters["placement_shifts"] += 1

    def note_result(self, result: ServeResult) -> None:
        """Fold one finished request into the counters and windows."""
        with self._lock:
            self._counters["completed"] += 1
            if result.error is not None:
                self._counters["errors"] += 1
            elif result.engine == "cim":
                self._counters["cim_served"] += 1
            else:
                self._counters["cpu_served"] += 1
            for window, value in ((self._compile_s, result.compile_s),
                                  (self._execute_s, result.execute_s),
                                  (self._total_s, result.total_s)):
                window.append(value)
                if len(window) > _LATENCY_WINDOW:
                    del window[:len(window) - _LATENCY_WINDOW]

    def typical_latency_s(self) -> float:
        """Median end-to-end service time of recent requests (0 if none)."""
        with self._lock:
            return _percentile(self._total_s, 50)

    def snapshot(self) -> dict:
        """All counters plus p50/p90/p99 of every stage window."""
        with self._lock:
            out = dict(self._counters)
            out["placements"] = {a: self.placements[a]
                                 for a in sorted(self.placements)}
            for stage, window in (("compile", self._compile_s),
                                  ("execute", self._execute_s),
                                  ("total", self._total_s)):
                for q in (50, 90, 99):
                    out[f"{stage}_p{q}_ms"] = round(
                        _percentile(window, q) * 1e3, 3)
            return out


class _Job:
    """One queued request with its completion event and result slot."""

    __slots__ = ("request", "enqueued_at", "event", "result")

    def __init__(self, request: ServeRequest, enqueued_at: float) -> None:
        self.request = request
        self.enqueued_at = enqueued_at
        self.event = threading.Event()
        self.result: ServeResult | None = None

    def wait(self, timeout: float | None = None) -> ServeResult:
        """Block until the worker pool finished this job."""
        if not self.event.wait(timeout):
            raise ServeError(
                f"request {self.request.request_id!r} did not complete "
                f"within {timeout} s")
        assert self.result is not None
        return self.result


#: default retry policy: worker crashes and transient I/O are retryable,
#: everything the compiler raises is fatal for the attempt
_DEFAULT_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.001,
                             max_delay_s=0.05,
                             retryable=(WorkerCrashError, OSError))


class CompileService:
    """Compile-and-serve runtime for one target/config over a fleet of arrays.

    ``cache`` is the persistent :class:`ArtifactCache` shared by the fleet
    (``None`` disables persistence).  ``fault_maps`` seeds the per-array
    *known* fault maps that key compiles; ``machine_faults`` optionally
    provides per-array ground-truth maps the simulated machines honor —
    faults present there but absent from the known map are what
    verify-after-write discovers and the in-loop remap rung repairs.

    ``chaos`` is a test hook called as ``chaos(stage, request)`` at the
    start of the compile and execute stages; raising
    :class:`~repro.errors.WorkerCrashError` from it simulates a worker
    killed mid-job (the retry policy re-runs the job).  ``clock`` and
    ``sleep`` are injectable for deterministic tests.

    Every successful machine run feeds its verify-after-write telemetry
    into the per-array :class:`~repro.serve.health.HealthRegistry`
    (``health`` to share one across services, ``health_policy`` to tune
    the default's thresholds).  The registry's decisions close the loop:
    quarantined arrays stop receiving CIM traffic (probation probes
    excepted), a fleet mostly quarantined trips the breaker into CPU
    offload, a degrading array's cached artifacts are proactively
    recompiled in the background against its current fault map, and
    ``schedule="multi"`` compiles exclude fault-saturated sub-arrays via
    ``CompilerConfig.exclude_arrays`` (and penalize DEGRADED-density ones
    via ``CompilerConfig.array_penalties``).

    The active-integrity knobs: ``shed_policy`` picks the overload victim
    (``"reject"`` the newcomer, ``"oldest"`` the queue head,
    ``"deadline"`` the queued job with the least slack — evicted jobs
    complete with a ``shed`` error result); ``placement="health"`` routes
    each request to the cheapest healthy fleet member
    (``placement_penalty`` is the DEGRADED surcharge) instead of its
    sticky ``array_id``; ``scrub`` configures the
    :class:`~repro.serve.scrub.PatrolScrubber` — :meth:`scrub` runs a
    budgeted march-test sweep on demand, and a nonzero
    ``ScrubPolicy.every_requests`` makes the worker pool run one
    automatically that often.
    """

    def __init__(self, target, config: CompilerConfig | None = None, *,
                 cache: ArtifactCache | None = None,
                 workers: int = 2,
                 queue_limit: int = 16,
                 deadline_s: float | None = None,
                 retry_policy: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 cpu_spec: CpuSpec | None = None,
                 fault_maps: dict[int, FaultMap] | None = None,
                 machine_faults: dict[int, FaultMap] | None = None,
                 min_healthy_fraction: float = 0.5,
                 spare_cells: bool = True,
                 health: HealthRegistry | None = None,
                 health_policy: HealthPolicy | None = None,
                 shed_policy: str = "reject",
                 placement: str = "sticky",
                 placement_penalty: float = 4.0,
                 scrub: ScrubPolicy | None = None,
                 chaos=None,
                 clock=time.monotonic,
                 sleep=time.sleep) -> None:
        if workers < 1:
            raise ServeError(f"worker count must be >= 1, got {workers}")
        if queue_limit < 1:
            raise ServeError(f"queue limit must be >= 1, got {queue_limit}")
        if shed_policy not in VALID_SHED_POLICIES:
            raise ServeError(f"unknown shed policy {shed_policy!r}; "
                             f"choose from {VALID_SHED_POLICIES}")
        if placement not in VALID_PLACEMENTS:
            raise ServeError(f"unknown placement {placement!r}; "
                             f"choose from {VALID_PLACEMENTS}")
        if placement_penalty < 0.0:
            raise ServeError(
                f"placement_penalty must be >= 0, got {placement_penalty}")
        self.target = target
        self.config = config or CompilerConfig()
        self.cache = cache
        self.deadline_s = deadline_s
        self.retry_policy = retry_policy or _DEFAULT_RETRY
        self.breaker = breaker or CircuitBreaker(clock=clock)
        self.cpu_spec = cpu_spec or CpuSpec()
        self.min_healthy_fraction = min_healthy_fraction
        self.shed_policy = shed_policy
        self.placement = placement
        self.placement_penalty = placement_penalty
        self.stats_counters = ServiceStats()
        self.health = health or HealthRegistry(
            target.technology, health_policy, clock=clock,
            on_transition=_weak_callback(self._on_health_transition))
        self.scrubber = PatrolScrubber(target, scrub)
        self._since_scrub = 0
        self._fault_maps = dict(fault_maps or {})
        self._machine_faults = dict(machine_faults or {})
        self._spare_cells = spare_cells
        self._chaos = chaos
        self._clock = clock
        self._sleep = sleep
        self._queue_limit = queue_limit
        self._queue: queue.Queue = queue.Queue(maxsize=queue_limit)
        self._closed = False
        self._lock = threading.Lock()
        self._served_dags: OrderedDict = OrderedDict()
        #: artifact key -> event set when its in-flight compile is done
        self._compiling: dict[str, threading.Event] = {}
        self._recompile_threads: list[threading.Thread] = []
        self._breaker_trips_seen = 0
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"sherlock-serve-{i}", daemon=True)
            for i in range(workers)]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain the queue and stop the worker pool (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put(None)
        for thread in self._workers:
            thread.join()
        with self._lock:
            pending = list(self._recompile_threads)
        for thread in pending:
            thread.join()

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, request: ServeRequest) -> _Job:
        """Enqueue one request; sheds with ``ServiceOverloadError`` on a
        full queue.  The returned job's :meth:`_Job.wait` blocks for the
        result.
        """
        with self._lock:
            if self._closed:
                raise ServeError("service is closed")
        _check_request(request)
        if request.deadline_s is None and self.deadline_s is not None:
            request.deadline_s = self.deadline_s
        job = _Job(request, self._clock())
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            if not self._shed_and_admit(job):
                self.stats_counters.note("shed")
                depth = self._queue.qsize()
                raise ServiceOverloadError(
                    f"service queue is full ({depth}/{self._queue_limit}); "
                    f"request {request.request_id!r} shed "
                    f"(policy {self.shed_policy})",
                    queue_depth=depth, queue_limit=self._queue_limit,
                    retry_after_s=self._retry_after_hint(),
                    shed_policy=self.shed_policy) from None
        self.stats_counters.note_enqueue(self._queue.qsize())
        return job

    def process(self, requests: list[ServeRequest],
                timeout_s: float | None = 60.0) -> list[ServeResult]:
        """Serve a batch, applying backpressure instead of failing.

        Requests shed by admission control are re-submitted after the
        overload error's retry-after hint (the worker pool is draining the
        queue, so a bounded number of waits always gets them in).  Results
        come back in request order.  A malformed request refuses the whole
        call with ``ServeError`` before any request is queued.
        """
        for request in requests:
            _check_request(request)
        jobs: list[_Job] = []
        for request in requests:
            while True:
                try:
                    jobs.append(self.submit(request))
                    break
                except ServiceOverloadError as error:
                    self._sleep(error.retry_after_s or 0.01)
        return [job.wait(timeout_s) for job in jobs]

    def _retry_after_hint(self) -> float:
        """When a shed client should try again (best-effort, never 0)."""
        typical = self.stats_counters.typical_latency_s()
        depth = self._queue.qsize()
        return max(0.005, typical * max(1, depth) / max(1, len(self._workers)))

    # ------------------------------------------------------------------
    # load shedding
    # ------------------------------------------------------------------
    def _shed_and_admit(self, job: _Job) -> bool:
        """Evict one queued victim per ``shed_policy`` and admit ``job``.

        Returns ``False`` (caller rejects the newcomer) under the
        ``"reject"`` policy, when no eligible victim is queued, or when a
        racing submitter refilled the freed slot.  An evicted victim's
        job completes immediately with a ``shed`` error result — its
        submitter already holds the job handle, so an exception can no
        longer reach it.
        """
        if self.shed_policy == "reject":
            return False
        with self._lock:
            evicted = self._pop_victims(job)
        for victim in evicted:
            victim.result = ServeResult(
                request_id=victim.request.request_id, outputs=None,
                engine="cpu", shed=True,
                error=(f"shed by admission control "
                       f"(policy {self.shed_policy}, queue "
                       f"{self._queue.qsize()}/{self._queue_limit})"),
                array_id=victim.request.array_id)
            self.stats_counters.note("shed")
            self.stats_counters.note_result(victim.result)
            victim.event.set()
        if not evicted:
            return False
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            return False
        return True

    def _pop_victims(self, newcomer: _Job) -> list[_Job]:
        """Pick and remove the queued job(s) the policy sacrifices.

        ``"oldest"`` pops the queue head.  ``"deadline"`` drains the
        queue, evicts the job with the least deadline slack (falling back
        to rejecting the newcomer when nothing queued carries a
        deadline), and requeues the survivors in order.  Runs under the
        service lock, but the plain ``submit`` fast path does not take
        it — a racing submitter can steal a freed slot mid-requeue, in
        which case the displaced survivor is shed too rather than lost.
        """
        if self.shed_policy == "oldest":
            try:
                victim = self._queue.get_nowait()
            except queue.Empty:
                return []
            self._queue.task_done()
            return [victim]
        # deadline: least slack loses
        drained: list[_Job] = []
        while True:
            try:
                drained.append(self._queue.get_nowait())
            except queue.Empty:
                break
        now = self._clock()
        best: tuple[float, _Job] | None = None
        for queued in drained:
            if queued.request.deadline_s is None:
                continue
            slack = queued.request.deadline_s - (now - queued.enqueued_at)
            if best is None or slack < best[0]:
                best = (slack, queued)
        chosen = best[1] if best is not None else None
        evicted = [] if chosen is None else [chosen]
        for queued in drained:
            self._queue.task_done()
            if queued is chosen:
                continue
            try:
                self._queue.put_nowait(queued)
            except queue.Full:
                evicted.append(queued)
        return evicted

    # ------------------------------------------------------------------
    # the worker pool
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                self._queue.task_done()
                return
            try:
                job.result = self._process(job)
            except Exception as error:  # never kill a worker thread
                job.result = ServeResult(
                    request_id=job.request.request_id, outputs=None,
                    engine="cpu", error=f"{type(error).__name__}: {error}",
                    array_id=job.request.array_id)
            finally:
                self.stats_counters.note_result(job.result)
                job.event.set()
                self._queue.task_done()
            self._maybe_autoscrub()

    def _check_deadline(self, job: _Job) -> None:
        deadline = job.request.deadline_s
        if deadline is None:
            return
        elapsed = self._clock() - job.enqueued_at
        if elapsed > deadline:
            raise DeadlineExceededError(
                f"request {job.request.request_id!r} exceeded its "
                f"{deadline:.3f} s deadline ({elapsed:.3f} s elapsed)")

    def _chaos_hook(self, stage: str, request: ServeRequest) -> None:
        if self._chaos is not None:
            self._chaos(stage, request)

    # ------------------------------------------------------------------
    # patrol scrubbing
    # ------------------------------------------------------------------
    def scrub(self, budget: int | None = None) -> ScrubReport:
        """Run one patrol pass: march-test, merge, report, recompile.

        March-tests the next ``budget`` idle cells (default: the scrub
        policy's) of every fleet member with a ground-truth map,
        round-robin.  Discovered latent faults merge into the array's
        *known* map (``FaultMap.merge`` — first diagnosis wins), shifting
        its compile cache key so the next request recompiles around them;
        every probed array feeds a weighted
        :meth:`~repro.serve.health.HealthRegistry.record_scrub` sample
        (clean slices actively recover DEGRADED arrays); discoveries also
        trigger the proactive background recompile of recently served
        dags.  Returns the pass's :class:`~repro.serve.scrub.ScrubReport`.
        """
        with self._lock:
            grounds = dict(self._machine_faults)
            knowns = {a: m.copy() for a, m in self._fault_maps.items()}
        report = self.scrubber.scrub(grounds, knowns, budget)
        for fleet_id in sorted(grounds):
            probed = report.probed_per_array.get(fleet_id, 0)
            found = report.discoveries.get(fleet_id)
            if probed == 0 and not found:
                continue
            added = 0
            if found:
                with self._lock:
                    known = self._fault_maps.setdefault(fleet_id, FaultMap())
                    added = known.merge(found)
            self.health.record_scrub(
                fleet_id, cells_probed=probed,
                latent_faults=len(found) if found else 0,
                weight=self.scrubber.policy.weight)
            if added:
                self._spawn_recompile(fleet_id)
        return report

    def _maybe_autoscrub(self) -> None:
        """Run the cadence scrub after every ``every_requests`` jobs."""
        every = self.scrubber.policy.every_requests
        if every <= 0:
            return
        with self._lock:
            self._since_scrub += 1
            due = self._since_scrub >= every
            if due:
                self._since_scrub = 0
        if due:
            try:
                self.scrub()
            except ServeError:
                pass  # patrol is best-effort; the request path has its own

    def _process(self, job: _Job) -> ServeResult:
        request = job.request
        started = self._clock()
        placed = self._place(request)
        self.stats_counters.note_placement(placed,
                                           placed != request.array_id)
        offload_reason = self._offload_reason(request, placed)
        result = ServeResult(request_id=request.request_id, outputs=None,
                             array_id=request.array_id, placed_array=placed)
        if offload_reason is None:
            try:
                (program, cached, answers, remapped, vote,
                 result.compile_s, result.execute_s) = self._serve_cim(
                     job, placed)
            except SherlockError as error:
                self.stats_counters.note("cim_failures")
                if isinstance(error, DeadlineExceededError):
                    self.stats_counters.note("deadline_misses")
                self.breaker.record_failure()
                self._sync_breaker_trips()
                offload_reason = f"{type(error).__name__}: {error}"
            else:
                self.breaker.record_success()
                result.engine = "cim"
                result.cached = cached
                result.remapped = remapped
                result.degradation = program.degradation
                result.cim_latency_us = program.metrics.latency_us
                if vote is not None:
                    result.voted = True
                    result.voters, result.disagreeing = vote
        if offload_reason is not None:
            result.placed_array = None
            t0 = self._clock()
            result.engine = "cpu"
            result.offload_reason = offload_reason
            answers = evaluate_many(request.dag, _input_sets(request),
                                    request.lanes)
            result.execute_s = self._clock() - t0
        if request.input_sets is not None:
            result.batch_outputs = answers
        else:
            result.outputs = answers[0]
        result.cpu_latency_us = run_model(
            dag_events(request.dag, request.lanes), self.cpu_spec).latency_us
        result.total_s = self._clock() - started
        return result

    def _offload_reason(self, request: ServeRequest,
                        array_id: int) -> str | None:
        """Why this request must go to the CPU baseline (None = CIM ok).

        ``array_id`` is the placement decision (== the request's array
        under sticky placement).  Checked in escalation order: the
        array's static healthy capacity, its dynamic quarantine state
        (probation probes pass through — they are how a quarantined array
        earns its way back), the fleet-wide census (mostly-quarantined
        fleet => trip the breaker, serve from CPU), and finally the
        breaker itself.
        """
        healthy = 1.0 - self._fault_density(array_id)
        if healthy < self.min_healthy_fraction:
            self.breaker.force_open()
            self._sync_breaker_trips()
            return (f"degraded-capacity: array {array_id} has only "
                    f"{healthy:.1%} healthy cells")
        if not self.health.allow(array_id):
            return (f"quarantined: array {array_id} is quarantined "
                    f"(probation pending)")
        quarantined, tracked = self.health.census()
        if (tracked and (tracked - quarantined) / tracked
                < self.min_healthy_fraction
                and self.health.state_of(array_id)
                is not ArrayHealth.QUARANTINED):
            self.breaker.force_open()
            self._sync_breaker_trips()
            return (f"degraded-fleet: only {tracked - quarantined}/{tracked} "
                    f"tracked arrays healthy")
        if not self.breaker.allow():
            return "breaker-open"
        return None

    # ------------------------------------------------------------------
    # health-aware placement
    # ------------------------------------------------------------------
    def _fleet_arrays(self) -> list[int]:
        """Every fleet member the service knows about, sorted."""
        with self._lock:
            known = set(self._fault_maps) | set(self._machine_faults)
        return sorted(known | set(self.health.tracked()))

    def _fault_density(self, array_id: int) -> float:
        """Known faults of one array over the whole fleet's cell count."""
        with self._lock:
            faults = len(self._fault_maps.get(array_id) or ())
        total = self.target.num_arrays * self.target.rows * self.target.cols
        return faults / max(1, total)

    def _placement_cost(self, array_id: int) -> float:
        """The placement score of one candidate (lower is better).

        Known-fault density is the base cost, a DEGRADED verdict adds the
        configured ``placement_penalty``, and QUARANTINED is infinitely
        expensive (probation re-admission goes through the offload gate,
        not through placement).
        """
        state = self.health.state_of(array_id)
        if state is ArrayHealth.QUARANTINED:
            return math.inf
        cost = self._fault_density(array_id)
        if state is ArrayHealth.DEGRADED:
            cost += self.placement_penalty
        return cost

    def _place(self, request: ServeRequest) -> int:
        """Choose the fleet member this request compiles/executes on.

        Sticky placement honors the request's ``array_id``.  Health-aware
        placement picks the cheapest candidate, preferring the requested
        array on ties — and always returns the requested array when it is
        QUARANTINED, so probation probes keep hitting the array that must
        earn its way back.
        """
        requested = request.array_id
        if self.placement != "health":
            return requested
        if self.health.state_of(requested) is ArrayHealth.QUARANTINED:
            return requested
        candidates = sorted(set(self._fleet_arrays()) | {requested})
        best = min(candidates,
                   key=lambda a: (self._placement_cost(a),
                                  a != requested, a))
        if math.isinf(self._placement_cost(best)):
            return requested
        return best

    def _sync_breaker_trips(self) -> None:
        """Mirror new breaker trips into the health registry's counters."""
        trips = self.breaker.snapshot()["trips"]
        with self._lock:
            new = trips - self._breaker_trips_seen
            self._breaker_trips_seen = trips
        for _ in range(new):
            self.health.note_breaker_trip()

    # ------------------------------------------------------------------
    # the CIM path
    # ------------------------------------------------------------------
    def _serve_cim(self, job: _Job, array_id: int):
        request = job.request

        def attempt():
            self._check_deadline(job)
            self._chaos_hook("compile", request)
            t0 = self._clock()
            program, cached = self._compiled(request, array_id)
            compile_s = self._clock() - t0
            self._check_deadline(job)
            self._chaos_hook("execute", request)
            t1 = self._clock()
            answers, program_used, vote = self._execute(program, request,
                                                        array_id)
            execute_s = self._clock() - t1
            return (program_used, cached, answers,
                    program_used is not program, vote, compile_s, execute_s)

        return retry_call(
            attempt, policy=self.retry_policy, sleep=self._sleep,
            on_retry=lambda *_: self.stats_counters.note("retries"),
            label=f"serve:{request.request_id or 'request'}")

    def _known_map(self, array_id: int) -> FaultMap | None:
        with self._lock:
            known = self._fault_maps.get(array_id)
            return known.copy() if known else None

    def _config_for(self, fault_map: FaultMap | None) -> CompilerConfig:
        """The compile config for one array's current fault map.

        Multi-array schedules additionally exclude fault-saturated
        sub-arrays (the quarantine decision expressed as a compile
        constraint) and penalize DEGRADED-density ones
        (``array_penalties`` — the soft steer); since the config
        participates in both cache keys, either set shifting recompiles
        naturally.
        """
        if self.config.schedule != "multi" or not fault_map:
            return self.config
        exclude = subarray_exclusions(fault_map, self.target)
        penalties = subarray_penalties(fault_map, self.target,
                                       penalty=self.placement_penalty)
        if (exclude == self.config.exclude_arrays
                and penalties == self.config.array_penalties):
            return self.config
        return self.config.with_(exclude_arrays=exclude,
                                 array_penalties=penalties)

    def _note_served(self, request: ServeRequest, array_id: int,
                     dag_hash: str) -> None:
        """Remember the dag for proactive recompiles (bounded window)."""
        entry = (array_id, dag_hash)
        with self._lock:
            self._served_dags[entry] = request.dag
            self._served_dags.move_to_end(entry)
            while len(self._served_dags) > _SERVED_DAG_WINDOW:
                self._served_dags.popitem(last=False)

    def _compiler(self, config: CompilerConfig,
                  fault_map: FaultMap | None) -> SherlockCompiler:
        """A compiler that skips the process cache if the service has one."""
        return SherlockCompiler(self.target, config, fault_map=fault_map,
                                cache=self.cache is None)

    def _compiled(self, request: ServeRequest, array_id: int):
        """Resolve the request's program: artifact cache, then compile.

        Misses are single-flight per artifact key: while one request
        compiles a key, the others that need it wait, then hit.
        """
        fault_map = self._known_map(array_id)
        config = self._config_for(fault_map)
        dag_hash = structural_hash(request.dag)
        self._note_served(request, array_id, dag_hash)
        if self.cache is None:
            program = self._compiler(config, fault_map).compile(request.dag)
            return program, False
        key = ArtifactCache.key_for(request.dag, self.target, config,
                                    fault_map, dag_hash=dag_hash)
        while True:
            with self._lock:
                flight = self._compiling.get(key)
            if flight is not None:
                flight.wait()
            program = self.cache.get(key)
            if program is not None:
                return program, True
            with self._lock:
                if key not in self._compiling:
                    self._compiling[key] = threading.Event()
                    break
        try:
            program = self._compiler(config, fault_map).compile(request.dag)
            self.cache.put(key, program)
        finally:
            with self._lock:
                self._compiling.pop(key).set()
        return program, False

    def _voter_arrays(self, placed: int, k: int) -> list[int]:
        """Up to ``k`` panel arrays: the placement first, then the
        cheapest non-quarantined fleet members."""
        voters = [placed]
        ranked = sorted((a for a in self._fleet_arrays() if a != placed),
                        key=lambda a: (self._placement_cost(a), a))
        for array_id in ranked:
            if len(voters) >= k:
                break
            if math.isinf(self._placement_cost(array_id)):
                continue
            voters.append(array_id)
        return voters

    def _execute(self, program, request: ServeRequest, placed: int):
        """Run the request as lane-packed, verified ballots and vote.

        Each panel member (:meth:`_voter_arrays`; a plain request is a
        panel of one) runs one verify-after-write machine on its ground
        truth over all input sets packed side by side (:func:`_pack`).  A
        plain request's :class:`HardFaultError` takes the in-loop remap
        rung and re-runs on the remapped program; a voter's drops it out.
        The CPU referee (one :func:`evaluate` over the packed lanes) joins
        when fewer than ``redundancy`` ballots survive or the panel would
        be even, and breaks ties; out-voted arrays are reported to health.
        Returns ``(answers, program_used, vote)``: one answer per set, the
        remapped program when the rung ran, and ``(voters, disagreeing)``
        for voted requests (``None`` otherwise).
        """
        sets = _input_sets(request)
        width = len(sets) * request.lanes
        packed = _pack(sets, request.lanes)
        voted_request = request.redundancy > 1
        used = program
        ballots: list[tuple[int, dict[str, int]]] = []
        for array_id in self._voter_arrays(placed, request.redundancy):
            ground = self._machine_faults.get(array_id)
            machine = program.machine(width, verify_writes=True,
                                      fault_map=ground,
                                      spare_cells=self._spare_cells)
            try:
                outputs = run_program(program, machine, packed)
            except HardFaultError:
                self._note_machine(machine, array_id, hard_fault=True)
                if voted_request:
                    continue
                used = self._remap(program, request, array_id,
                                   machine.discovered_faults)
                machine = used.machine(width, verify_writes=True,
                                       fault_map=ground,
                                       spare_cells=self._spare_cells)
                outputs = run_program(used, machine, packed)
            self._note_machine(machine, array_id)
            ballots.append((array_id, outputs))
        referee = None
        if len(ballots) < request.redundancy or len(ballots) % 2 == 0:
            referee = evaluate(request.dag, packed, width)
            ballots.append((-1, referee))
        panel = [outputs for _, outputs in ballots]
        voted = (panel[0] if len(panel) == 1
                 else _majority_outputs(panel, width, referee))
        answers = _unpack(voted, len(sets), request.lanes)
        if not voted_request:
            return answers, used, None
        voters = tuple("cpu" if a < 0 else a for a, _ in ballots)
        disagreeing = tuple(a for a, outputs in ballots
                            if a >= 0 and outputs != voted)
        for array_id in disagreeing:
            self.health.record_vote_disagreement(array_id)
        self.stats_counters.note_vote(len(disagreeing))
        return answers, used, (voters, disagreeing)

    def _note_machine(self, machine: ArrayMachine, array_id: int,
                      *, hard_fault: bool = False) -> None:
        """Feed one machine run's telemetry into the health registry."""
        self.health.record_execution(
            array_id,
            writes_verified=machine.writes_verified,
            write_retries_used=machine.write_retries_used,
            write_failures_injected=machine.write_failures_injected,
            discovered_faults=len(machine.discovered_faults),
            remaps=len(machine.remaps),
            hard_fault=hard_fault)

    def _remap(self, program, request: ServeRequest, array_id: int,
               discovered: FaultMap):
        """The remap rung inside the service loop.

        Merges the machine-discovered faults into the fleet's known map
        for the array, recompiles the request around them, and publishes
        the new artifact under the merged map's key so every array with
        the same map shares it.
        """
        known = self._known_map(array_id)
        config = self._config_for(known)
        remapped = self._compiler(config, known).remap(program, discovered)
        with self._lock:
            self._fault_maps[array_id] = remapped.fault_map.copy()
        if self.cache is not None:
            key = ArtifactCache.key_for(request.dag, self.target,
                                        config, remapped.fault_map)
            self.cache.put(key, remapped)
        self.stats_counters.note("remaps")
        self._spawn_recompile(array_id)
        return remapped

    # ------------------------------------------------------------------
    # adaptive responses to health transitions
    # ------------------------------------------------------------------
    def _on_health_transition(self, array_id: int, old: ArrayHealth,
                              new: ArrayHealth, reason: str) -> None:
        """Registry callback: react to an array changing state."""
        if new in (ArrayHealth.DEGRADED, ArrayHealth.QUARANTINED):
            self._spawn_recompile(array_id)

    def _spawn_recompile(self, array_id: int) -> None:
        """Refresh the array's cached artifacts in the background.

        A degrading (or freshly remapped) array's fault map just moved,
        so its cached programs are keyed off a stale map; recompiling the
        dags it recently served against the *current* map makes the next
        request a warm hit instead of an inline compile.  Best-effort:
        compile failures are swallowed (the request path handles them
        with full diagnostics).
        """
        if self.cache is None:
            return
        with self._lock:
            if self._closed:
                return
            dags = [dag for (aid, _h), dag in self._served_dags.items()
                    if aid == array_id]
            if not dags:
                return
            thread = threading.Thread(
                target=self._recompile_dags, args=(array_id, dags),
                name=f"sherlock-health-recompile-{array_id}", daemon=True)
            self._recompile_threads = [
                t for t in self._recompile_threads if t.is_alive()]
            self._recompile_threads.append(thread)
        thread.start()

    def _recompile_dags(self, array_id: int, dags: list) -> None:
        fault_map = self._known_map(array_id)
        config = self._config_for(fault_map)
        for dag in dags:
            key = ArtifactCache.key_for(dag, self.target, config, fault_map)
            if key in self.cache:
                continue  # already published under the current map
            try:
                program = self._compiler(config, fault_map).compile(dag)
            except SherlockError:
                continue
            self.cache.put(key, program)
            self.stats_counters.note("proactive_recompiles")

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def fault_map_of(self, array_id: int) -> FaultMap | None:
        """A copy of the fleet's current known map for one array."""
        return self._known_map(array_id)

    def stats(self) -> dict:
        """Counters, latency percentiles, cache/breaker/health snapshots."""
        out = self.stats_counters.snapshot()
        out["queue_depth"] = self._queue.qsize()
        out["queue_limit"] = self._queue_limit
        out["workers"] = len(self._workers)
        out["shed_policy"] = self.shed_policy
        out["placement"] = self.placement
        out["breaker"] = self.breaker.snapshot()
        out["cache"] = (self.cache.stats() if self.cache is not None
                        else None)
        out["health"] = self.health.snapshot()
        out["scrub"] = self.scrubber.stats()
        return out

    def stats_text(self) -> str:
        """The ``sherlock serve --stats`` rendering of :meth:`stats`."""
        stats = self.stats()
        breaker = stats.pop("breaker")
        cache = stats.pop("cache")
        health = stats.pop("health")
        scrub = stats.pop("scrub")
        lines = ["service:"]
        lines += [f"  {key}: {stats[key]}" for key in sorted(stats)]
        lines.append(f"breaker: state={breaker['state']} "
                     f"trips={breaker['trips']} "
                     f"consecutive_failures={breaker['consecutive_failures']}")
        if cache is None:
            lines.append("artifact cache: disabled")
        else:
            lines.append("artifact cache: "
                         + " ".join(f"{k}={cache[k]}" for k in sorted(cache)))
        lines.append(f"scrub: passes={scrub['passes']} "
                     f"cells_probed={scrub['cells_probed']} "
                     f"latent_faults_found={scrub['latent_faults_found']} "
                     f"sweeps={scrub['sweeps']}")
        lines.append(
            f"health: baseline={health['baseline']:.1e} "
            f"arrays={len(health['arrays'])} "
            f"degraded={health['degraded']} "
            f"quarantined={health['quarantined']} "
            f"recovered={health['recovered']} "
            f"breaker_trips={health['breaker_trips']} "
            f"vote_disagreements={health['vote_disagreements']}")
        for array_id in sorted(health["arrays"]):
            entry = health["arrays"][array_id]
            lines.append(
                f"  array {array_id}: state={entry['state']} "
                f"rate={entry['failure_rate']:.2e} "
                f"samples={entry['samples']} probes={entry['probes']} "
                f"retries={entry['retries']} "
                f"hard_faults={entry['hard_faults']} "
                f"scrubbed={entry['scrub_probes']} "
                f"latent={entry['scrub_faults']} "
                f"outvoted={entry['vote_disagreements']}")
        for transition in health["transitions"]:
            lines.append(
                f"  transition: array {transition['array']} "
                f"{transition['from']} -> {transition['to']} "
                f"({transition['reason']})")
        return "\n".join(lines)
