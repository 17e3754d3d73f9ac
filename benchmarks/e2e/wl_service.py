"""``service_live``: the HTTP front door on a live host, under load.

One process holds the whole stack (``ThreadedBackend`` + ``PolicyHost`` +
``SchedulerService`` + ``ServiceServer``) and two client threads:

- an **open loop**: one thread sends ``POST /v1/jobs`` on a seeded Poisson
  schedule, whatever the server's pace; each request is timed from the
  instant it was *due*, so a stall is charged to every request it delays,
  and how late the generator itself ran is reported;
- a **closed loop** reader with 50 ms think time (job status, tenant usage,
  ``/metrics``, round-robin), so a submit-path change that starves readers
  shows.

A job's first allocation is observed without polling the program: the
harness wraps ``apply_allocations`` on the backend instance it built and
timestamps each job's first non-zero row.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import repro.policy
from repro.cluster import ClusterSpec
from repro.core import GAConfig, PolluxSchedConfig
from repro.host import PolicyHost, ThreadedBackend, ThreadedConfig
from repro.service import SchedulerService, ServiceServer

from . import inputs, stats
from .probe import (
    Report,
    RoundLog,
    cold_rounds,
    core_layers,
    policy_layers,
    quietest,
    round_metrics,
    wrap_core,
)
from .tracing import Tracer, span_table
from .validate import check_allocations


@dataclass(frozen=True)
class ServiceSize:
    loop_seconds: float = 20.0
    rate_per_s: float = 6.0
    warmup_seconds: float = 2.0
    alloc_deadline_seconds: float = 30.0
    num_nodes: int = 16
    gpus_per_node: int = 4
    standing_jobs: int = 12
    time_scale: float = 1000.0
    interval_host_s: float = 120.0
    think_seconds: float = 0.05
    ga_population: int = 24
    ga_generations: int = 10
    #: The cold probe: this many fresh policies, each on a synthetic state
    #: of its own, once before the stack exists and once after it is gone
    #: (~2 s each).
    cold_rounds: int = 48
    #: Set-ups timed (all but the last are torn down again, ~0.4 s each).
    setup_repeats: int = 3

    @classmethod
    def for_seconds(cls, seconds: float) -> "ServiceSize":
        return cls(loop_seconds=float(seconds))


class _Stack:
    """The program under test, built and torn down as one unit."""

    def __init__(self, size: ServiceSize, backend_seed: int):
        self.cluster = ClusterSpec.homogeneous(size.num_nodes, size.gpus_per_node)
        self.backend = ThreadedBackend(
            self.cluster,
            ThreadedConfig(
                time_scale=size.time_scale,
                quantum_seconds=0.05,
                scheduling_interval=size.interval_host_s,
                agent_interval=size.interval_host_s,
                seed=backend_seed,
            ),
            trace=inputs.standing_trace(size.standing_jobs),
        )
        self.policy = make_policy(self.cluster, size)
        self.host = PolicyHost(self.policy, self.backend)
        self.service = SchedulerService(self.host)
        self.server = ServiceServer(self.service)

    def start(self) -> None:
        self.host.start()
        self.server.start()

    def close(self) -> None:
        self.server.close()
        self.host.stop(timeout=10.0)


def make_policy(cluster: ClusterSpec, size: ServiceSize):
    ga = GAConfig(population_size=size.ga_population, generations=size.ga_generations)
    return repro.policy.create(
        "pollux", cluster=cluster, seed=0, config=PolluxSchedConfig(ga=ga)
    )


class _AllocWatch:
    """Wraps ``backend.apply_allocations``: first non-zero row per job."""

    def __init__(self, backend: ThreadedBackend):
        self.first: Dict[str, float] = {}
        self.applied: List[Tuple[List[str], dict]] = []
        inner = backend.apply_allocations

        def apply_allocations(allocations, jobs):
            inner(allocations, jobs)
            now = time.perf_counter()
            for name, alloc in allocations.items():
                if name not in self.first and alloc.any():
                    self.first[name] = now
            self.applied.append(([job.name for job in jobs], allocations))

        backend.apply_allocations = apply_allocations  # type: ignore[method-assign]


class _RoundLock:
    """``dispatch_lock()`` stand-in: a ``host.round`` span per host-thread hold."""

    def __init__(self, lock, tracer: Tracer):
        self._lock = lock
        self._tracer = tracer
        self._span = None

    def __enter__(self):
        if threading.current_thread().name == "policy-host":
            self._span = self._tracer.span("host.round")
            self._span.__enter__()
        self._lock.acquire()
        return self

    def __exit__(self, *exc):
        self._lock.release()
        if self._span is not None:
            self._span.__exit__(*exc)
        return False


def _install(tracer: Tracer, stack: _Stack) -> None:
    backend = stack.backend
    lock = backend.dispatch_lock()
    tracer.patch(backend, "dispatch_lock", lambda: _RoundLock(lock, tracer))
    tracer.wrap(backend, "host.drain_events", attr="drain_events")
    tracer.wrap(backend, "host.apply_allocations", attr="apply_allocations")
    tracer.wrap(
        backend, "host.backend_submit", attr="submit", op_of=lambda spec: spec.name
    )
    tracer.wrap(
        "repro.service.api:SchedulerService.submit",
        "service.submit",
        op_of=lambda _self, tenant, payload: f"{tenant}/{payload.get('name')}",
    )
    for module in ("repro.service.server", "repro.service.metrics_export"):
        tracer.wrap(f"{module}:render_metrics", "service.metrics_render")
    for module in ("repro.policy.dispatch", "repro.host.service"):
        tracer.wrap(f"{module}:build_cluster_state", "policy.build_state")
        tracer.wrap(f"{module}:apply_decision", "policy.apply_decision")
        tracer.wrap(f"{module}:tune_batch_sizes", "policy.tune_batch")
    wrap_core(tracer)


@dataclass
class _SubmitResult:
    job_id: str
    due: float
    sent: float
    acked: Optional[float]  # None: transport error
    status: int


def _request(conn, method: str, path: str, tenant: str, body: Optional[dict] = None):
    payload = None if body is None else json.dumps(body)
    headers = {"X-Tenant": tenant}
    if payload is not None:
        headers["Content-Type"] = "application/json"
    conn.request(method, path, body=payload, headers=headers)
    response = conn.getresponse()
    response.read()
    return response.status


def _submitter(address, schedule, start: float, results: List[_SubmitResult], tracer):
    conn = http.client.HTTPConnection(*address, timeout=30)
    for submit in schedule:
        due = start + submit.due_s
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        body = {"model": submit.model, "num_gpus": 1, "name": submit.name}
        try:
            if tracer is None:
                status = _request(conn, "POST", "/v1/jobs", submit.tenant, body)
            else:
                with tracer.span("client.post", op=submit.job_id):
                    status = _request(conn, "POST", "/v1/jobs", submit.tenant, body)
            acked: Optional[float] = time.perf_counter()
        except (OSError, http.client.HTTPException):
            status, acked = 0, None
            conn.close()
            conn = http.client.HTTPConnection(*address, timeout=30)
        results.append(_SubmitResult(submit.job_id, due, sent, acked, status))
    conn.close()


def _reader(address, results, stop: threading.Event, think: float, reads: List[Tuple[float, int]]):
    conn = http.client.HTTPConnection(*address, timeout=30)
    turn = 0
    while not stop.is_set():
        recent = results[-1] if results else None
        tenant = recent.job_id.split("/")[0] if recent else "team-00"
        paths = [f"/v1/tenants/{tenant}", "/metrics"]
        if recent is not None and recent.status == 201:
            paths.append(f"/v1/jobs/{recent.job_id}")
        path = paths[turn % len(paths)]
        turn += 1
        t0 = time.perf_counter()
        try:
            status = _request(conn, "GET", path, tenant)
        except (OSError, http.client.HTTPException):
            status = 0
            conn.close()
            conn = http.client.HTTPConnection(*address, timeout=30)
        reads.append(((time.perf_counter() - t0) * 1000.0, status))
        stop.wait(think)
    conn.close()


def run(seed: int, size: ServiceSize, tracer: Optional[Tracer] = None) -> Report:
    report = Report()
    backend_seed = inputs.sub_seed(seed, "backend")
    schedule_seed = inputs.sub_seed(seed, "schedule")
    cluster = ClusterSpec.homogeneous(size.num_nodes, size.gpus_per_node)
    cold_states = inputs.cold_states(cluster, 2 * size.standing_jobs, seed, size.cold_rounds)

    def cold_burst():
        return cold_rounds(lambda: make_policy(cluster, size), cold_states, size.cold_rounds)

    bursts = [cold_burst()]

    # Set-up: build and start the stack several times (all but the last
    # are closed again), then let the standing jobs get profiled and placed.
    walls = []
    generate_ms = []
    stack = None
    for attempt in range(size.setup_repeats):
        t0 = time.perf_counter()
        schedule = inputs.poisson_schedule(schedule_seed, size.rate_per_s, size.loop_seconds)
        generate_ms.append((time.perf_counter() - t0) * 1000.0)
        stack = _Stack(size, backend_seed)
        last = attempt == size.setup_repeats - 1
        log = RoundLog(stack.policy, tracer if last else None)
        watch = _AllocWatch(stack.backend)
        if tracer is not None and last:
            _install(tracer, stack)
        stack.start()
        walls.append(time.perf_counter() - t0)
        if not last:
            stack.close()
    t0 = time.perf_counter()
    time.sleep(size.warmup_seconds)
    report.e2e["setup_s"] = stats.median(walls) + (time.perf_counter() - t0)
    report.inputs = {
        "hash": inputs.digest(
            [inputs.schedule_hash(schedule), backend_seed]
            + [inputs.state_hash(state) for state in cold_states]
        ),
        "backend_seed": backend_seed,
        "schedule_seed": schedule_seed,
        "params": {
            "cluster": f"{size.num_nodes}x{size.gpus_per_node}",
            "standing_jobs": size.standing_jobs,
            "submits": len(schedule),
            "rate_per_s": size.rate_per_s,
            "loop_seconds": size.loop_seconds,
            "time_scale": size.time_scale,
            "interval_wall_ms": size.interval_host_s / size.time_scale * 1000.0,
            "reader_think_ms": size.think_seconds * 1000.0,
            "cold_probe": f"2 x {size.cold_rounds} rounds, one state each",
        },
    }

    address = stack.server.bound
    results: List[_SubmitResult] = []
    reads: List[Tuple[float, int]] = []
    stop_reader = threading.Event()
    first_round = len(log.rounds)
    try:
        host_t0 = stack.backend.now()
        cpu_t0 = time.process_time()
        start = time.perf_counter() + 0.05
        submitter = threading.Thread(
            target=_submitter, args=(address, schedule, start, results, tracer),
            name="e2e-submitter",
        )
        reader = threading.Thread(
            target=_reader,
            args=(address, results, stop_reader, size.think_seconds, reads),
            name="e2e-reader",
        )
        submitter.start()
        reader.start()
        submitter.join()
        loop_end = time.perf_counter()
        cpu_s = time.process_time() - cpu_t0
        host_t1 = stack.backend.now()
        last_round = len(log.rounds)
        wanted = {r.job_id for r in results if r.status == 201}
        deadline = loop_end + size.alloc_deadline_seconds
        while not wanted <= watch.first.keys() and time.perf_counter() < deadline:
            time.sleep(0.01)
        stop_reader.set()
        reader.join()
        host_rounds = [
            r for r in list(stack.host.metrics.rounds) if host_t0 <= r.time <= host_t1
        ]
    finally:
        stop_reader.set()
        stack.close()
        if tracer is not None:
            tracer.restore()
    loop_wall = loop_end - start
    # -- client-side outcome ---------------------------------------------
    problems: List[str] = []
    ack_ms, alloc_ms, late_ms = [], [], []
    for result in results:
        late_ms.append((result.sent - result.due) * 1000.0)
        if result.status != 201 or result.acked is None:
            problems.append(f"{result.job_id}: POST status {result.status}")
            continue
        ack_ms.append((result.acked - result.due) * 1000.0)
        allocated = watch.first.get(result.job_id)
        if allocated is None:
            problems.append(
                f"{result.job_id}: no allocation {size.alloc_deadline_seconds:g} s "
                "after the last submit"
            )
            continue
        alloc_ms.append((allocated - result.due) * 1000.0)
    report.failed = len(problems)
    for index, (names, allocations) in enumerate(watch.applied):
        found = check_allocations(stack.cluster, set(names), allocations)
        report.failed += bool(found)
        problems += [f"apply_allocations call {index}: {p}" for p in found]
    report.attempted = len(schedule)
    report.problems = problems

    rounds = log.rounds[first_round:last_round]
    bursts.append(cold_burst())
    cold, cold_problems = quietest(bursts)
    report.failed += len(cold_problems)
    report.problems += cold_problems
    e2e, layer, samples = round_metrics(rounds + cold)
    report.e2e.update(e2e)
    report.layer.update(layer)
    report.samples.update(samples)
    layer = report.layer
    read_ms = [ms for ms, _ in reads]
    latencies_ms = [r.latency_s * 1000.0 for r in host_rounds]
    report.e2e["dispatch_wall_s"] = sum(latencies_ms) / 1000.0
    report.samples["dispatch_wall_s"] = len(latencies_ms)
    interval_ms = size.interval_host_s / size.time_scale * 1000.0
    layer.update(
        {
            "service.submit_ack_ms_p50": _p(ack_ms, 50),
            "service.submit_ack_ms_p90": _p(ack_ms, 90),
            "service.submit_to_alloc_ms_p50": _p(alloc_ms, 50),
            "service.submit_to_alloc_ms_p90": _p(alloc_ms, 90),
            "service.submit_to_alloc_sum_s": sum(alloc_ms) / 1000.0,
            "service.read_ms_p50": _p(read_ms, 50),
            "service.reads": float(len(reads)),
            "service.http_non2xx": float(
                sum(1 for r in results if not 200 <= r.status < 300)
                + sum(1 for _, status in reads if not 200 <= status < 300)
            ),
            "service.gen_late_ms_p90": _p(late_ms, 90),
            "service.gen_late_ms_max": max(late_ms) if late_ms else None,
            "host.round_ms_p50": _p(latencies_ms, 50),
            "host.round_ms_p90": _p(latencies_ms, 90),
            "host.round_ms_mean": stats.mean(latencies_ms) if latencies_ms else None,
            "host.rounds": float(len(latencies_ms)),
            "host.lock_held_frac": report.e2e["dispatch_wall_s"] / loop_wall,
            "host.round_overrun_frac": (
                sum(1 for ms in latencies_ms if ms > interval_ms) / len(latencies_ms)
                if latencies_ms
                else None
            ),
            "workload.generate_inputs_ms": stats.median(generate_ms),
            "service.process_cpu_s": cpu_s,
        }
    )
    late = layer["service.gen_late_ms_p90"]
    if late is not None and late > 20.0:
        # One connection sends the POSTs in order, so a slow reply delays
        # the next send; latencies count from the due time, so the delay is
        # charged, but the arrival process was smoother than scheduled.
        report.notes.append(f"generator ran late: p90 {late:.1f} ms > 20 ms")
    if tracer is not None:
        _traced_layers(report, tracer, results, watch, loop_wall)
    return report


def _p(samples: List[float], q: float) -> Optional[float]:
    """A percentile, or None where the sample cannot support it."""
    try:
        return stats.percentile(samples, q)
    except ValueError:
        return None


def _traced_layers(report, tracer, results, watch, loop_wall) -> None:
    layer = report.layer

    layer.update(policy_layers(tracer, loop_wall))
    layer.update(core_layers(tracer))
    for key, name, fn in (
        ("service.submit_call_ms_p50", "service.submit", stats.median),
        ("service.metrics_render_ms_p50", "service.metrics_render", stats.median),
        ("host.lock_wait_ms_p50", "host.backend_submit", stats.median),
        ("host.drain_events_ms_mean", "host.drain_events", stats.mean),
        ("host.apply_allocations_ms_mean", "host.apply_allocations", stats.mean),
    ):
        layer[key] = tracer.reduce(name, fn)

    posts = {s.op: s for s in tracer.spans if s.name == "client.post"}
    calls = {s.op: s for s in tracer.spans if s.name == "service.submit"}
    locks = {s.op: s for s in tracer.spans if s.name == "host.backend_submit"}
    overhead = [
        (posts[op].duration - calls[op].duration) * 1000.0 for op in posts if op in calls
    ]
    layer["service.http_overhead_ms_p50"] = stats.median(overhead) if overhead else None

    # Where a submit's wait for GPUs goes, as consecutive segments per job:
    # generator lateness, transport + handler, the service call (less the
    # backend lock wait inside it), the wait for the next dispatch round,
    # rounds that left the job at zero, and the allocating round itself.
    host_rounds = sorted(
        (s for s in tracer.spans if s.name == "host.round"), key=lambda s: s.start
    )
    segments: Dict[str, List[float]] = {
        name: []
        for name in (
            "client.gen_late", "service.http", "service.submit.self",
            "host.lock_wait", "host.timer_wait", "host.rounds_before_alloc",
            "host.alloc_round",
        )
    }
    timer_wait, rounds_to_alloc = [], []
    for result in results:
        allocated = watch.first.get(result.job_id)
        post, call = posts.get(result.job_id), calls.get(result.job_id)
        if allocated is None or result.acked is None or post is None or call is None:
            continue
        lock_s = locks[result.job_id].duration if result.job_id in locks else 0.0
        after_ack = [s for s in host_rounds if s.start >= result.acked and s.start <= allocated]
        if not after_ack:
            continue  # allocated by a round already running at the ack
        alloc_round = after_ack[-1]
        segments["client.gen_late"].append(result.sent - result.due)
        segments["service.http"].append(post.duration - call.duration)
        segments["service.submit.self"].append(call.duration - lock_s)
        segments["host.lock_wait"].append(lock_s)
        segments["host.timer_wait"].append(after_ack[0].start - result.acked)
        segments["host.rounds_before_alloc"].append(alloc_round.start - after_ack[0].start)
        segments["host.alloc_round"].append(allocated - alloc_round.start)
        timer_wait.append((after_ack[0].start - result.acked) * 1000.0)
        rounds_to_alloc.append(float(len(after_ack)))
    report.tables["dispatch_wall_s"] = span_table(tracer.spans, host_rounds)
    layer["host.timer_wait_ms_p50"] = stats.median(timer_wait) if timer_wait else None
    layer["host.rounds_to_alloc_p50"] = (
        stats.median(rounds_to_alloc) if rounds_to_alloc else None
    )
    total = sum(stats.mean(values) for values in segments.values() if values)
    report.tables["service.submit_to_alloc_ms"] = sorted(
        (
            {
                "span": name,
                "layer": name.split(".")[0],
                "calls": len(values),
                "self_s": sum(values),
                "total_s": sum(values),
                "share": stats.mean(values) / total if total else 0.0,
            }
            for name, values in segments.items()
            if values
        ),
        key=lambda row: -row["share"],
    )
