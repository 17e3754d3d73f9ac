"""Service benchmark: HTTP load against a live host + fronted-replay agreement.

Two scenarios, both driving the real stdlib HTTP stack
(:class:`repro.service.ServiceServer`) over loopback:

- **live_load** — a threaded load generator submits a burst of jobs from
  many client threads (multiple tenants) against a
  :class:`~repro.host.ThreadedBackend` running at high time compression,
  while poller threads scrape ``/metrics``, ``/healthz`` and
  ``/v1/tenants/{t}``.  Records client-side p50/p99/max submit and read
  latency, policy dispatch latency under load, decision throughput, and
  an exactly-once check (every accepted submission lands in the backend
  exactly once).  Any non-201 submit or any 5xx fails the benchmark.
- **replay_agreement** — the host-agreement guarantee must survive being
  fronted by the service: a simulator run and a service-fronted
  PolicyHost/ReplayBackend run must produce the same decision digest
  *while* GET pollers hammer the API.  Reads are read-only by
  construction (the service never calls the policy), so any divergence
  here is a bug.

Run modes:

    pytest benchmarks/bench_service.py -q -s   # assertion mode
    python benchmarks/bench_service.py         # exit 1 on any failure

``REPRO_BENCH_SCALE=smoke|reduced|paper`` selects the load size and
``REPRO_BENCH_SERVICE_OUT`` the JSON report path (default
``BENCH_service.json``).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Tuple

if __name__ == "__main__":  # script mode: make src/ and benchmarks/ importable
    _repo = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(_repo / "src"))
    sys.path.insert(0, str(_repo))

import repro.policy
from repro.cluster import ClusterSpec
from repro.core import GAConfig, PolluxSchedConfig
from repro.host import PolicyHost, ReplayBackend, ThreadedBackend, ThreadedConfig
from repro.service import SchedulerService, ServiceServer
from repro.sim import SimConfig, Simulator, decision_digest
from repro.workload import TraceConfig, generate_trace

from benchmarks.common import SCALE, print_header

#: Load-generator sizing per benchmark scale: (client threads, submissions
#: per thread, cluster nodes, GPUs per node).  The reduced/paper presets
#: push >=1k total submissions through the HTTP front door.
_LOAD = {
    "smoke": (8, 8, 2, 4),
    "reduced": (32, 32, 8, 8),
    "paper": (64, 32, 16, 8),
}

#: Host time per wall second in the live_load scenario.  At 2000x the
#: 120 s scheduling cadence fires every 60 ms of wall clock and a 1-GPU
#: neumf job (~800 host seconds) spans ~8 worker quanta.
_TIME_SCALE = 2000.0
_SCHED_INTERVAL = 120.0

_NUM_TENANTS = 8


# ----------------------------------------------------------------------
# Tiny HTTP client (stdlib, no sessions: one request per call)
# ----------------------------------------------------------------------


def _request(
    url: str,
    method: str = "GET",
    body: Optional[dict] = None,
    tenant: Optional[str] = None,
) -> Tuple[int, float, bytes]:
    """Returns (status, seconds, body); 4xx/5xx are statuses, not raises.

    Transport failures (connection reset under burst load) retry twice and
    then surface as status 0 — the benchmark counts them as failures
    rather than killing the client thread.
    """
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if tenant is not None:
        req.add_header("X-Tenant", tenant)
    t0 = time.perf_counter()
    for attempt in range(3):
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                payload = resp.read()
                return resp.status, time.perf_counter() - t0, payload
        except urllib.error.HTTPError as exc:
            payload = exc.read()
            return exc.code, time.perf_counter() - t0, payload
        except OSError:
            if attempt == 2:
                return 0, time.perf_counter() - t0, b""
            time.sleep(0.05 * (attempt + 1))
    return 0, time.perf_counter() - t0, b""


def _percentile(sorted_vals: List[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, round(q * (len(sorted_vals) - 1)))
    return sorted_vals[idx]


def _latency_stats(samples: List[float]) -> Dict[str, float]:
    ordered = sorted(samples)
    return {
        "count": len(ordered),
        "p50_ms": round(_percentile(ordered, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(ordered, 0.99) * 1e3, 3),
        "max_ms": round((ordered[-1] if ordered else 0.0) * 1e3, 3),
    }


# ----------------------------------------------------------------------
# Scenario 1: live load against a ThreadedBackend
# ----------------------------------------------------------------------


def run_live_load() -> Dict[str, object]:
    threads, per_thread, nodes, gpus_per_node = _LOAD.get(
        SCALE.name, _LOAD["reduced"]
    )
    total = threads * per_thread
    cluster = ClusterSpec.homogeneous(nodes, gpus_per_node)
    backend = ThreadedBackend(
        cluster,
        ThreadedConfig(
            time_scale=_TIME_SCALE,
            quantum_seconds=0.05,
            scheduling_interval=_SCHED_INTERVAL,
            agent_interval=_SCHED_INTERVAL,
        ),
    )
    host = PolicyHost(
        repro.policy.create("tiresias", cluster=cluster, seed=0), backend
    )
    host.start()
    service = SchedulerService(host)
    server = ServiceServer(service).start()
    base = server.url

    submit_latencies: List[List[float]] = [[] for _ in range(threads)]
    submit_statuses: Dict[int, int] = {}
    read_latencies: List[float] = []
    read_statuses: Dict[int, int] = {}
    status_lock = threading.Lock()
    stop_polling = threading.Event()

    def submitter(worker: int) -> None:
        tenant = f"team-{worker % _NUM_TENANTS:02d}"
        for i in range(per_thread):
            idx = worker * per_thread + i
            model = "resnet18-cifar10" if idx % 5 == 0 else "neumf-movielens"
            status, dt, _ = _request(
                f"{base}/v1/jobs",
                "POST",
                {"model": model, "num_gpus": 1, "name": f"load-{idx:05d}"},
                tenant=tenant,
            )
            if status == 409:
                # A transport-retried POST whose first attempt landed:
                # confirm the job exists and count it as accepted.
                check, _, _ = _request(
                    f"{base}/v1/jobs/{tenant}/load-{idx:05d}", tenant=tenant
                )
                if check == 200:
                    status = 201
            submit_latencies[worker].append(dt)
            with status_lock:
                submit_statuses[status] = submit_statuses.get(status, 0) + 1

    def poller(worker: int) -> None:
        paths = ["/metrics", "/healthz", f"/v1/tenants/team-{worker:02d}"]
        while not stop_polling.is_set():
            for path in paths:
                status, dt, payload = _request(base + path)
                if path == "/healthz" and status == 503:
                    # A poll that lands after the drain has ended the loop
                    # reads "stopped"; anything else is a failure.
                    if json.loads(payload)["status"] == "stopped":
                        continue
                with status_lock:
                    read_latencies.append(dt)
                    read_statuses[status] = read_statuses.get(status, 0) + 1
            stop_polling.wait(0.05)

    t0 = time.perf_counter()
    pollers = [
        threading.Thread(target=poller, args=(i,), daemon=True) for i in range(2)
    ]
    submitters = [
        threading.Thread(target=submitter, args=(i,), daemon=True)
        for i in range(threads)
    ]
    for thread in pollers + submitters:
        thread.start()
    for thread in submitters:
        thread.join()
    submit_wall_s = time.perf_counter() - t0

    result = host.drain(timeout=600.0)
    wall_s = time.perf_counter() - t0
    stop_polling.set()
    for thread in pollers:
        thread.join(timeout=5.0)

    # Exactly-once: every accepted submission produced exactly one backend
    # record, and the tenant ledgers account for all of them.
    record_names = [r.name for r in result.records] if result else []
    landed_once = len(record_names) == total and len(set(record_names)) == total
    ledger_total = 0
    completed_total = 0
    for t in range(_NUM_TENANTS):
        status, _, payload = _request(f"{base}/v1/tenants/team-{t:02d}")
        usage = json.loads(payload)
        ledger_total += usage["submitted_total"]
        completed_total += usage["completed_total"]

    status, _, metrics_page = _request(f"{base}/metrics")
    metrics_lines = metrics_page.decode().strip().split("\n")
    summary = host.metrics.summary()
    server.close()

    all_submits = sorted(dt for lat in submit_latencies for dt in lat)
    server_errors = sum(
        count
        for statuses in (submit_statuses, read_statuses)
        for code, count in statuses.items()
        if code >= 500
    )
    ok = (
        submit_statuses.get(201, 0) == total
        and len(submit_statuses) == 1
        and server_errors == 0
        and landed_once
        and ledger_total == total
        and completed_total == total
        and status == 200
    )
    return {
        "client_threads": threads,
        "jobs_submitted": total,
        "jobs_completed": completed_total,
        "submit_statuses": {str(k): v for k, v in sorted(submit_statuses.items())},
        "read_statuses": {str(k): v for k, v in sorted(read_statuses.items())},
        "http_5xx": server_errors,
        "landed_exactly_once": landed_once,
        "submit_latency": _latency_stats(all_submits),
        "read_latency": _latency_stats(read_latencies),
        "submit_wall_s": round(submit_wall_s, 3),
        "wall_s": round(wall_s, 3),
        "submits_per_s": round(total / submit_wall_s, 1),
        "host_rounds": summary["rounds"],
        "scheduling_rounds": summary["scheduling_rounds"],
        "decisions_applied": summary["decisions_applied"],
        "decisions_per_s": round(summary["decisions_applied"] / wall_s, 1),
        "dispatch_mean_latency_s": round(summary["mean_latency_s"], 6),
        "dispatch_max_latency_s": round(summary["max_latency_s"], 6),
        "metrics_page_lines": len(metrics_lines),
        "ok": ok,
    }


# ----------------------------------------------------------------------
# Scenario 2: digest agreement with a service-fronted replay host
# ----------------------------------------------------------------------


def run_replay_agreement() -> Dict[str, object]:
    cluster = ClusterSpec.homogeneous(SCALE.num_nodes, SCALE.gpus_per_node)
    trace = generate_trace(
        TraceConfig(
            num_jobs=SCALE.num_jobs,
            duration_hours=SCALE.duration_hours,
            seed=1,
            max_gpus=cluster.total_gpus,
            gpus_per_node=SCALE.gpus_per_node,
        )
    )
    sim_config = SimConfig(seed=1001, max_hours=SCALE.max_hours)

    def make_policy(name: str):
        if repro.policy.canonical(name) == "pollux":
            return repro.policy.create(
                name,
                cluster=cluster,
                seed=0,
                config=PolluxSchedConfig(
                    ga=GAConfig(
                        population_size=SCALE.ga_population,
                        generations=SCALE.ga_generations,
                    )
                ),
            )
        return repro.policy.create(name, cluster=cluster, seed=0)

    runs: Dict[str, object] = {}
    ok = True
    for name in ("tiresias", "pollux"):
        sim_digest = decision_digest(
            Simulator(cluster, make_policy(name), trace, sim_config).run()
        )
        host = PolicyHost(
            make_policy(name), ReplayBackend(cluster, trace, sim_config)
        )
        server = ServiceServer(SchedulerService(host)).start()
        base = server.url
        gets = {"count": 0, "5xx": 0}
        gets_lock = threading.Lock()
        stop_polling = threading.Event()

        def poller() -> None:
            probe_job = trace[0].name
            paths = [
                "/healthz",
                "/metrics",
                "/v1/tenants/default",
                f"/v1/jobs/{probe_job}",
            ]
            while not stop_polling.is_set():
                for path in paths:
                    status, _, _ = _request(base + path)
                    with gets_lock:
                        gets["count"] += 1
                        if status >= 500:
                            gets["5xx"] += 1

        threads = [threading.Thread(target=poller, daemon=True) for _ in range(2)]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        host_digest = decision_digest(host.run())
        stop_polling.set()
        for thread in threads:
            thread.join(timeout=5.0)
        server.close()
        match = sim_digest == host_digest
        ok = ok and match and gets["5xx"] == 0
        runs[name] = {
            "simulator_digest": sim_digest,
            "service_host_digest": host_digest,
            "match": match,
            "gets_served": gets["count"],
            "get_5xx": gets["5xx"],
            "wall_s": round(time.perf_counter() - t0, 3),
        }
    return {"runs": runs, "ok": ok}


# ----------------------------------------------------------------------
# Report / entry points
# ----------------------------------------------------------------------


def run_bench() -> Dict[str, object]:
    live = run_live_load()
    agreement = run_replay_agreement()
    return {
        "scale": SCALE.name,
        "live_load": live,
        "replay_agreement": agreement,
        "ok": bool(live["ok"] and agreement["ok"]),
    }


def _print_report(data: Dict[str, object]) -> None:
    print_header("Scheduler service: HTTP load + fronted-replay agreement")
    live = data["live_load"]
    print(
        f"live_load: {live['jobs_submitted']} jobs from "
        f"{live['client_threads']} client threads "
        f"({live['submits_per_s']}/s), completed {live['jobs_completed']}"
    )
    print(
        f"  submit p50 {live['submit_latency']['p50_ms']} ms  "
        f"p99 {live['submit_latency']['p99_ms']} ms  "
        f"| reads {live['read_latency']['count']} "
        f"p99 {live['read_latency']['p99_ms']} ms  "
        f"| 5xx {live['http_5xx']}"
    )
    print(
        f"  dispatch mean {live['dispatch_mean_latency_s'] * 1e3:.1f} ms  "
        f"max {live['dispatch_max_latency_s'] * 1e3:.1f} ms over "
        f"{live['host_rounds']} rounds, "
        f"{live['decisions_per_s']} decisions/s"
    )
    for name, run in data["replay_agreement"]["runs"].items():
        status = "MATCH   " if run["match"] else "DIVERGED"
        print(
            f"replay_agreement/{name:10s} {status} "
            f"{run['gets_served']:5d} GETs ({run['get_5xx']} 5xx)  "
            f"digest {run['simulator_digest'][:12]}"
        )
    print(f"=> {'OK' if data['ok'] else 'FAILED'}")


def test_service_bench() -> None:
    data = run_bench()
    _print_report(data)
    live = data["live_load"]
    assert live["submit_statuses"] == {"201": str(live["jobs_submitted"])} or (
        live["submit_statuses"].get("201") == live["jobs_submitted"]
    ), f"non-201 submits: {live['submit_statuses']}"
    assert live["http_5xx"] == 0
    assert live["landed_exactly_once"]
    for name, run in data["replay_agreement"]["runs"].items():
        assert run["match"], f"{name}: digest diverged behind the service"
        assert run["get_5xx"] == 0, f"{name}: {run['get_5xx']} 5xx under read load"


def main(argv: Optional[List[str]] = None) -> int:
    del argv
    data = run_bench()
    _print_report(data)
    out_path = Path(os.environ.get("REPRO_BENCH_SERVICE_OUT", "BENCH_service.json"))
    out_path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    return 0 if data["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
