"""Tests for the multi-tenant scheduling service (repro.service).

Three layers under test: the tenant accounting primitives (quota math,
name validation), the transport-free :class:`SchedulerService`
operations (admission, isolation, cancel, reconciliation), and the stdlib
HTTP stack end-to-end (status codes, error envelopes, the Prometheus
exposition page).  The load-bearing guarantee rides at the bottom:
fronting a PolicyHost with the service must not perturb the policy
decision stream, so a service-fronted replay run reproduces the
simulator's decision digest bit-for-bit even while reads hammer the API.
"""

import json
import logging
import math
import re
from pathlib import Path
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.host.replay
import repro.policy
import repro.service.api
from repro.cluster import ClusterSpec
from repro.core import GAConfig, PolluxSchedConfig
from repro.host import PolicyHost, ReplayBackend, ThreadedBackend, ThreadedConfig
from repro.host.service import HostMetrics, RoundMetrics
from repro.service import (
    JobEntry,
    SchedulerService,
    ServiceError,
    ServiceServer,
    TenantAccount,
    render_metrics,
    valid_tenant_name,
)
from repro.sim import SimConfig, Simulator, decision_digest
from repro.workload import MODEL_ZOO, JobSpec, TraceConfig, generate_trace


def quick_policy(name: str, cluster: ClusterSpec, **kwargs):
    return repro.policy.create(name, cluster=cluster, seed=0, **kwargs)


def fast_threaded(cluster, **kwargs):
    defaults = dict(time_scale=2400.0, quantum_seconds=0.01)
    defaults.update(kwargs)
    return ThreadedBackend(cluster, ThreadedConfig(**defaults))


def make_service(cluster=None, policy="tiresias", **service_kwargs):
    """A started host+service on a fast threaded backend."""
    cluster = cluster or ClusterSpec.homogeneous(2, 4)
    backend = fast_threaded(cluster)
    host = PolicyHost(quick_policy(policy, cluster), backend)
    host.start()
    return SchedulerService(host, **service_kwargs), host


def spec(name, model="neumf-movielens", t=0.0, gpus=1, bs=256):
    return JobSpec(name, MODEL_ZOO[model], t, gpus, bs)


# ----------------------------------------------------------------------
# Tenant primitives
# ----------------------------------------------------------------------


class TestTenantPrimitives:
    def test_tenant_name_validation(self):
        assert valid_tenant_name("teamA")
        assert valid_tenant_name("a-b_c.d")
        assert not valid_tenant_name("")
        assert not valid_tenant_name("-leading")
        assert not valid_tenant_name("has/slash")
        assert not valid_tenant_name("x" * 65)

    def test_quota_charge_release(self):
        account = TenantAccount("t", quota_eq=4.0)
        entry = JobEntry("t/a", "t", spec("t/a", gpus=3), 3.0, 0.0)
        assert account.can_admit(3.0)
        account.charge(entry)
        assert account.demand_eq == 3.0
        assert not account.can_admit(2.0)
        assert account.can_admit(1.0)
        entry.state = "complete"
        account.release(entry)
        assert account.demand_eq == 0.0
        assert account.completed_total == 1
        assert account.entries == []

    def test_unlimited_quota_by_default(self):
        account = TenantAccount("t")
        assert account.quota_eq == math.inf
        assert account.can_admit(1e9)



# ----------------------------------------------------------------------
# SchedulerService operations (no sockets)
# ----------------------------------------------------------------------


class TestSchedulerService:
    def test_submit_status_complete_lifecycle(self):
        service, host = make_service()
        try:
            status = service.submit(
                "teamA", {"model": "neumf-movielens", "num_gpus": 2}
            )
            assert status["job_id"] == "teamA/job-00000"
            assert status["state"] not in ("complete", "cancelled")
            result = host.drain(timeout=120.0)
            assert result is not None
            assert service.job_status("teamA", "teamA/job-00000")["state"] == (
                "complete"
            )
            usage = service.tenant_usage("teamA")
            assert usage["completed_total"] == 1
            assert usage["demand_gpu_equivalents"] == 0.0
        finally:
            host.stop()

    def test_submitted_job_reads_pending_before_admission(self):
        """A live job no tick has admitted yet is found by the backend and
        reads ``pending``, not the service's not-found fallback."""
        cluster = ClusterSpec.homogeneous(2, 4)
        backend = fast_threaded(cluster)
        # Never started: no tick runs, so the job stays in the engine's
        # not-yet-admitted tail.
        host = PolicyHost(quick_policy("tiresias", cluster), backend)
        service = SchedulerService(host)
        job_id = service.submit("teamA", {"model": "neumf-movielens"})["job_id"]
        found = host.find_job(job_id)
        assert found is not None and found.name == job_id
        assert backend.engine.jobs.index(found) >= backend.engine._next_submit_idx
        status = service.job_status("teamA", job_id)
        assert status["state"] == "pending"
        assert status["allocated_gpus"] == 0

    def test_submit_validation_errors(self):
        service, host = make_service()
        try:
            with pytest.raises(ServiceError) as err:
                service.submit("t", ["not", "an", "object"])
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                service.submit("t", {"model": "not-a-model"})
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                service.submit("t", {"model": "neumf-movielens", "num_gpus": 0})
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                service.submit("t", {"model": "neumf-movielens", "num_gpus": 999})
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                service.submit("t", {"model": "neumf-movielens", "name": "a/b"})
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                service.submit("bad tenant!", {"model": "neumf-movielens"})
            assert err.value.status == 400
        finally:
            host.stop()

    def test_quota_enforced_with_retry_after(self):
        service, host = make_service(quotas={"small": 2.0})
        try:
            service.submit("small", {"model": "neumf-movielens", "num_gpus": 2})
            with pytest.raises(ServiceError) as err:
                service.submit("small", {"model": "neumf-movielens", "num_gpus": 1})
            assert err.value.status == 429
            assert err.value.retry_after == host.backend.config.scheduling_interval
            assert service.tenant_usage("small")["rejected_total"] == 1
        finally:
            host.stop()

    def test_quota_rejection_is_logged(self, caplog):
        caplog.set_level(logging.INFO, logger="repro.service")
        service, host = make_service(quotas={"small": 2.0})
        try:
            service.submit("small", {"model": "neumf-movielens", "num_gpus": 2})
            with pytest.raises(ServiceError):
                service.submit("small", {"model": "neumf-movielens", "num_gpus": 1})
        finally:
            host.stop()
        rejections = [
            r
            for r in caplog.records
            if r.name == "repro.service" and r.levelno == logging.INFO
        ]
        assert [r.getMessage() for r in rejections] == [
            "quota rejection: tenant small demand 2 + 1 > quota 2"
        ]

    def test_reading_an_unknown_tenant_creates_no_account(self):
        """A tenant read answers with the default quota and zero counters,
        and adds no per-tenant series to /metrics: only submit creates."""
        service, host = make_service(default_quota=4.0)
        try:
            service.submit("teamA", {"model": "neumf-movielens"})
            before = set(re.findall(r'tenant="([^"]+)"', render_metrics(service)))
            for name in ("probe-1", "probe-2", "probe-3"):
                usage = service.tenant_usage(name)
                assert usage["quota_gpu_equivalents"] == 4.0
                assert usage["demand_gpu_equivalents"] == 0.0
                assert usage["active_jobs"] == usage["submitted_total"] == 0
                assert usage["rejected_total"] == usage["completed_total"] == 0
            after = set(re.findall(r'tenant="([^"]+)"', render_metrics(service)))
        finally:
            host.stop()
        assert before == after == {"teamA"}

    def test_duplicate_name_conflicts(self):
        service, host = make_service()
        try:
            service.submit("t", {"model": "neumf-movielens", "name": "train"})
            with pytest.raises(ServiceError) as err:
                service.submit("t", {"model": "neumf-movielens", "name": "train"})
            assert err.value.status == 409
        finally:
            host.stop()

    def test_tenant_isolation_status_and_cancel(self):
        service, host = make_service(observer_tenant=None)
        try:
            job_id = service.submit("teamA", {"model": "neumf-movielens"})["job_id"]
            with pytest.raises(ServiceError) as err:
                service.job_status("teamB", job_id)
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                service.cancel("teamB", job_id)
            assert err.value.status == 404
            # The owner still sees it.
            assert service.job_status("teamA", job_id)["tenant"] == "teamA"
        finally:
            host.stop()

    def test_cancel_live_job_releases_quota(self):
        service, host = make_service(quotas={"t": 2.0})
        try:
            job_id = service.submit(
                "t", {"model": "resnet18-cifar10", "num_gpus": 2}
            )["job_id"]
            cancelled = service.cancel("t", job_id)
            assert cancelled["state"] == "cancelled"
            usage = service.tenant_usage("t")
            assert usage["demand_gpu_equivalents"] == 0.0
            assert usage["cancelled_total"] == 1
            with pytest.raises(ServiceError) as err:
                service.cancel("t", job_id)
            assert err.value.status == 409
            # Quota is free again.
            service.submit("t", {"model": "neumf-movielens", "num_gpus": 2})
        finally:
            host.stop()

    def test_rotated_out_records_release_quota(self, monkeypatch):
        """A completed job whose record left the backend's bounded history
        still completes in the service: its demand is released and its
        status reads ``complete``."""
        monkeypatch.setattr(repro.host.replay, "_HISTORY_LIMIT", 2)
        service, host = make_service(quotas={"t": 4.0})
        try:
            job_ids = [
                service.submit("t", {"model": "neumf-movielens"})["job_id"]
                for _ in range(4)
            ]
            assert host.drain(timeout=120.0) is not None
            assert sum(host.find_job(job_id) is None for job_id in job_ids) == 2
            service.reconcile()
            usage = service.tenant_usage("t")
            assert usage["demand_gpu_equivalents"] == 0.0
            assert usage["completed_total"] == 4
            assert usage["active_jobs"] == 0
            for job_id in job_ids:
                assert service.job_status("t", job_id)["state"] == "complete"
        finally:
            host.stop()

    def test_unknown_job_404(self):
        service, host = make_service(observer_tenant=None)
        try:
            with pytest.raises(ServiceError) as err:
                service.job_status("t", "t/nope")
            assert err.value.status == 404
        finally:
            host.stop()

    def test_concurrent_submits_land_exactly_once(self):
        service, host = make_service()
        threads_n, per_thread = 8, 8
        try:
            def submitter(worker):
                for i in range(per_thread):
                    service.submit(
                        f"team-{worker}",
                        {"model": "neumf-movielens", "name": f"job-{i:03d}"},
                    )

            threads = [
                threading.Thread(target=submitter, args=(w,))
                for w in range(threads_n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            result = host.drain(timeout=120.0)
            assert result is not None
            names = [r.name for r in result.records]
            assert len(names) == threads_n * per_thread
            assert len(set(names)) == threads_n * per_thread
            total_completed = sum(
                service.tenant_usage(f"team-{w}")["completed_total"]
                for w in range(threads_n)
            )
            assert total_completed == threads_n * per_thread
        finally:
            host.stop()

    def test_healthz_shape(self):
        service, host = make_service()
        try:
            health = service.healthz()
            assert health["status"] == "ok"
            assert health["running"] is True
            assert health["policy"] == "tiresias"
            assert health["backend"] == "ThreadedBackend"
        finally:
            host.stop()

    def test_failed_backend_submit_charges_nothing(self):
        """A submit the backend refuses leaves no entry and no charge, so
        a retry under the same name is admitted."""
        cluster = ClusterSpec.homogeneous(1, 4)
        backend = fast_threaded(cluster)
        host = PolicyHost(quick_policy("tiresias", cluster), backend)
        service = SchedulerService(host, quotas={"t": 4.0})
        inner = backend.submit

        def submit_once_failing(job_spec):
            backend.submit = inner
            raise RuntimeError("backend refused the job")

        backend.submit = submit_once_failing
        payload = {"model": "neumf-movielens", "num_gpus": 2, "name": "train"}
        with pytest.raises(RuntimeError):
            service.submit("t", payload)
        usage = service.tenant_usage("t")
        assert usage["demand_gpu_equivalents"] == 0.0
        assert usage["submitted_total"] == 0
        assert service.submit("t", payload)["state"] == "pending"
        assert service.tenant_usage("t")["demand_gpu_equivalents"] == 2.0

    def test_replay_backend_rejects_submissions(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = generate_trace(
            TraceConfig(num_jobs=4, duration_hours=0.5, seed=1, max_gpus=4)
        )
        config = SimConfig(seed=1001, max_hours=30.0)
        host = PolicyHost(
            quick_policy("tiresias", cluster), ReplayBackend(cluster, trace, config)
        )
        service = SchedulerService(host)
        with pytest.raises(ServiceError) as err:
            service.submit("t", {"model": "neumf-movielens"})
        assert err.value.status == 503


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (?:[+-]?(?:\d+\.?\d*(?:e[+-]?\d+)?|Inf|NaN))$",
    re.IGNORECASE,
)


def assert_valid_exposition(page: str):
    """Every line is a comment or a sample, and every sample's metric
    family was declared with # TYPE before its first sample."""
    typed = set()
    samples = 0
    for line in page.strip().split("\n"):
        if line.startswith("# TYPE "):
            typed.add(line.split()[2])
            continue
        if line.startswith("#"):
            continue
        assert _SAMPLE_RE.match(line), f"bad exposition line: {line!r}"
        name = re.split(r"[{ ]", line, 1)[0]
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in typed or family in typed, f"undeclared family: {name}"
        samples += 1
    return samples


class TestMetricsExport:
    def test_metrics_page_is_valid_exposition(self):
        service, host = make_service(quotas={"teamA": 8.0})
        try:
            service.submit("teamA", {"model": "neumf-movielens", "num_gpus": 2})
            service.observe_http("POST", 201)
            page = render_metrics(service)
            samples = assert_valid_exposition(page)
            assert samples > 20
            assert 'scheduler_tenant_quota_gpu_equivalents{tenant="teamA"} 8' in page
            assert 'scheduler_http_requests_total{method="POST",code="201"} 1' in page
            assert "scheduler_dispatch_latency_seconds_bucket" in page
            assert "\nscheduler_policy_errors_total 0\n" in page
        finally:
            host.stop()

    def test_histogram_counts_rounds_beyond_the_history(self):
        """Rounds the bounded history dropped still count in the histogram,
        whose ``_count`` is the ``+Inf`` bucket and the rounds total."""
        cluster = ClusterSpec.homogeneous(2, 4)
        host = PolicyHost(quick_policy("tiresias", cluster), fast_threaded(cluster))
        host.metrics = HostMetrics(history_limit=4)
        for i in range(10):
            host.metrics.record(
                RoundMetrics(i * 60.0, 0.002 * i, 1, True, 1, 0, False, 0.0)
            )
        page = render_metrics(SchedulerService(host))
        name = "scheduler_dispatch_latency_seconds"
        assert f"{name}_count 10\n" in page
        assert f'{name}_bucket{{le="+Inf"}} 10\n' in page
        assert "\nscheduler_rounds_total 10\n" in page
        # Latencies 0, 0.002, ..., 0.018 s: 1 at <= 1 ms, 3 at <= 5 ms.
        assert f'{name}_bucket{{le="0.001"}} 1\n' in page
        assert f'{name}_bucket{{le="0.005"}} 3\n' in page
        assert f'{name}_bucket{{le="0.025"}} 10\n' in page

    def test_histogram_counts_rounds_incrementally(self):
        service, host = make_service()
        try:
            host.drain(timeout=60.0)
            page = render_metrics(service)
            rounds = host.metrics.summary()["rounds"]
            assert f"scheduler_dispatch_latency_seconds_count {rounds}" in page
            # A second scrape must not double-count.
            page = render_metrics(service)
            assert f"scheduler_dispatch_latency_seconds_count {rounds}" in page
        finally:
            host.stop()

    def test_round_phases_are_times_only(self):
        service, host = make_service(policy="pollux")
        try:
            service.submit("t", {"model": "neumf-movielens", "num_gpus": 2})
            deadline = time.monotonic() + 30.0
            while not host.policy.last_phase_timings:
                assert time.monotonic() < deadline, "no Pollux round ran"
                time.sleep(0.01)
        finally:
            host.stop()
        # A flag in the timings is not a phase and is not exported as one.
        host.policy.last_phase_timings["fallback"] = 1.0
        page = render_metrics(service)
        phases = set(
            re.findall(r'^scheduler_round_phase_seconds\{phase="(\w+)"', page, re.M)
        )
        assert {"table", "repair", "total"} <= phases
        assert phases <= {
            "table",
            "repair",
            "fitness",
            "select",
            "mutate",
            "ipc",
            "total",
        }


_OPERATING_GUIDE = Path(__file__).resolve().parents[1] / "docs" / "operating.md"


def documented_series():
    """Series rows of the operator guide's ``/metrics`` reference tables."""
    guide = _OPERATING_GUIDE.read_text(encoding="utf-8")
    reference = guide.split("## `/metrics` reference", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(scheduler_\w+)` \|", reference, re.M))


def sampled_series(page):
    """Metric families with at least one sample on a ``/metrics`` page."""
    typed = set(re.findall(r"^# TYPE (\w+) ", page, re.M))
    names = re.findall(r"^(\w+)[{ ]", page, re.M)
    return {
        name if name in typed else re.sub(r"_(bucket|sum|count)$", "", name)
        for name in names
    }


class TestMetricsReference:
    def test_docs_table_lists_every_exported_series(self):
        """The union of a pollux and a pollux-sharded page is the guide's
        metrics reference, row for row."""
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = [spec("j", gpus=2)]
        config = SimConfig(seed=1, max_hours=0.02)
        exported = set()
        for name in ("pollux", "pollux-sharded"):
            policy = quick_policy(
                name,
                cluster,
                config=PolluxSchedConfig(ga=GAConfig(population_size=8, generations=4)),
            )
            host = PolicyHost(policy, ReplayBackend(cluster, trace, config))
            host.run()
            service = SchedulerService(host, quotas={"t": 4.0})
            service.observe_http("GET", 200)
            exported |= sampled_series(render_metrics(service))
        assert exported == documented_series()


# ----------------------------------------------------------------------
# HTTP stack end-to-end
# ----------------------------------------------------------------------


def http(url, method="GET", body=None, tenant=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if tenant:
        req.add_header("X-Tenant", tenant)
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.read().decode(), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), dict(exc.headers)


@pytest.fixture()
def served():
    service, host = make_service(quotas={"capped": 1.0})
    server = ServiceServer(service).start()
    try:
        yield server.url
    finally:
        server.close()
        host.stop()


class TestHTTPStack:
    def test_submit_status_cancel_over_http(self, served):
        status, body, _ = http(
            f"{served}/v1/jobs",
            "POST",
            {"model": "neumf-movielens", "num_gpus": 1, "name": "train"},
            tenant="teamA",
        )
        assert status == 201
        job_id = json.loads(body)["job_id"]
        assert job_id == "teamA/train"
        status, body, _ = http(f"{served}/v1/jobs/{job_id}", tenant="teamA")
        assert status == 200
        status, body, _ = http(f"{served}/v1/jobs/{job_id}", "DELETE", tenant="teamA")
        assert status == 200
        assert json.loads(body)["state"] == "cancelled"

    def test_malformed_json_is_400(self, served):
        req = urllib.request.Request(
            f"{served}/v1/jobs", data=b"{oops", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400
        assert "JSON" in json.loads(err.value.read())["error"]

    def test_empty_body_is_400(self, served):
        status, body, _ = http(f"{served}/v1/jobs", "POST")
        assert status == 400

    def test_over_quota_is_429_with_retry_after(self, served):
        status, _, _ = http(
            f"{served}/v1/jobs",
            "POST",
            {"model": "neumf-movielens"},
            tenant="capped",
        )
        assert status == 201
        status, body, headers = http(
            f"{served}/v1/jobs",
            "POST",
            {"model": "neumf-movielens"},
            tenant="capped",
        )
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert "quota" in json.loads(body)["error"]

    def test_cross_tenant_get_is_404(self, served):
        status, _, _ = http(
            f"{served}/v1/jobs",
            "POST",
            {"model": "neumf-movielens", "name": "secret"},
            tenant="teamA",
        )
        assert status == 201
        status, _, _ = http(f"{served}/v1/jobs/teamA/secret", tenant="teamB")
        assert status == 404

    def test_unknown_routes_are_404(self, served):
        for method, path in [
            ("GET", "/nope"),
            ("GET", "/v1/jobs"),
            ("DELETE", "/v1/tenants/t"),
            ("POST", "/healthz"),
        ]:
            status, _, _ = http(f"{served}{path}", method)
            assert status == 404, f"{method} {path}"

    def test_healthz_and_tenants_over_http(self, served):
        status, body, _ = http(f"{served}/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        status, body, _ = http(f"{served}/v1/tenants/teamA")
        assert status == 200
        assert json.loads(body)["tenant"] == "teamA"

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_healthz_is_503_over_a_dead_loop(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        backend = fast_threaded(cluster)

        # The live host contains policy errors; a backend fault still ends
        # the loop.
        def advance(until):
            raise RuntimeError("backend failure")

        backend.advance = advance
        host = PolicyHost(quick_policy("tiresias", cluster), backend)
        service = SchedulerService(host)
        server = ServiceServer(service).start()
        try:
            host.start()
            deadline = time.monotonic() + 10.0
            while host.running and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not host.running
            status, body, _ = http(f"{server.url}/healthz")
            assert status == 503
            assert json.loads(body)["status"] == "dead"
            host.stop()
            status, body, _ = http(f"{server.url}/healthz")
            assert status == 503
            assert json.loads(body)["status"] == "stopped"
        finally:
            server.close()
            host.stop()

    def test_healthz_degrades_on_errors_and_recovers(self):
        """A policy error in one of the last rounds reads ``degraded``
        (503); enough rounds without one bring ``ok`` back."""
        cluster = ClusterSpec.homogeneous(2, 4)
        window = repro.service.api._HEALTH_WINDOW_ROUNDS

        class Flaky(repro.policy.Policy):
            """Fails every other call while ``failing``: never often enough
            in a row to open the circuit."""

            name = "flaky"

            def __init__(self):
                self.calls = 0
                self.failing = True

            def schedule(self, now, state):
                self.calls += 1
                if self.failing and self.calls % 2:
                    raise RuntimeError("policy bug")
                return repro.policy.ScheduleDecision()

        policy = Flaky()
        host = PolicyHost(policy, fast_threaded(cluster))
        service = SchedulerService(host)
        server = ServiceServer(service).start()
        try:
            host.start()
            deadline = time.monotonic() + 30.0
            while host.metrics.summary()["policy_errors"] < 2:
                assert time.monotonic() < deadline, "no failed round"
                time.sleep(0.005)
            status, body, _ = http(f"{server.url}/healthz")
            health = json.loads(body)
            assert status == 503 and health["status"] == "degraded"
            assert health["circuit_open"] is False
            assert health["last_round_age_s"] >= 0.0
            policy.failing = False
            settled = host.metrics.summary()["rounds"] + window + 2
            while host.metrics.summary()["rounds"] < settled:
                assert time.monotonic() < deadline, "dispatch stopped"
                time.sleep(0.005)
            status, body, _ = http(f"{server.url}/healthz")
            assert status == 200 and json.loads(body)["status"] == "ok"
        finally:
            server.close()
            host.stop()

    def test_healthz_degraded_while_the_circuit_is_open(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        host = PolicyHost(quick_policy("tiresias", cluster), fast_threaded(cluster))
        service = SchedulerService(host)
        assert service.healthz()["status"] == "ok"  # a loop not on its thread
        assert "\nscheduler_policy_circuit_open 0\n" in render_metrics(service)
        host.metrics.circuit_open = True
        health = service.healthz()
        assert health["status"] == "degraded" and health["circuit_open"] is True
        assert "\nscheduler_policy_circuit_open 1\n" in render_metrics(service)

    def test_healthz_is_dead_over_a_stale_loop(self):
        """A loop thread that is alive but whose last round is older than
        three shortest timers reads ``dead``."""
        cluster = ClusterSpec.homogeneous(2, 4)
        backend = fast_threaded(cluster)
        stall, stalled, release = (threading.Event() for _ in range(3))
        advance = backend.advance

        def stalling_advance(until):
            if stall.is_set():
                stalled.set()
                release.wait(10.0)
            else:
                advance(until)

        backend.advance = stalling_advance
        host = PolicyHost(quick_policy("tiresias", cluster), backend)
        service = SchedulerService(host)
        try:
            host.start()
            stall.set()
            assert stalled.wait(10.0)
            assert service.healthz()["status"] == "ok"
            config = backend.config
            shortest = min(config.scheduling_interval, config.agent_interval)
            backend.engine.now = host.metrics.last_round_time + 3 * shortest + 1.0
            health = service.healthz()
            assert health["running"] is True and health["status"] == "dead"
            assert health["last_round_age_s"] == 3 * shortest + 1.0
        finally:
            release.set()
            host.stop()

    def test_metrics_scrape_parses(self, served):
        http(
            f"{served}/v1/jobs",
            "POST",
            {"model": "neumf-movielens"},
            tenant="teamA",
        )
        status, body, headers = http(f"{served}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        samples = assert_valid_exposition(body)
        assert samples > 20
        assert 'scheduler_http_requests_total{method="POST",code="201"} 1' in body


# ----------------------------------------------------------------------
# Host agreement: the service front-end must not move decision streams
# ----------------------------------------------------------------------


class TestServiceAgreement:
    def test_service_fronted_replay_matches_simulator(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = generate_trace(
            TraceConfig(
                num_jobs=6,
                duration_hours=0.5,
                seed=1,
                max_gpus=cluster.total_gpus,
                gpus_per_node=cluster.max_gpus_per_node,
            )
        )
        config = SimConfig(seed=1001, max_hours=30.0)
        sim_digest = decision_digest(
            Simulator(cluster, quick_policy("tiresias", cluster), trace, config).run()
        )
        host = PolicyHost(
            quick_policy("tiresias", cluster), ReplayBackend(cluster, trace, config)
        )
        service = SchedulerService(host)
        stop_reading = threading.Event()
        reads = {"count": 0}

        def reader():
            # Hammer every read path while the replay run executes.
            probe = trace[0].name
            while not stop_reading.is_set():
                service.healthz()
                render_metrics(service)
                service.tenant_usage("default")
                try:
                    service.job_status("default", probe)
                except ServiceError:
                    pass  # before submission / after completion
                reads["count"] += 1

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        host_digest = decision_digest(host.run())
        stop_reading.set()
        thread.join(timeout=5.0)
        assert reads["count"] > 0
        assert host_digest == sim_digest
