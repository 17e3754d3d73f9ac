"""Prometheus text exposition for a service-fronted PolicyHost.

Renders the ``GET /metrics`` payload in the Prometheus text format
(version 0.0.4): ``# HELP`` / ``# TYPE`` headers, one
``name{labels} value`` sample per line.  Every exported series is
documented in the operator guide's metrics reference table
(``docs/operating.md``) — keep the two in sync when adding series.

Three sources feed the page:

- the host's :class:`~repro.host.service.HostMetrics` running aggregates
  (monotonic counters — exact over the whole run regardless of the
  bounded round history) and its recent rounds, which feed the dispatch
  latency histogram;
- the policy's telemetry, when it exposes any: ``last_utility``
  (every policy), ``last_phase_timings`` (Pollux GA phase timings, in
  milliseconds), the sharded policy's ``last_round_report`` (per-phase
  sum/max across cells) and ``fallback_rounds``;
- the service's tenant ledger and HTTP request counters.

The histogram ingests rounds incrementally by diffing the host's total
round counter against what it has already consumed, so scrapes are O(new
rounds) and a quiet service costs nothing; if more rounds elapsed between
scrapes than the host's bounded history holds, the overflow is counted in
the histogram's ``+Inf``-free total via the ``_count`` series only when
observed (dropped rounds are simply not observed — the counters above
remain exact).
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import SchedulerService

__all__ = ["DispatchLatencyHistogram", "render_metrics", "CONTENT_TYPE"]

#: The Prometheus text exposition content type.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Dispatch latency buckets (seconds): sub-millisecond cheap rounds up to
#: multi-second GA rounds on big clusters.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class DispatchLatencyHistogram:
    """Cumulative histogram over the host's per-round dispatch latency.

    ``ingest(metrics)`` consumes rounds the histogram has not seen yet
    (tracked against the host's exact total-round counter; the bounded
    deque may have dropped very old rounds between rare scrapes — those
    are skipped, never double-counted).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._bucket_counts = [0] * len(LATENCY_BUCKETS)
        self._count = 0
        self._sum = 0.0
        self._seen_rounds = 0

    def ingest(self, metrics) -> None:
        """Fold new rounds from a :class:`~repro.host.HostMetrics` in."""
        with self._lock:
            total = metrics.summary()["rounds"]
            new = total - self._seen_rounds
            if new <= 0:
                return
            rounds = list(metrics.rounds)
            for round_ in rounds[-new:] if new < len(rounds) else rounds:
                self._observe(round_.latency_s)
            self._seen_rounds = total

    def _observe(self, value: float) -> None:
        self._count += 1
        self._sum += value
        for i, bound in enumerate(LATENCY_BUCKETS):
            if value <= bound:
                self._bucket_counts[i] += 1

    def render(self, name: str, lines: List[str]) -> None:
        with self._lock:
            lines.append(f"# HELP {name} Wall-clock policy dispatch latency per round.")
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for bound, count in zip(LATENCY_BUCKETS, self._bucket_counts):
                cumulative += count
                lines.append(f'{name}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {self._count}')
            lines.append(f"{name}_sum {_fmt(self._sum)}")
            lines.append(f"{name}_count {self._count}")


def _fmt(value: float) -> str:
    """Prometheus sample formatting: shortest exact-enough float repr."""
    if value != value:  # NaN
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _sample(
    lines: List[str], name: str, value: float, labels: Dict[str, str] = None
) -> None:
    if labels:
        body = ",".join(f'{k}="{_escape(v)}"' for k, v in labels.items())
        lines.append(f"{name}{{{body}}} {_fmt(value)}")
    else:
        lines.append(f"{name} {_fmt(value)}")


def _header(lines: List[str], name: str, kind: str, help_: str) -> None:
    lines.append(f"# HELP {name} {help_}")
    lines.append(f"# TYPE {name} {kind}")


def render_metrics(service: "SchedulerService") -> str:
    """The full ``GET /metrics`` page for a service-fronted host."""
    host = service.host
    backend = service.backend
    policy = host.policy
    summary = host.metrics.summary()
    lines: List[str] = []

    _header(lines, "scheduler_up", "gauge", "1 while the service is serving.")
    _sample(lines, "scheduler_up", 1)
    _header(
        lines,
        "scheduler_host_running",
        "gauge",
        "1 while the host dispatch loop is alive.",
    )
    _sample(lines, "scheduler_host_running", 1 if host.running else 0)
    _header(lines, "scheduler_host_time_seconds", "gauge", "Current host time.")
    _sample(lines, "scheduler_host_time_seconds", backend.now())

    with backend.dispatch_lock():
        cluster = backend.cluster()
        active_jobs = len(backend.jobs())
        gpu_eq = float(
            sum(n.num_gpus * n.gpu_type.compute_speed for n in cluster.nodes)
        )
    _header(lines, "scheduler_active_jobs", "gauge", "Jobs in the active set.")
    _sample(lines, "scheduler_active_jobs", active_jobs)
    _header(lines, "scheduler_cluster_nodes", "gauge", "Nodes in the cluster.")
    _sample(lines, "scheduler_cluster_nodes", cluster.num_nodes)
    _header(lines, "scheduler_cluster_gpus", "gauge", "Total GPUs in the cluster.")
    _sample(lines, "scheduler_cluster_gpus", cluster.total_gpus)
    _header(
        lines,
        "scheduler_cluster_gpu_equivalents",
        "gauge",
        "Total cluster capacity in reference GPU-equivalents (type-aware).",
    )
    _sample(lines, "scheduler_cluster_gpu_equivalents", gpu_eq)

    # -- host dispatch counters (exact running aggregates) --------------
    counters = [
        ("scheduler_rounds_total", "Dispatch rounds completed.", summary["rounds"]),
        (
            "scheduler_scheduling_rounds_total",
            "Rounds in which the scheduling event fired.",
            summary["scheduling_rounds"],
        ),
        (
            "scheduler_decisions_applied_total",
            "Job allocations applied by scheduling decisions.",
            summary["decisions_applied"],
        ),
        (
            "scheduler_restarts_total",
            "Job checkpoint-restarts triggered by dispatch rounds.",
            summary["restarts_triggered"],
        ),
        (
            "scheduler_resizes_total",
            "Cluster resizes applied (autoscaling).",
            summary["resizes"],
        ),
        (
            "scheduler_policy_errors_total",
            "Dispatch rounds in which the policy or its decision raised.",
            summary["policy_errors"],
        ),
    ]
    for name, help_, value in counters:
        _header(lines, name, "counter", help_)
        _sample(lines, name, value)

    service.latency_histogram.ingest(host.metrics)
    service.latency_histogram.render("scheduler_dispatch_latency_seconds", lines)

    # -- policy telemetry ------------------------------------------------
    _header(
        lines,
        "scheduler_policy_utility",
        "gauge",
        "UTILITY(A) of the last optimized allocation (0 for non-Pollux).",
    )
    _sample(lines, "scheduler_policy_utility", float(policy.last_utility))

    fallback = getattr(policy, "fallback_rounds", None)
    if fallback is not None:
        _header(
            lines,
            "scheduler_fallback_rounds_total",
            "counter",
            "Sharded cell rounds that fell back in-process after a worker failure.",
        )
        _sample(lines, "scheduler_fallback_rounds_total", int(fallback))

    report = getattr(policy, "last_round_report", None) or {}
    phase_aggs = []
    if isinstance(report, dict) and report.get("sum"):
        phase_aggs = [("sum", report["sum"]), ("max", report.get("max", {}))]
    else:
        timings = getattr(policy, "last_phase_timings", None)
        if timings:
            phase_aggs = [("sum", timings)]
    if phase_aggs:
        _header(
            lines,
            "scheduler_round_phase_seconds",
            "gauge",
            "Per-phase time of the last scheduling round "
            "(sum across shard cells; max = critical path).",
        )
        for agg, timings in phase_aggs:
            for phase, ms in sorted(timings.items()):
                if not phase.endswith("_ms"):
                    continue  # only times are phases
                _sample(
                    lines,
                    "scheduler_round_phase_seconds",
                    float(ms) / 1e3,
                    {"phase": phase[:-3], "agg": agg},
                )

    # -- tenants ---------------------------------------------------------
    accounts = service.accounts_snapshot()
    tenant_gauges = [
        ("scheduler_tenant_quota_gpu_equivalents", "quota_eq", "Admission quota."),
        (
            "scheduler_tenant_demand_gpu_equivalents",
            "demand_eq",
            "Admission-charged demand of live jobs (reference units).",
        ),
        (
            "scheduler_tenant_allocated_gpu_equivalents",
            "allocated_eq",
            "Live allocated GPU-equivalents (type-aware).",
        ),
        ("scheduler_tenant_active_jobs", "active_jobs", "Submitted, unfinished jobs."),
        ("scheduler_tenant_queued_jobs", "queued_jobs", "Jobs awaiting admission."),
    ]
    for name, key, help_ in tenant_gauges:
        _header(lines, name, "gauge", help_)
        for tenant, snap in sorted(accounts.items()):
            _sample(lines, name, snap[key], {"tenant": tenant})
    tenant_counters = [
        ("scheduler_tenant_submitted_total", "submitted_total", "Accepted POSTs."),
        (
            "scheduler_tenant_admitted_total",
            "admitted_total",
            "Jobs handed to the backend.",
        ),
        (
            "scheduler_tenant_rejected_total",
            "rejected_total",
            "Submissions rejected over quota (429).",
        ),
        ("scheduler_tenant_cancelled_total", "cancelled_total", "Jobs cancelled."),
        ("scheduler_tenant_completed_total", "completed_total", "Jobs completed."),
    ]
    for name, key, help_ in tenant_counters:
        _header(lines, name, "counter", help_)
        for tenant, snap in sorted(accounts.items()):
            _sample(lines, name, snap[key], {"tenant": tenant})

    # -- HTTP front-end --------------------------------------------------
    requests = service.http_requests()
    if requests:
        _header(
            lines,
            "scheduler_http_requests_total",
            "counter",
            "API requests served, by method and status code.",
        )
        for (method, code), count in sorted(requests.items()):
            _sample(
                lines,
                "scheduler_http_requests_total",
                count,
                {"method": method, "code": code},
            )

    return "\n".join(lines) + "\n"
