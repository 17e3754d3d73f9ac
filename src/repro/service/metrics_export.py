"""Prometheus text exposition for a service-fronted PolicyHost.

Renders the ``GET /metrics`` payload in the Prometheus text format
(version 0.0.4): ``# HELP`` / ``# TYPE`` headers, one
``name{labels} value`` sample per line.  Every exported series is a row
of the operator guide's metrics reference tables (``docs/operating.md``);
``tests/test_service.py`` fails when the two disagree.

Three sources feed the page:

- the host's :class:`~repro.host.service.HostMetrics` running aggregates
  (monotonic counters and the dispatch latency histogram's bucket counts,
  exact over the whole run regardless of the bounded round history), read
  in one snapshot under the dispatch lock so the histogram's ``_count``
  equals ``scheduler_rounds_total``;
- the policy's telemetry, when it exposes any: ``last_utility``
  (every policy), ``last_phase_timings`` (Pollux GA phase timings, in
  milliseconds), the sharded policy's ``last_round_report`` (per-phase
  sum/max across cells) and ``fallback_rounds``;
- the service's tenant ledger and HTTP request counters.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List

from ..host.service import LATENCY_BUCKETS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import SchedulerService

__all__ = ["render_metrics", "CONTENT_TYPE"]

#: The Prometheus text exposition content type.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


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
        summary = host.metrics.summary()
        latency_counts, latency_sum = host.metrics.latency_histogram()
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
    _header(
        lines,
        "scheduler_policy_circuit_open",
        "gauge",
        "1 once consecutive policy failures stopped the host calling the policy.",
    )
    _sample(lines, "scheduler_policy_circuit_open", 1 if summary["circuit_open"] else 0)

    name = "scheduler_dispatch_latency_seconds"
    _header(lines, name, "histogram", "Wall-clock policy dispatch latency per round.")
    for bound, count in zip(LATENCY_BUCKETS + (math.inf,), latency_counts):
        _sample(lines, f"{name}_bucket", count, {"le": _fmt(bound)})
    _sample(lines, f"{name}_sum", latency_sum)
    _sample(lines, f"{name}_count", latency_counts[-1])

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
    ]
    for name, key, help_ in tenant_gauges:
        _header(lines, name, "gauge", help_)
        for tenant, snap in sorted(accounts.items()):
            _sample(lines, name, snap[key], {"tenant": tenant})
    tenant_counters = [
        ("scheduler_tenant_submitted_total", "submitted_total", "Accepted POSTs."),
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
