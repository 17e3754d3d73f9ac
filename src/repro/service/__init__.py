"""Scheduling-as-a-service: a multi-tenant HTTP front-end for PolicyHost.

This package is the third seam of the toolkit, above policy (what to
decide — ``repro.policy``) and mechanism (how decisions are enacted —
``repro.host``): *service* — who may ask, how much they may use, and how
the running system is observed.

- :class:`SchedulerService` (``api.py``) — the transport-free core:
  tenant-namespaced job submission against GPU-equivalent quotas
  (429 over quota), status / cancel with tenant isolation, and usage
  accounting.  Tenancy sits strictly *above* the Policy API: it decides
  only whether a job reaches the backend, never what the policy decides, so
  host-agreement digests cannot move (reads are read-only; see
  ``tests/test_service.py::test_service_fronted_replay_matches_simulator``).
- :class:`ServiceServer` (``server.py``) — stdlib ``ThreadingHTTPServer``
  JSON transport: ``POST/GET/DELETE /v1/jobs``, ``GET /v1/tenants/{t}``,
  ``GET /healthz``, ``GET /metrics``.
- ``metrics_export.py`` — the ``/metrics`` page in Prometheus text
  exposition format (dispatch latency histogram, decision/restart
  counters, per-tenant GPU-equivalent gauges, shard phase timings).
- ``tenants.py`` — the deterministic accounting layer (namespaces,
  quotas).

Operator guide: ``docs/operating.md`` (start/drain/stop, backend choice,
time compression, the full ``/metrics`` series reference, and the
two-tier decision-stream policy).  Overview and quickstart: ``README.md``.
Load benchmark: the perf ledger's ``service_live`` workload
(``benchmarks/e2e``).
"""

from .api import SchedulerService, ServiceError
from .metrics_export import CONTENT_TYPE, render_metrics
from .server import ServiceServer
from .tenants import (
    DEFAULT_TENANT,
    JobEntry,
    TenantAccount,
    valid_tenant_name,
)

__all__ = [
    "SchedulerService",
    "ServiceError",
    "ServiceServer",
    "render_metrics",
    "CONTENT_TYPE",
    "DEFAULT_TENANT",
    "JobEntry",
    "TenantAccount",
    "valid_tenant_name",
]
