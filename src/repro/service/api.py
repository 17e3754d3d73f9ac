"""SchedulerService: the multi-tenant front door of a running PolicyHost.

The service is a *thin deterministic layer* above the Policy API: it owns
tenant namespaces and GPU-equivalent quota admission
(:mod:`repro.service.tenants`), and it translates front-end operations
into the host's service hooks
(``backend.submit``, :meth:`~repro.host.PolicyHost.find_job`,
:meth:`~repro.host.PolicyHost.cancel_job`).  It never calls the policy and
never mutates job or cluster state directly, so policy decision streams —
including the host-agreement digests — are untouched by fronting a host
with a service (pinned by ``tests/test_service.py``).

Transport lives elsewhere: :mod:`repro.service.server` exposes this object
over stdlib HTTP, and :mod:`repro.service.metrics_export` renders the
Prometheus view.  The split keeps this module synchronous and directly
testable without sockets.

Operator guide: ``docs/operating.md`` (repo root) documents running the
service end-to-end; the API surface is summarized in ``README.md``.
"""

from __future__ import annotations

import logging
import threading
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..host.service import PolicyHost
from ..sim.metrics import JobRecord
from ..workload.models import MODEL_ZOO
from ..workload.trace import JobSpec
from .tenants import (
    DEFAULT_TENANT,
    JobEntry,
    TenantAccount,
    valid_tenant_name,
)

__all__ = ["ServiceError", "SchedulerService"]

logger = logging.getLogger("repro.service")

#: Recorded rounds ``/healthz`` looks back over: a policy error in any of
#: them reads ``degraded``.
_HEALTH_WINDOW_ROUNDS = 10

#: A running loop whose last round is older than this many shortest timers
#: (host seconds) reads ``dead``: the host clock moves only as the loop
#: dispatches, so a fresh round is due within one timer.
_STALE_TIMERS = 3


class ServiceError(Exception):
    """An API error with an HTTP status code (and optional Retry-After)."""

    def __init__(self, status: int, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


class SchedulerService:
    """Multi-tenant submit/status/cancel/usage operations on a PolicyHost.

    Args:
        host: The (normally already started) :class:`~repro.host.PolicyHost`.
        quotas: Tenant name -> admission quota in reference GPU-equivalents.
            Tenants absent from the mapping get ``default_quota``.
        default_quota: Quota for tenants not listed in ``quotas``
            (default: unlimited).
        observer_tenant: Tenant allowed to *read* backend jobs the service
            did not submit (e.g. a pre-loaded replay trace); ``None``
            disables the fallback.  Reads only — cancel still requires
            service ownership.

    Thread safety: every public method may be called from any number of
    HTTP handler threads; internal state is guarded by one lock, and
    backend reads happen under the backend's dispatch lock.  Lock order is
    always service -> backend (the dispatch loop never calls back into the
    service), so the pair cannot deadlock.
    """

    def __init__(
        self,
        host: PolicyHost,
        quotas: Optional[Mapping[str, float]] = None,
        default_quota: float = float("inf"),
        observer_tenant: Optional[str] = DEFAULT_TENANT,
    ):
        self.host = host
        self.backend = host.backend
        self.default_quota = float(default_quota)
        self.observer_tenant = observer_tenant
        self._lock = threading.RLock()
        self._accounts: Dict[str, TenantAccount] = {}
        self._entries: Dict[str, JobEntry] = {}
        self._http_requests: Dict[Tuple[str, str], int] = {}
        for tenant, quota in (quotas or {}).items():
            if not valid_tenant_name(tenant):
                raise ValueError(f"invalid tenant name {tenant!r}")
            self._accounts[tenant] = TenantAccount(tenant, quota_eq=float(quota))

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------

    def _account(self, tenant: str) -> TenantAccount:
        """The tenant's account, created on first submit (caller holds lock)."""
        account = self._accounts.get(tenant)
        if account is None:
            account = TenantAccount(tenant, quota_eq=self.default_quota)
            self._accounts[tenant] = account
        return account

    @staticmethod
    def check_tenant(tenant: str) -> str:
        if not valid_tenant_name(tenant):
            raise ServiceError(400, f"invalid tenant name {tenant!r}")
        return tenant

    # ------------------------------------------------------------------
    # Submit
    # ------------------------------------------------------------------

    def submit(self, tenant: str, payload: object) -> dict:
        """Admit one job for ``tenant`` (the ``POST /v1/jobs`` operation).

        Payload fields: ``model`` (required, a :data:`~repro.workload.
        models.MODEL_ZOO` name), ``num_gpus`` (requested GPUs, default 1),
        ``batch_size`` (default: the model's m0), ``name`` (optional; the
        job id becomes ``tenant/name``, auto-numbered when omitted).

        Raises :class:`ServiceError` 400 on malformed payloads, 409 on a
        duplicate name, 429 (with Retry-After) on quota breach, and 503
        when the backend cannot accept live submissions (trace replay).
        """
        self.check_tenant(tenant)
        if not hasattr(self.backend, "submit"):
            raise ServiceError(
                503,
                "backend does not accept live submissions (replay is read-only)",
            )
        spec_fields = self._validate_payload(payload)
        model, num_gpus, batch_size, name = spec_fields
        with self._lock:
            account = self._account(tenant)
            if name is None:
                name = f"job-{account.next_job_seq:05d}"
                account.next_job_seq += 1
            job_id = f"{tenant}/{name}"
            if job_id in self._entries:
                raise ServiceError(409, f"job {job_id!r} already exists")
            demand_eq = float(num_gpus)
            if not account.can_admit(demand_eq):
                account.rejected_total += 1
                logger.info(
                    "quota rejection: tenant %s demand %g + %g > quota %g",
                    tenant,
                    account.demand_eq,
                    demand_eq,
                    account.quota_eq,
                )
                raise ServiceError(
                    429,
                    (
                        f"tenant {tenant!r} quota exceeded: demand "
                        f"{account.demand_eq:g} + {demand_eq:g} > "
                        f"{account.quota_eq:g} GPU-equivalents"
                    ),
                    retry_after=self.backend.config.scheduling_interval,
                )
            now = self.backend.now()
            spec = JobSpec(
                name=job_id,
                model=MODEL_ZOO[model],
                submission_time=now,
                fixed_num_gpus=num_gpus,
                fixed_batch_size=batch_size,
            )
            # The backend takes the job before the service records and
            # charges it, so a submit that raises leaves nothing behind.
            self.backend.submit(spec)
            entry = JobEntry(
                job_id=job_id,
                tenant=tenant,
                spec=spec,
                demand_eq=demand_eq,
                created_at=now,
            )
            self._entries[job_id] = entry
            account.charge(entry)
            return self._status_locked(entry)

    def _validate_payload(
        self, payload: object
    ) -> Tuple[str, int, int, Optional[str]]:
        if not isinstance(payload, dict):
            raise ServiceError(400, "request body must be a JSON object")
        model = payload.get("model")
        if not isinstance(model, str) or model not in MODEL_ZOO:
            raise ServiceError(
                400, f"'model' must be one of {sorted(MODEL_ZOO)}, got {model!r}"
            )
        num_gpus = payload.get("num_gpus", 1)
        if not isinstance(num_gpus, int) or isinstance(num_gpus, bool) or num_gpus < 1:
            raise ServiceError(400, "'num_gpus' must be a positive integer")
        total = self.backend.cluster().total_gpus
        if num_gpus > total:
            raise ServiceError(
                400, f"'num_gpus' ({num_gpus}) exceeds the cluster's {total} GPUs"
            )
        batch_size = payload.get("batch_size", MODEL_ZOO[model].init_batch_size)
        if (
            not isinstance(batch_size, int)
            or isinstance(batch_size, bool)
            or batch_size < 1
        ):
            raise ServiceError(400, "'batch_size' must be a positive integer")
        name = payload.get("name")
        if name is not None and (
            not isinstance(name, str) or not valid_tenant_name(name)
        ):
            raise ServiceError(400, f"invalid job name {name!r}")
        return model, num_gpus, batch_size, name

    # ------------------------------------------------------------------
    # Status / cancel
    # ------------------------------------------------------------------

    def job_status(self, tenant: str, job_id: str) -> dict:
        """The ``GET /v1/jobs/{id}`` operation (tenant-isolated)."""
        self.check_tenant(tenant)
        with self._lock:
            entry = self._entries.get(job_id)
            if entry is not None:
                if entry.tenant != tenant:
                    # Isolation: another tenant's job is indistinguishable
                    # from a nonexistent one.
                    raise ServiceError(404, f"no job {job_id!r} for tenant {tenant!r}")
                self._reconcile_entry(entry)
                return self._status_locked(entry)
        # Fallback: backend jobs the service did not submit (pre-loaded
        # traces) are readable by the observer tenant only.
        if self.observer_tenant is not None and tenant == self.observer_tenant:
            found = self.host.find_job(job_id)
            if found is not None:
                return self._backend_job_status(job_id, found)
        raise ServiceError(404, f"no job {job_id!r} for tenant {tenant!r}")

    def cancel(self, tenant: str, job_id: str) -> dict:
        """The ``DELETE /v1/jobs/{id}`` operation (tenant-isolated).

        The job is cancelled through the host's cancel hook, which finishes
        it and delivers its ``completed`` lifecycle event to the policy.
        409 when the job already reached a terminal state.
        """
        self.check_tenant(tenant)
        with self._lock:
            entry = self._entries.get(job_id)
            if entry is None or entry.tenant != tenant:
                raise ServiceError(404, f"no job {job_id!r} for tenant {tenant!r}")
            if entry.terminal:
                raise ServiceError(409, f"job {job_id!r} is already {entry.state}")
            if self.host.cancel_job(job_id):
                entry.state = "cancelled"
                self._accounts[tenant].release(entry)
                return self._status_locked(entry)
            # The backend no longer knows a live job by this name: it
            # completed between our check and the cancel.
            self._reconcile_entry(entry)
            raise ServiceError(409, f"job {job_id!r} is already {entry.state}")

    # ------------------------------------------------------------------
    # Reconciliation (lazy completion accounting)
    # ------------------------------------------------------------------

    def _reconcile_entry(self, entry: JobEntry) -> None:
        """Fold a backend-side completion into the entry (caller holds lock).

        A backend finds a submitted job from ``submit()`` on, so ``None``
        means its record rotated out of the backend's bounded completed
        history: the job completed, and its demand is released.
        """
        if entry.state != "submitted":
            return
        found = self.host.find_job(entry.job_id)
        if (
            found is None
            or isinstance(found, JobRecord)
            or getattr(found, "complete", False)
        ):
            entry.state = "complete"
            self._accounts[entry.tenant].release(entry)

    def reconcile(self) -> None:
        """Fold backend-side completions into every tenant's accounting.

        Called before usage/metrics reads.  One pass costs a set-build
        over the active jobs plus a lookup per *newly completed* entry, so
        the amortized cost over a run is proportional to completions, not
        to scrapes times jobs.
        """
        with self.backend.dispatch_lock():
            active_names = {job.name for job in self.backend.jobs()}
        with self._lock:
            for account in list(self._accounts.values()):
                for entry in list(account.entries):
                    if entry.state == "submitted" and entry.job_id not in active_names:
                        self._reconcile_entry(entry)

    # ------------------------------------------------------------------
    # Usage / health
    # ------------------------------------------------------------------

    def allocated_equivalents(self) -> Dict[str, float]:
        """Live type-aware GPU-equivalent usage per tenant.

        Each active backend job owned by a service entry contributes its
        allocation dotted with per-node compute speeds (an A100 GPU counts
        its speed, not 1).  Tenants with no allocated jobs map to 0.0.
        """
        with self._lock:
            owner = {
                entry.job_id: entry.tenant
                for entry in self._entries.values()
                if entry.state == "submitted"
            }
            usage = {tenant: 0.0 for tenant in self._accounts}
        with self.backend.dispatch_lock():
            speeds = self.backend.cluster().node_speeds()
            for job in self.backend.jobs():
                tenant = owner.get(job.name)
                if tenant is None:
                    continue
                alloc = np.asarray(job.allocation, dtype=float)
                if alloc.shape == speeds.shape:
                    usage[tenant] = usage.get(tenant, 0.0) + float(alloc @ speeds)
        return usage

    def tenant_usage(self, tenant: str) -> dict:
        """The ``GET /v1/tenants/{t}`` operation: usage vs quota."""
        self.check_tenant(tenant)
        self.reconcile()
        allocated = self.allocated_equivalents().get(tenant, 0.0)
        with self._lock:
            account = self._accounts.get(tenant)
            if account is None:
                # A read creates no account: each one is a /metrics series.
                account = TenantAccount(tenant, quota_eq=self.default_quota)
            active = sum(1 for e in account.entries if e.state == "submitted")
            return {
                "tenant": tenant,
                "quota_gpu_equivalents": account.quota_eq,
                "demand_gpu_equivalents": account.demand_eq,
                "allocated_gpu_equivalents": allocated,
                "active_jobs": active,
                "submitted_total": account.submitted_total,
                "rejected_total": account.rejected_total,
                "cancelled_total": account.cancelled_total,
                "completed_total": account.completed_total,
            }

    def healthz(self) -> dict:
        """The ``GET /healthz`` operation.

        ``status`` is ``"ok"`` while the dispatch loop runs (a drain in
        progress included) and for a host whose loop is not on a thread of
        its own; ``"degraded"`` when a policy call failed in one of the
        last ``_HEALTH_WINDOW_ROUNDS`` recorded rounds or the host's
        circuit is open; ``"stopped"`` once the loop has ended after the
        host's ``stop()`` or ``drain()``; and ``"dead"`` when the loop
        ``start()`` launched has ended without either being requested, or
        is alive but its last round (``last_round_age_s``, host seconds) is
        older than ``_STALE_TIMERS`` shortest timers.  The HTTP layer
        answers 503 for anything but ``"ok"``.
        """
        host = self.host
        metrics = host.metrics
        now = self.backend.now()
        last = metrics.last_round_time
        age = now - (last if last is not None else 0.0)
        status = "ok"
        if not host.running:
            if host.stopping or host.draining:
                status = "stopped"
            elif host.started:
                status = "dead"
        elif age > _STALE_TIMERS * self._shortest_timer():
            status = "dead"
        if status == "ok" and (
            metrics.circuit_open or metrics.error_within(_HEALTH_WINDOW_ROUNDS)
        ):
            status = "degraded"
        summary = metrics.summary()
        return {
            "status": status,
            "running": host.running,
            "policy": host.policy.name,
            "backend": type(self.backend).__name__,
            "host_time_s": now,
            "last_round_age_s": age,
            "rounds": summary["rounds"],
            "circuit_open": summary["circuit_open"],
            "active_jobs": len(self.backend.jobs()),
        }

    def _shortest_timer(self) -> float:
        """The host's shortest dispatch cadence, in host seconds."""
        config = self.backend.config
        timers = [config.scheduling_interval, config.agent_interval]
        caps = self.host.policy.capabilities
        if caps.autoscales:
            timers.append(caps.autoscale_interval)
        return min(timers)

    # ------------------------------------------------------------------
    # Status rendering
    # ------------------------------------------------------------------

    def _status_locked(self, entry: JobEntry) -> dict:
        base = {
            "job_id": entry.job_id,
            "tenant": entry.tenant,
            "state": entry.state,
            "model": entry.spec.model.name,
            "requested_gpus": entry.spec.fixed_num_gpus,
            "demand_gpu_equivalents": entry.demand_eq,
            "created_at": entry.created_at,
        }
        found = self.host.find_job(entry.job_id)
        if found is None:
            # The record rotated out of the backend's bounded completed
            # history (see _reconcile_entry): only the entry's state is left.
            return base
        fields = self._runtime_fields(found)
        if entry.terminal:
            # The entry's terminal state is authoritative: a cancelled
            # job's backend record reads "complete".
            fields["state"] = entry.state
        return {**base, **fields}

    def _backend_job_status(self, job_id: str, found: object) -> dict:
        """Status for a backend job outside the service's namespace."""
        base = {"job_id": job_id, "tenant": self.observer_tenant, "state": "submitted"}
        return {**base, **self._runtime_fields(found)}

    def _runtime_fields(self, found: object) -> dict:
        """Live/terminal runtime fields from a SimJob or JobRecord."""
        if isinstance(found, JobRecord):
            return {
                "state": "complete",
                "finish_time": found.finish_time,
                "jct_s": found.jct,
                "num_restarts": found.num_restarts,
                "gputime": found.gputime,
            }
        job = found  # SimJob-shaped (live)
        with self.backend.dispatch_lock():
            now = self.backend.now()
            phase = job.phase(now).value
            fields = {
                "state": phase,
                "allocated_gpus": int(job.num_gpus),
                "num_restarts": int(job.num_restarts),
                "progress": float(job.progress_fraction),
                "batch_size": float(job.batch_size),
                "submission_time": float(job.submission_time),
            }
            if job.finish_time is not None:
                fields["state"] = "complete"
                fields["finish_time"] = float(job.finish_time)
                fields["jct_s"] = float(job.finish_time - job.submission_time)
            return fields

    # ------------------------------------------------------------------
    # Telemetry hooks (used by the HTTP layer and the metrics exporter)
    # ------------------------------------------------------------------

    def observe_http(self, method: str, status: int) -> None:
        with self._lock:
            key = (method, str(status))
            self._http_requests[key] = self._http_requests.get(key, 0) + 1

    def http_requests(self) -> Dict[Tuple[str, str], int]:
        with self._lock:
            return dict(self._http_requests)

    def accounts_snapshot(self) -> Dict[str, dict]:
        """Per-tenant accounting snapshot for the metrics exporter."""
        self.reconcile()
        allocated = self.allocated_equivalents()
        with self._lock:
            snapshot = {}
            for name, account in self._accounts.items():
                snapshot[name] = {
                    "quota_eq": account.quota_eq,
                    "demand_eq": account.demand_eq,
                    "allocated_eq": allocated.get(name, 0.0),
                    "active_jobs": sum(
                        1 for e in account.entries if e.state == "submitted"
                    ),
                    "submitted_total": account.submitted_total,
                    "rejected_total": account.rejected_total,
                    "cancelled_total": account.cancelled_total,
                    "completed_total": account.completed_total,
                }
            return snapshot
