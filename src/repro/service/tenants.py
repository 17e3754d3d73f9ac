"""Multi-tenant accounting: namespaces and GPU-equivalent quotas.

This is the deterministic layer the service puts *above* the Policy API
(the third seam of the Blox-style toolkit: policy / mechanism / service).
It never touches policy decision streams — tenancy decides only *whether*
a submission reaches the backend, so host-agreement digests cannot move.

Quotas are measured in **GPU-equivalents**, not raw GPU counts, because a
mixed fleet's devices are not interchangeable (Gavel's heterogeneity
lesson): one A100 at compute speed 3.2 is 3.2 reference-T4 equivalents.
Two series exist per tenant:

- *demand* — the admission-time charge: each live (submitted, not yet
  finished) job charges its requested GPU count in reference
  units.  A job has no placement until the policy allocates it, so demand
  is deliberately type-agnostic; it is what quotas are enforced against,
  which keeps admission deterministic and independent of policy decisions.
- *allocated* — the live, type-aware usage: the tenant's actual
  allocations dotted with per-node compute speeds.  Reported by
  ``GET /v1/tenants/{t}`` and exported to Prometheus; on a mixed fleet it
  shows what the quota's raw-count cousin would hide (4 GPUs of A100 are
  12.8 equivalents).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import List

from ..workload.trace import JobSpec

__all__ = [
    "DEFAULT_TENANT",
    "JobEntry",
    "TenantAccount",
    "valid_tenant_name",
]

#: Tenant used when a request carries no ``X-Tenant`` header.
DEFAULT_TENANT = "default"

#: Tenant and job names must be URL-path-safe.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def valid_tenant_name(name: str) -> bool:
    """Whether ``name`` is a legal tenant (or job) name segment."""
    return bool(_NAME_RE.match(name))


@dataclass
class JobEntry:
    """One service-submitted job, from POST to terminal state.

    ``job_id`` is the tenant-namespaced identity (``tenant/name``) and is
    also the backend job name, so two tenants can both submit ``train-1``
    without colliding anywhere downstream.  An entry exists once the
    backend has taken the job; ``state`` walks ``submitted -> complete``
    (or ``cancelled``); ``demand_eq`` is the admission charge released
    when the entry reaches a terminal state.
    """

    job_id: str
    tenant: str
    spec: JobSpec
    demand_eq: float
    created_at: float
    state: str = "submitted"

    @property
    def terminal(self) -> bool:
        return self.state in ("complete", "cancelled")


@dataclass
class TenantAccount:
    """Accounting for one tenant: quota, live charge, counters.

    ``quota_eq`` is the admission ceiling in reference GPU-equivalents
    (``inf`` = unlimited).  ``demand_eq`` is the sum of live entries'
    charges; admission of a job with demand ``d`` requires
    ``demand_eq + d <= quota_eq``.
    """

    name: str
    quota_eq: float = math.inf
    demand_eq: float = 0.0
    submitted_total: int = 0
    rejected_total: int = 0
    cancelled_total: int = 0
    completed_total: int = 0
    next_job_seq: int = 0
    #: Live (non-terminal) entries, newest last.
    entries: List[JobEntry] = field(default_factory=list)

    def can_admit(self, demand_eq: float) -> bool:
        return self.demand_eq + demand_eq <= self.quota_eq

    def charge(self, entry: JobEntry) -> None:
        self.demand_eq += entry.demand_eq
        self.entries.append(entry)
        self.submitted_total += 1

    def release(self, entry: JobEntry) -> None:
        """Release a terminal entry's admission charge (idempotence is the
        caller's job: call exactly once, when the entry turns terminal)."""
        self.demand_eq = max(self.demand_eq - entry.demand_eq, 0.0)
        if entry in self.entries:
            self.entries.remove(entry)
        if entry.state == "cancelled":
            self.cancelled_total += 1
        elif entry.state == "complete":
            self.completed_total += 1

