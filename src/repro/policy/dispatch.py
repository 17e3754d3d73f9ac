"""Dispatch helpers: the steps of the Policy API's one host loop.

The host (:class:`repro.host.PolicyHost`, which the discrete-time
simulator runs on too) owns the event loop; its backend owns job runtime
state.  What the host owes the policy is a fixed dispatch contract:

- snapshots are built exactly at dispatch events, with agent reports
  attached only for policies whose capabilities declare ``needs_agent``
  (building a report triggers a memoized model fit, so the report-call
  schedule is part of the decision stream);
- a :class:`~repro.policy.base.ScheduleDecision` is applied in a fixed
  order — policy-fixed batch sizes first, then allocations, then a bundled
  resize request (honored only for ``autoscales`` policies);
- batch-size re-tuning (for ``adapts_batch_size`` policies) runs each
  job's agent at the host's agent cadence.

The simulator runs on the host's round too, so a replay reproduces its
decision streams by construction (``tests/test_host.py`` pins it).

Jobs are duck-typed against :class:`repro.sim.job.SimJob` (see
:func:`~repro.policy.views.snapshot_job` for the attribute shape).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from ..cluster.spec import ClusterSpec, NodeSpec
from .base import PolicyCapabilities, ScheduleDecision
from .views import ClusterState, snapshot_job

__all__ = [
    "build_cluster_state",
    "apply_decision",
    "relay_job_event",
    "tune_batch_sizes",
]


def relay_job_event(policy, kind: str, now: float, job) -> None:
    """Deliver a host lifecycle event to the policy.

    ``kind`` is ``"submitted"`` or ``"completed"``.  Lifecycle snapshots
    are report-free by contract — agent reports are attached only at
    scheduling/autoscale dispatch events (the report-call schedule is part
    of the decision stream).
    """
    if kind == "submitted":
        policy.on_job_submitted(now, snapshot_job(job))
    else:
        policy.on_job_completed(now, snapshot_job(job))


def build_cluster_state(
    cluster: ClusterSpec,
    jobs: Iterable,
    capabilities: PolicyCapabilities,
) -> ClusterState:
    """Frozen policy-facing view of the cluster and active jobs.

    Agent reports are attached only when ``capabilities.needs_agent`` —
    building a report can trigger a (memoized, deterministic) model fit,
    so the report-call schedule is pinned to dispatch events to keep
    decision streams exact.
    """
    with_report = capabilities.needs_agent
    return ClusterState(
        cluster=cluster,
        jobs=tuple(snapshot_job(job, with_report=with_report) for job in jobs),
    )


def apply_decision(
    decision: ScheduleDecision,
    jobs: Sequence,
    capabilities: PolicyCapabilities,
    *,
    apply_allocations: Callable[[dict, Sequence], None],
    resize_cluster: Callable[[int, Optional[NodeSpec]], None],
) -> None:
    """Apply one ScheduleDecision: batch sizes, allocations, resize.

    Policy-fixed batch sizes land before the allocations (Or-et-al's
    throughput-optimal choice belongs to the allocation it was made for); a
    bundled resize request is honored last, and only for
    policies whose capabilities declare ``autoscales``.  The host supplies
    its allocation/resize mechanisms as callables.
    """
    for job in jobs:
        batch_size = decision.batch_sizes.get(job.name)
        if batch_size is not None:
            job.batch_size = float(batch_size)
    apply_allocations(decision.allocations, jobs)
    if decision.resize is not None and capabilities.autoscales:
        resize_cluster(int(decision.resize.num_nodes), decision.resize.grow_node_spec)


def tune_batch_sizes(jobs: Sequence) -> None:
    """Let each running adaptive job's agent re-tune its batch size.

    Every host tunes by the agent's Eqn. 13 grid argmax on the job's own
    placement, memoized per agent (``PolluxAgent.tune_batch_size``).  Jobs
    whose agents cannot tune yet (no fitted model) keep their current
    batch size.
    """
    for job in jobs:
        if job.num_gpus == 0:
            continue
        try:
            batch_size, _ = job.agent.tune_batch_size(
                job.num_nodes_occupied,
                job.num_gpus,
                job.current_speed,
            )
        except ValueError:
            continue
        job.batch_size = float(batch_size)
