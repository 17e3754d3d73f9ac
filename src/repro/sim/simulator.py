"""Discrete-time cluster simulator (Sec. 5.3).

Reproduces the paper's simulator semantics:

- jobs progress at their ground-truth goodput (throughput x statistical
  efficiency, with phi_true evolving over each job's lifetime);
- the scheduling policy is invoked at a fixed interval (60 s in the paper)
  and each job's agent re-tunes its batch size at a fixed interval (30 s);
- every re-allocation pauses the job for a checkpoint-restart delay (30 s);
- optional network interference slows down distributed jobs sharing a node
  (Sec. 5.3.2);
- autoscaling policies grow/shrink the cluster (Sec. 4.2.2/5.3.3),
  optionally with a chosen GPU type on heterogeneous clusters;
- on typed clusters, ground-truth goodput runs at the compute speed of the
  job's slowest allocated node, and agents record each measurement's device
  speed so fitted models project across GPU types.

The simulator is one *host* of the Policy API (:mod:`repro.policy`); the
wall-clock service in :mod:`repro.host` is the other.  The mechanism layer
— job state, admission, ground-truth advancement, allocation/resize
mechanics — lives in the shared :class:`~repro.sim.engine.ClusterEngine`
base class; this module adds the paper's fixed-interval dispatch loop on
simulated time.  Dispatch speaks only :class:`~repro.policy.base.Policy` —
frozen snapshot views in, :class:`~repro.policy.base.ScheduleDecision`
out, with behavior differences expressed purely through
:class:`~repro.policy.base.PolicyCapabilities` (no policy-specific
branches).

Completion times are interpolated within a tick, so tick granularity does
not quantize JCTs.
"""

from __future__ import annotations

from typing import Sequence

from ..cluster.spec import ClusterSpec
from ..policy.base import Policy, ScheduleDecision
from ..policy.dispatch import apply_decision, build_cluster_state, relay_job_event
from ..policy.views import ClusterState
from ..workload.trace import JobSpec
from .engine import ClusterEngine
from .job import SimJob
from .metrics import JobRecord, SimResult
from .simconfig import SimConfig

__all__ = ["SimConfig", "Simulator"]


class Simulator(ClusterEngine):
    """Drives a workload trace through a scheduling policy.

    ``policy`` is a :class:`repro.policy.base.Policy` — construct one with
    :func:`repro.policy.create`, or subclass ``Policy`` for a custom one
    (autoscaling included: ``decide_resize`` and the ``autoscales``
    capability are part of the same interface).
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        policy: Policy,
        jobs: Sequence[JobSpec],
        config: SimConfig = SimConfig(),
    ):
        if not isinstance(policy, Policy):
            raise TypeError(
                f"Simulator needs a repro.policy.Policy, got "
                f"{type(policy).__name__}; build one with "
                f"repro.policy.create(name, cluster=..., seed=...) or "
                f"subclass repro.policy.Policy"
            )
        super().__init__(cluster, jobs, config)
        self.policy = policy
        for job in self.jobs:
            if not self.policy.capabilities.adapts_batch_size:
                job.batch_size = float(job.spec.fixed_batch_size)
        self._next_schedule = 0.0
        self._next_agent = 0.0
        self._next_autoscale = 0.0
        self.event_sink = self._policy_event_sink

    def _policy_event_sink(self, kind: str, now: float, job: SimJob) -> None:
        """Relay engine lifecycle events to the policy (see
        :func:`~repro.policy.dispatch.relay_job_event`: report-free
        snapshots, the same relay code path the wall-clock host uses)."""
        relay_job_event(self.policy, kind, now, job)

    # ------------------------------------------------------------------
    # Dispatch helpers
    # ------------------------------------------------------------------

    def _snapshot_state(self) -> ClusterState:
        """Frozen policy-facing view of the cluster and active jobs.

        Agent reports are attached only for policies whose capabilities
        declare ``needs_agent`` — building a report can trigger a
        (memoized, deterministic) model fit, so the report-call schedule
        is pinned to dispatch events to keep decision streams exact.
        """
        return build_cluster_state(
            self.cluster, self._active, self.policy.capabilities
        )

    def _apply_decision(
        self, decision: ScheduleDecision, jobs: Sequence[SimJob]
    ) -> None:
        """Apply one ScheduleDecision: batch sizes, allocations, resize.

        Shared with the wall-clock host via
        :func:`repro.policy.dispatch.apply_decision` — policy-fixed batch
        sizes land before the allocations, and a bundled resize request is
        honored last (only for ``autoscales`` policies).
        """
        apply_decision(
            decision,
            jobs,
            self.policy.capabilities,
            apply_allocations=self._apply_allocations,
            resize_cluster=self._resize_cluster,
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        """Run to completion (or the max-hours safety cap).

        The tick keeps active jobs in a submission-time-ordered list that
        admits by pointer and drops jobs as they complete (no full-workload
        rescans), and computes all cluster-level accounting — node usage,
        per-type usage, interference detection — as numpy reductions over
        one ``(J, N)`` allocation matrix that is rebuilt only when an
        allocation actually changed (see :class:`~repro.sim.engine.
        ClusterEngine`).

        All policy dispatch goes through the Policy API: capability checks
        decide *whether* an event fires (autoscale cadence, agent
        profiling, batch-size tuning), never which concrete policy is
        running.
        """
        cfg = self.config
        policy = self.policy
        result = SimResult(scheduler_name=policy.name)
        max_time = cfg.max_hours * 3600.0
        self._admit_submitted()

        while self.now < max_time:
            # Re-read per tick: ``capabilities`` is the policy's to change
            # between dispatches (e.g. its own autoscale cadence).
            caps = policy.capabilities
            if not self._active:
                if not self.pending_submissions():
                    break
                # Fast-forward to the next submission, advancing every
                # periodic timer past the idle gap (the autoscaler timer
                # included — leaving it in the past would be inconsistent
                # with the other two, although either way it fires at the
                # first post-idle tick).
                idle = self.idle_skip()
                if idle > 0:
                    result.node_seconds += self.cluster.num_nodes * idle
                    self._next_schedule = max(self._next_schedule, self.now)
                    self._next_agent = max(self._next_agent, self.now)
                    self._next_autoscale = max(self._next_autoscale, self.now)
                    self._admit_submitted()
            active = self._active

            if caps.autoscales and self.now >= self._next_autoscale:
                request = policy.decide_resize(self.now, self._snapshot_state())
                if request is not None:
                    self._resize_cluster(
                        int(request.num_nodes),
                        grow_with=request.grow_node_spec,
                    )
                # Re-read the cadence after the decision: a policy that
                # adapts its own interval inside decide_resize() is honored.
                self._next_autoscale = (
                    self.now + policy.capabilities.autoscale_interval
                )

            # A tick may hit both the scheduling and the agent interval;
            # batch sizes are re-tuned at most once per tick.
            tuned_this_tick = False
            if self.now >= self._next_schedule:
                decision = policy.schedule(self.now, self._snapshot_state())
                self._apply_decision(decision, active)
                self._next_schedule = self.now + cfg.scheduling_interval
                if caps.adapts_batch_size:
                    self._tune_batch_sizes(active)
                    tuned_this_tick = True

            if self.now >= self._next_agent:
                if caps.adapts_batch_size and not tuned_this_tick:
                    self._tune_batch_sizes(active)
                self._next_agent = self.now + cfg.agent_interval

            result.timeline.append(
                self.run_one_tick(caps.needs_agent, float(policy.last_utility))
            )
            result.node_seconds += self.cluster.num_nodes * cfg.tick_seconds

            if not self._active and not self.pending_submissions():
                break

        result.end_time = self.now
        for job in self.jobs:
            result.records.append(JobRecord.from_job(job))
        # Run is over: let the policy release threads/worker processes.
        # close() is idempotent and revivable, so a reused policy object
        # (rare, but tooling does it) keeps working.
        policy.close()
        return result
