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

The simulator is the deployed scheduler run on simulated time: the
mechanism layer — job state, admission, ground-truth advancement,
allocation/resize mechanics — is the :class:`~repro.sim.engine.
ClusterEngine` base class, and :meth:`Simulator.run` hands that engine to
:class:`~repro.host.service.PolicyHost` through :meth:`~repro.host.replay.
ReplayBackend.over`.  There is one dispatch loop in the repo: the host's
round (the event order and the three cadence timers) and the replay
backend's tick loop (with its idle fast-forward).  Dispatch speaks only
:class:`~repro.policy.base.Policy` — frozen snapshot views in,
:class:`~repro.policy.base.ScheduleDecision` out, with behavior
differences expressed purely through :class:`~repro.policy.base.
PolicyCapabilities` (no policy-specific branches).

Completion times are interpolated within a tick, so tick granularity does
not quantize JCTs.
"""

from __future__ import annotations

from typing import Sequence

from ..cluster.spec import ClusterSpec
from ..policy.base import Policy

# No caller left here; the perf-ledger harness (benchmarks/e2e) wraps these
# import-site names, so they stay bound.
from ..policy.dispatch import apply_decision, build_cluster_state  # noqa: F401
from ..workload.trace import JobSpec
from .engine import ClusterEngine
from .metrics import SimResult
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

    def run(self) -> SimResult:
        """Run to completion (or the max-hours safety cap).

        A :class:`~repro.host.service.PolicyHost` replays this engine at
        infinite compression; the host closes the policy when the run
        ends, and an exception out of the policy propagates after it.
        """
        # Imported here: repro.host imports repro.sim.
        from ..host import PolicyHost, ReplayBackend

        return PolicyHost(self.policy, ReplayBackend.over(self)).run()
