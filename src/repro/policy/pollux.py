"""Pollux as a :class:`~repro.policy.base.Policy` (Sec. 4).

The co-adaptive goodput-optimizing policy: consumes each job's agent report
(fitted throughput model + gradient noise scale), runs the genetic
algorithm over allocation matrices (:class:`~repro.core.sched.PolluxSched`),
and — when constructed with an :class:`~repro.core.autoscale.
AutoscaleConfig` — also drives goodput-utility cloud autoscaling
(Sec. 4.2.2) through the same interface via :meth:`decide_resize`.

Construct via the registry::

    policy = repro.policy.create("pollux", cluster=cluster, seed=0)
    autoscaling = repro.policy.create(
        "pollux", cluster=cluster, autoscale=AutoscaleConfig(max_nodes=32)
    )
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cluster.spec import ClusterSpec, NodeSpec
from ..core.autoscale import AutoscaleConfig, UtilityAutoscaler
from ..core.sched import PolluxSched, PolluxSchedConfig, SchedJobInfo
from .base import (
    ClusterResizeRequest,
    Policy,
    PolicyCapabilities,
    ScheduleDecision,
)
from .registry import register
from .views import ClusterState, JobSnapshot

__all__ = ["PolluxPolicy"]


def _infos(jobs: Sequence[JobSnapshot]) -> List[SchedJobInfo]:
    """PolluxSched job snapshots from the policy-API views.

    Requires agent reports (the host attaches them because this policy's
    capabilities declare ``needs_agent``).
    """
    infos = []
    for snap in jobs:
        if snap.agent_report is None:
            raise ValueError(
                f"job {snap.name!r} has no agent report; the Pollux policy "
                "requires a host that honors needs_agent"
            )
        infos.append(
            SchedJobInfo(
                job_id=snap.name,
                report=snap.agent_report,
                current_alloc=snap.allocation,
                gputime=snap.gputime,
            )
        )
    return infos


class PolluxPolicy(Policy):
    """Goodput-optimizing co-adaptive scheduling, optionally autoscaling.

    Args:
        cluster: The cluster the policy will schedule (required; the
            scheduler pre-builds per-cluster state and survives resizes
            via :meth:`~repro.core.sched.PolluxSched.set_cluster`).
        config: :class:`~repro.core.sched.PolluxSchedConfig`; defaults to
            the paper's Sec. 5.1 settings.
        seed: Seeds the genetic algorithm's random stream.
        autoscale: An :class:`~repro.core.autoscale.AutoscaleConfig`
            enables goodput-utility cloud autoscaling; ``None`` (default)
            disables it.  Its resize probes are seeded by
            ``AutoscaleConfig.probe_ga.seed``.
        autoscale_interval: Cadence of resize decisions, seconds.
        grow_node_spec: Node shape added when growing a heterogeneous
            fleet; ``None`` clones the last node.
    """

    name = "pollux"

    def __init__(
        self,
        cluster: ClusterSpec,
        config: Optional[PolluxSchedConfig] = None,
        seed: int = 0,
        autoscale: Optional[AutoscaleConfig] = None,
        autoscale_interval: float = 600.0,
        grow_node_spec: Optional[NodeSpec] = None,
    ):
        self.sched = PolluxSched(cluster, config, seed=seed)
        self.seed = seed
        self.grow_node_spec = grow_node_spec
        self.capabilities = PolicyCapabilities(
            adapts_batch_size=True,
            needs_agent=True,
            autoscales=autoscale is not None,
            autoscale_interval=autoscale_interval,
        )
        self._autoscaler: Optional[UtilityAutoscaler] = None
        if autoscale is not None:
            self._autoscaler = UtilityAutoscaler(
                autoscale, self.sched.surface_cache, self.sched.config
            )

    # ------------------------------------------------------------------
    # Policy API
    # ------------------------------------------------------------------

    def schedule(self, now: float, state: ClusterState) -> ScheduleDecision:
        del now
        self.sched.set_cluster(state.cluster)
        allocations = self.sched.optimize(_infos(state.jobs))
        return ScheduleDecision(allocations=allocations)

    def decide_resize(
        self, now: float, state: ClusterState
    ) -> Optional[ClusterResizeRequest]:
        del now
        if self._autoscaler is None:
            return None
        if not state.jobs:
            return ClusterResizeRequest(
                self._autoscaler.config.min_nodes, self.grow_node_spec
            )
        # One set of job infos serves both the in-band utility check and
        # the probes, and the probes share the live scheduler's surface
        # cache — each job's speedup table is built at most once per tick
        # across the utility check + probes + the scheduling round itself.
        infos = _infos(state.jobs)
        matrix = np.stack([snap.allocation for snap in state.jobs])
        utility = self.utility_of(infos, matrix)
        decision = self._autoscaler.decide(
            utility, infos, state.cluster, self.grow_node_spec
        )
        return ClusterResizeRequest(decision.num_nodes, self.grow_node_spec)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    @property
    def last_utility(self) -> float:
        """UTILITY(A) (Eqn. 17) of the last optimized allocation matrix."""
        return self.sched.last_utility

    @property
    def last_phase_timings(self) -> Dict[str, float]:
        """Per-phase wall-clock of the last scheduling round, in ms.

        Keys: ``table_ms`` (speedup-table builds), the GA engine's
        ``repair_ms``/``fitness_ms``/``select_ms``/``mutate_ms``, and
        ``total_ms`` (see :attr:`PolluxSched.last_phase_timings`).
        """
        return self.sched.last_phase_timings

    def current_utility(self, jobs: Sequence[JobSnapshot]) -> float:
        """UTILITY(A) of the currently applied allocations (Eqn. 17)."""
        if not jobs:
            return 0.0
        matrix = np.stack([snap.allocation for snap in jobs])
        return self.utility_of(_infos(jobs), matrix)

    def utility_of(
        self, infos: Sequence[SchedJobInfo], matrix: np.ndarray
    ) -> float:
        """UTILITY(A) for pre-built job infos (avoids re-snapshotting)."""
        if not infos:
            return 0.0
        return self.sched.utility(infos, matrix)


register(
    "pollux",
    PolluxPolicy,
    description=(
        "Co-adaptive goodput-optimizing scheduling (the paper's policy); "
        "autoscale=AutoscaleConfig(...) adds goodput-utility cloud "
        "autoscaling"
    ),
)
