"""The Policy API: capabilities, decisions, and the policy base class.

This is the seam between scheduling *policy* and cluster *mechanism* (in the
Blox sense): a policy consumes frozen :mod:`~repro.policy.views` snapshots
and returns a :class:`ScheduleDecision`; the host
(:class:`repro.host.PolicyHost`, which runs the discrete-time simulator,
trace replays and the wall-clock service alike) owns the dispatch loop, the
job runtime state, and the application of decisions.

A policy declares what it needs from its host in a
:class:`PolicyCapabilities` descriptor instead of loose class attributes,
and autoscaling is part of the same interface — a policy with
``capabilities.autoscales`` gets a cadenced :meth:`Policy.decide_resize`
event that returns a :class:`ClusterResizeRequest` — rather than a
parallel hook protocol object.

See the package docstring (:mod:`repro.policy`) for a writing-a-new-policy
walkthrough.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Optional

import numpy as np

from ..cluster.spec import NodeSpec
from .views import ClusterState

__all__ = [
    "PolicyCapabilities",
    "ClusterResizeRequest",
    "ScheduleDecision",
    "Policy",
]


@dataclass(frozen=True)
class PolicyCapabilities:
    """What a policy needs from its host, declared explicitly.

    - ``adapts_batch_size``: the host should let each running job's agent
      re-tune its batch size on the agent cadence (Pollux co-adaptivity);
      when False, jobs train at their policy- or user-fixed batch size.
    - ``needs_agent``: the host should profile running jobs (feed
      iteration-time and gradient-noise measurements to their agents) and
      attach :class:`~repro.core.agent.AgentReport` snapshots to the job
      views it hands the policy.  Policies that schedule from submitted
      configurations or oracle models leave this False and receive
      ``agent_report=None``.
    - ``autoscales``: the policy issues cluster-resize requests.  The host
      invokes :meth:`Policy.decide_resize` every ``autoscale_interval``
      seconds (before the scheduling event of the same tick) and applies
      the :class:`ClusterResizeRequest` it returns.  When False the host
      never resizes on the policy's behalf.
    - ``autoscale_interval``: cadence of the resize event, in seconds
      (only meaningful with ``autoscales``).
    """

    adapts_batch_size: bool = False
    needs_agent: bool = False
    autoscales: bool = False
    autoscale_interval: float = 600.0

    def __post_init__(self) -> None:
        if self.autoscale_interval <= 0:
            raise ValueError("autoscale_interval must be positive")


@dataclass(frozen=True)
class ClusterResizeRequest:
    """A request to grow or shrink the cluster to ``num_nodes`` nodes.

    ``grow_node_spec`` chooses the node shape (GPU count and type) added
    when growing a heterogeneous fleet; ``None`` clones the cluster's last
    node (the homogeneous behavior).  Shrinking always drops nodes from the
    end of the cluster.
    """

    num_nodes: int
    grow_node_spec: Optional[NodeSpec] = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")


@dataclass(frozen=True)
class ScheduleDecision:
    """Outcome of one scheduling event.

    - ``allocations``: job name -> per-node GPU vector, for any subset of
      the *active* jobs in the state the policy was shown; omitted jobs
      keep their current allocation.  Vectors are indexed against the
      cluster the policy was shown.
    - ``batch_sizes``: job name -> batch size the host should apply before
      the jobs next run.  Used by policies that fix batch sizes themselves
      (e.g. Or et al.'s throughput-optimal choice) instead of delegating
      to per-job agents via ``adapts_batch_size``.

    Mappings are stored behind read-only proxies; build a new decision
    rather than mutating one.
    """

    allocations: Mapping[str, np.ndarray] = field(default_factory=dict)
    batch_sizes: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "allocations", MappingProxyType(dict(self.allocations))
        )
        object.__setattr__(
            self, "batch_sizes", MappingProxyType(dict(self.batch_sizes))
        )


class Policy:
    """Base class for scheduling policies (periodic, host-agnostic).

    Subclasses set ``name`` and ``capabilities``, implement
    :meth:`schedule`, and may override :meth:`decide_resize`.  Policies
    are stateful objects: the host constructs one per run (usually via
    :func:`repro.policy.create`) and calls it in host-time order.

    Call order within one host round: ``decide_resize`` (if due), then
    ``schedule`` (if due).  Each call gets a fresh snapshot of the active
    jobs, so a job's arrival or departure shows as its appearance in or
    absence from ``state.jobs``.
    """

    #: Registry/display name; also recorded in simulation results.
    name: str = "policy"

    #: What this policy needs from its host.
    capabilities: PolicyCapabilities = PolicyCapabilities()

    #: Seed for any randomness the policy uses.  Deterministic policies
    #: accept and record it anyway, so sweep scripts can thread one seed
    #: knob uniformly (``create(name, seed=...)``) without lying about
    #: which policies consume it.
    seed: int = 0

    #: Telemetry: UTILITY(A) of the last optimized allocation (Eqn. 17)
    #: for policies that compute one; hosts may sample it each tick.
    last_utility: float = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release any resources the policy holds.  Default: no-op.

        Hosts call this once their run ends (simulator and wall-clock
        service alike), so policies owning threads, worker processes, or
        file handles — e.g. ``pollux-sharded``'s cell executor — can shut
        them down deterministically instead of leaking until GC.  Must be
        idempotent; a policy may be scheduled again after close (hosts do
        not, but tooling that reuses a policy object across runs does),
        in which case it revives what it needs.
        """

    # ------------------------------------------------------------------
    # Scheduling events
    # ------------------------------------------------------------------

    def schedule(self, now: float, state: ClusterState) -> ScheduleDecision:
        """Produce allocations for the active jobs in ``state``.

        Called on the host's scheduling cadence.  Must return a
        :class:`ScheduleDecision`; an empty decision keeps every current
        allocation.
        """
        raise NotImplementedError

    def decide_resize(
        self, now: float, state: ClusterState
    ) -> Optional[ClusterResizeRequest]:
        """Propose a cluster size (autoscaling policies only).

        Called every ``capabilities.autoscale_interval`` seconds, before
        the same tick's scheduling event, when ``capabilities.autoscales``.
        Return ``None`` (the default) to keep the current size.
        """
        return None

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    @staticmethod
    def keep_all(state: ClusterState) -> Dict[str, np.ndarray]:
        """Allocation mapping that re-applies every job's current vector."""
        return {snap.name: np.array(snap.allocation) for snap in state.jobs}

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} name={self.name!r} seed={self.seed}>"
