"""Host-agnostic views of jobs and clusters, consumed by scheduling policies.

A :class:`~repro.policy.base.Policy` never sees the host's mutable runtime
objects (the simulator's ``SimJob``, or a future real-time host's pod
records).  Instead the host builds *frozen snapshots* at each dispatch
event:

- :class:`JobSnapshot` — one job's externally observable state: identity,
  progress, the currently applied allocation, its goodput-model report (for
  policies that consume agent reports), and the oracle ground-truth model
  where the host has one (the simulator does; a real cluster does not).
- :class:`ClusterState` — the cluster spec plus the ordered tuple of active
  job snapshots at the event.

Snapshots are immutable by contract: the dataclasses are frozen and the
allocation arrays are write-locked copies, so a policy cannot accidentally
mutate host state (``tests/test_policy_contract.py`` pins this).  Hosts
build them with ``repro.policy.dispatch.build_cluster_state``, which calls
:func:`snapshot_job` on any object with the simulator's job attribute
shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..cluster.spec import ClusterSpec
from ..core.agent import AgentReport
from ..core.efficiency import efficiency_scalar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..workload.models import ModelProfile

__all__ = ["JobSnapshot", "ClusterState", "snapshot_job"]


@dataclass(frozen=True)
class JobSnapshot:
    """Immutable view of one active job at a policy dispatch event.

    Fields every host can provide:

    - ``name`` / ``submission_time`` / ``gputime``: identity and attained
      GPU-time service (seconds).
    - ``allocation``: the currently applied per-node GPU vector (a
      write-locked copy; length equals the cluster's node count).
    - ``batch_size``: the batch size the job is currently training with.
    - ``fixed_num_gpus`` / ``fixed_batch_size``: the user-submitted
      configuration, used by non-adaptive baselines.
    - ``agent_report``: the job's latest goodput-model report (Sec. 4.1).
      Hosts attach it only for policies whose capabilities declare
      ``needs_agent`` — building a report is not free, and non-adaptive
      baselines never read one.

    Oracle fields, available only on hosts that know the ground truth (the
    simulator's "+Oracle" idealizations, Sec. 5.2):

    - ``progress`` / ``target``: statistical progress in m0-equivalent
      samples.  Real hosts would extrapolate these; the simulator knows
      them exactly.
    - ``model``: the ground-truth :class:`~repro.workload.models.
      ModelProfile` (throughput + gradient-noise trajectory).  ``None`` on
      hosts without an oracle; policies that require it (Optimus+Oracle,
      Or et al.) say so in their docstrings.
    """

    name: str
    submission_time: float
    allocation: np.ndarray
    batch_size: float
    gputime: float = 0.0
    fixed_num_gpus: int = 1
    fixed_batch_size: float = 0.0
    progress: float = 0.0
    target: float = float("inf")
    agent_report: Optional[AgentReport] = None
    model: Optional["ModelProfile"] = None

    def __post_init__(self) -> None:
        alloc = np.array(self.allocation, dtype=np.int64)  # defensive copy
        alloc.setflags(write=False)
        object.__setattr__(self, "allocation", alloc)
        if self.gputime < 0:
            raise ValueError("gputime must be non-negative")

    # ------------------------------------------------------------------
    # Derived conveniences (pure functions of the snapshot fields)
    # ------------------------------------------------------------------

    @property
    def num_gpus(self) -> int:
        """Total GPUs currently held."""
        return int(self.allocation.sum())

    @property
    def progress_fraction(self) -> float:
        """Fraction of the statistical work completed, in [0, 1]."""
        if not np.isfinite(self.target) or self.target <= 0:
            return 0.0
        return min(self.progress / self.target, 1.0)

    @property
    def remaining(self) -> float:
        """Statistical work left, in m0-equivalent samples."""
        return max(self.target - self.progress, 0.0)

    def efficiency_true(self, batch_size: Optional[float] = None) -> float:
        """Oracle EFFICIENCY_t(m) at the snapshot's training moment.

        Requires the oracle ``model``; raises on hosts without one.
        """
        if self.model is None:
            raise RuntimeError(
                f"job {self.name!r} has no oracle model; "
                "efficiency_true is only available on oracle hosts"
            )
        m = self.batch_size if batch_size is None else batch_size
        phi = self.model.gns.phi_scalar(self.progress_fraction)
        return efficiency_scalar(phi, float(self.model.init_batch_size), m)


@dataclass(frozen=True)
class ClusterState:
    """Immutable view of the cluster at a policy dispatch event.

    ``jobs`` holds the *active* (submitted, unfinished) jobs in the host's
    canonical order — the simulator uses submission order, and policies may
    rely on the order being stable across events.
    """

    cluster: ClusterSpec
    jobs: Tuple[JobSnapshot, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(self.jobs))

    @property
    def num_nodes(self) -> int:
        return self.cluster.num_nodes

    @property
    def total_gpus(self) -> int:
        return self.cluster.total_gpus

    def job(self, name: str) -> JobSnapshot:
        """Look up a snapshot by job name (raises KeyError if absent)."""
        for snap in self.jobs:
            if snap.name == name:
                return snap
        raise KeyError(name)


def snapshot_job(job, with_report: bool = False) -> JobSnapshot:
    """Build a :class:`JobSnapshot` from a simulator-shaped job object.

    ``job`` is duck-typed against :class:`repro.sim.job.SimJob`: it must
    expose ``name``, ``submission_time``, ``allocation``, ``batch_size``,
    ``gputime``, ``progress``, ``target``, ``model``, ``spec`` (with
    ``fixed_num_gpus`` / ``fixed_batch_size``), and — when ``with_report``
    — an ``agent`` with a ``report()`` method.

    ``with_report`` matters for decision-stream stability: building a
    report can trigger a (memoized, deterministic) model fit, so hosts
    attach reports exactly at dispatch events for policies that declare
    ``needs_agent``, and nowhere else.
    """
    return JobSnapshot(
        name=job.name,
        submission_time=job.submission_time,
        allocation=job.allocation,
        batch_size=float(job.batch_size),
        gputime=float(job.gputime),
        fixed_num_gpus=int(job.spec.fixed_num_gpus),
        fixed_batch_size=float(job.spec.fixed_batch_size),
        progress=float(job.progress),
        target=float(job.target),
        agent_report=job.agent.report() if with_report else None,
        model=job.model,
    )
