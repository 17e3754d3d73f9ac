"""The ClusterBackend protocol: what a cluster owes the wall-clock host.

:class:`~repro.host.service.PolicyHost` is mechanism-agnostic: it speaks to
the cluster through this protocol, which abstracts *where jobs actually
run* — the simulator's :class:`~repro.sim.engine.ClusterEngine` replaying
a recorded trace (:class:`~repro.host.replay.ReplayBackend`) or paced on
the wall clock as a live cluster that accepts submissions
(:class:`~repro.host.threaded.ThreadedBackend`), or, in a real
deployment, a Kubernetes/Ray operator speaking to pods.

Time is *host time* in seconds since :meth:`ClusterBackend.start` — the
engine clock for both backends in this package, which a finite
compression paces against the wall clock.  Job objects returned by
:meth:`ClusterBackend.jobs` are duck-typed against
:class:`repro.sim.job.SimJob` (the attribute shape
:func:`repro.policy.views.snapshot_job` consumes), so the host builds
policy snapshots with one set of builders for every backend.

Lifecycle events (job submitted / completed) flow from the backend to the
host through ``host.dispatch_event(kind, time, job)``; both backends in
this package deliver them synchronously at the exact engine point they
occur.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from typing import TYPE_CHECKING, Optional, Protocol, Sequence, runtime_checkable

from ..cluster.spec import ClusterSpec, NodeSpec
from ..sim.metrics import SimResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .service import HostConfig, PolicyHost

__all__ = ["ClusterBackend"]


@runtime_checkable
class ClusterBackend(Protocol):
    """Cluster mechanism driven by a :class:`~repro.host.service.PolicyHost`.

    ``finite`` declares whether the backend drains a fixed workload (the
    host's run loop then ends when :meth:`drained`) or serves live
    submissions indefinitely (the host keeps dispatching until stopped or
    drained on request).
    """

    finite: bool

    # -- lifecycle ------------------------------------------------------

    def start(self, host: "PolicyHost") -> None:
        """Bind to the host and begin serving.

        The backend keeps ``host`` to read the policy's live capabilities
        (``host.policy.capabilities``), sample scheduling telemetry
        (``host.policy.last_utility``), and deliver lifecycle events
        (``host.dispatch_event``).  Backends apply the policy's
        ``adapts_batch_size`` contract here: jobs of non-adaptive policies
        train at their submitted fixed batch size.
        """
        ...

    def stop(self) -> None:
        """Stop serving (idempotent); called by the host on exit."""
        ...

    # -- inventory ------------------------------------------------------

    def now(self) -> float:
        """Current host time, in seconds since :meth:`start`."""
        ...

    def deadline(self) -> float:
        """Host time at which the run is cut off (``inf`` for no cap)."""
        ...

    def cluster(self) -> ClusterSpec:
        """Current node inventory (changes only through :meth:`resize`)."""
        ...

    def jobs(self) -> Sequence:
        """Active jobs in canonical (submission) order, SimJob-shaped."""
        ...

    def drained(self) -> bool:
        """No active jobs and no known future submissions."""
        ...

    # -- time -----------------------------------------------------------

    def idle_fast_forward(self) -> float:
        """Skip an idle stretch, returning the host-time seconds skipped.

        Only trace-replaying backends can see the future; live backends
        return 0.0.  The host re-aligns its dispatch timers by the amount
        skipped.
        """
        ...

    def advance(self, until: float) -> None:
        """Run the cluster forward to host time ``until``.

        This package's backends step their engine tick by tick, paced at
        ``tick/compression`` wall seconds per tick (a paced backend more
        than a tick late gives the lost time up).  Lifecycle events are
        delivered to ``host.dispatch_event`` during the call, in event
        order.  Returns early when the active set empties (so a replay
        can fast-forward) or the backend is stopped/drained.
        """
        ...

    def drain_events(self) -> None:
        """Deliver any queued lifecycle events to the host, in order.

        The host calls this before every dispatch round so a policy never
        sees a job in a snapshot before its ``on_job_submitted`` event.
        A no-op for backends that deliver events synchronously, as both
        backends in this package do.
        """
        ...

    # -- service hooks --------------------------------------------------

    def find_job(self, name: str) -> Optional[object]:
        """Look up a job by name: a live SimJob-shaped object while the
        job is active, a :class:`~repro.sim.metrics.JobRecord` once it
        completed, or ``None`` if the backend has never seen the name.
        Callers that need a consistent view hold :meth:`dispatch_lock`.
        """
        ...

    def cancel(self, name: str) -> bool:
        """Cancel a job by name (the service's ``DELETE /v1/jobs`` path).

        An active job is finished immediately at the current host time
        (allocation zeroed, a ``completed`` lifecycle event delivered to
        the policy through the normal event path); a queued-but-unadmitted
        submission is dropped and the policy never sees it.  Returns False
        when the name is unknown or the job already completed.
        """
        ...

    # -- mechanism ------------------------------------------------------

    def dispatch_lock(self) -> AbstractContextManager:
        """Context manager the host holds while building snapshots and
        applying decisions; service reads from other threads hold it too."""
        ...

    def apply_allocations(self, allocations, jobs: Sequence) -> None:
        """Apply per-job allocation vectors with restart accounting."""
        ...

    def resize(self, num_nodes: int, grow_node_spec: Optional[NodeSpec]) -> None:
        """Grow or shrink the cluster to ``num_nodes`` nodes."""
        ...

    # -- results --------------------------------------------------------

    def host_config(self) -> "HostConfig":
        """The dispatch cadences this backend expects (the host's default)."""
        ...

    def collect_result(self, scheduler_name: str) -> SimResult:
        """Final accounting for the run, simulator-result-shaped."""
        ...
