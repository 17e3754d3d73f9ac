"""ReplayBackend: the simulator's engine on a paced clock.

Drives a :class:`~repro.sim.engine.ClusterEngine` paced by the
:class:`~repro.host.service.PolicyHost` loop: each engine tick of
``config.tick_seconds`` virtual seconds takes ``tick_seconds /
compression`` wall seconds (``compression=inf``, the default, replays as
fast as the policy can decide).  A paced step runs once the wall clock
has reached its end; a backend more than a step late gives the lost wall
time up instead of racing to catch it up.

This is the discrete-time simulator's own loop: :meth:`repro.sim.
Simulator.run` is ``PolicyHost(policy, ReplayBackend.over(sim)).run()``,
so :meth:`ReplayBackend.advance` is the simulator's tick loop and
:meth:`ReplayBackend.idle_fast_forward` its idle skip.  A replay of a
trace therefore reproduces the simulator's decision stream on the same
trace and seed by construction; ``tests/test_host.py`` pins it
digest-for-digest all the same.

The live :class:`~repro.host.threaded.ThreadedBackend` is this class with
``finite = False``; the class attribute is the only switch between the
two modes:

- a finite replay fast-forwards idle gaps, stops once the trace is
  drained, steps whole ticks and keeps its whole history;
- a live backend never fast-forwards and keeps ticking an empty cluster
  (until the host drains it), ends the step before a dispatch timer
  exactly on that timer, and keeps a bounded history: completed jobs are
  compacted to :class:`~repro.sim.metrics.JobRecord`\\ s and the timeline
  keeps its most recent samples.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Deque, Optional, Sequence

from ..cluster.spec import ClusterSpec, NodeSpec
from ..sim.engine import ClusterEngine
from ..sim.metrics import JobRecord, SimResult, TimelineSample
from ..sim.simconfig import SimConfig
from ..workload.trace import JobSpec
from .service import HostConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .service import PolicyHost

__all__ = ["ReplayBackend"]

#: Completed-job records and timeline samples a live backend keeps.
_HISTORY_LIMIT = 65536

#: Longest single sleep of a paced backend, so a host stop() is prompt.
_SLEEP_SLICE_S = 0.1


class ReplayBackend:
    """Replays a recorded workload trace for a :class:`PolicyHost`.

    Args:
        cluster: Initial node inventory.
        trace: The recorded submissions (:class:`~repro.workload.trace.
            JobSpec` list), replayed at their recorded times.
        config: Simulator-shaped run parameters (tick size, noise seeds,
            restart delay, ``max_hours`` cap); sharing :class:`~repro.sim.
            SimConfig` is what makes replays comparable to simulations.
        compression: Virtual seconds replayed per wall-clock second.
            ``inf`` (default) never sleeps; ``3600.0`` replays an hour of
            trace per second; ``1.0`` is real time.
    """

    finite = True

    def __init__(
        self,
        cluster: ClusterSpec,
        trace: Sequence[JobSpec],
        config: SimConfig = SimConfig(),
        compression: float = float("inf"),
    ):
        if compression <= 0:
            raise ValueError("compression must be positive")
        self._attach(ClusterEngine(cluster, trace, config), float(compression))

    @classmethod
    def over(cls, engine: ClusterEngine) -> "ReplayBackend":
        """Replay an existing, not yet started engine at infinite
        compression — how :meth:`repro.sim.Simulator.run` runs itself."""
        backend = cls.__new__(cls)
        backend._attach(engine, float("inf"))
        return backend

    def _attach(self, engine: ClusterEngine, compression: float) -> None:
        self.engine = engine
        self.config = engine.config
        self.compression = compression
        self._lock = threading.RLock()
        limit = None if self.finite else _HISTORY_LIMIT
        self._timeline: Deque[TimelineSample] = deque(maxlen=limit)
        self._completed: Deque[JobRecord] = deque(maxlen=limit)
        self._node_seconds = 0.0
        # Pacing anchor: host seconds actually ticked (idle fast-forwards
        # excluded) against the wall clock at start().
        self._ticked = 0.0
        self._wall_start = 0.0
        self._host: Optional["PolicyHost"] = None

    # -- lifecycle ------------------------------------------------------

    def host_config(self) -> HostConfig:
        """Cadences matching this replay's SimConfig (simulator parity)."""
        cfg = self.config
        return HostConfig(
            scheduling_interval=cfg.scheduling_interval,
            agent_interval=cfg.agent_interval,
        )

    def start(self, host: "PolicyHost") -> None:
        with self._lock:
            self._host = host
            if not host.policy.capabilities.adapts_batch_size:
                for job in self.engine.jobs:
                    job.batch_size = float(job.spec.fixed_batch_size)
            self.engine.event_sink = host.dispatch_event
            self.engine._admit_submitted()
            self._wall_start = time.monotonic()

    def stop(self) -> None:
        """Nothing persistent to tear down (idempotent)."""

    # -- inventory ------------------------------------------------------

    def now(self) -> float:
        return self.engine.now

    def deadline(self) -> float:
        return self.config.max_hours * 3600.0

    def cluster(self) -> ClusterSpec:
        return self.engine.cluster

    def jobs(self) -> Sequence:
        return self.engine._active

    def drained(self) -> bool:
        return not self.engine._active and not self.engine.pending_submissions()

    # -- service hooks --------------------------------------------------

    def find_job(self, name: str):
        """A job's live SimJob state (admitted or queued), its JobRecord
        once a live backend compacted it, or None."""
        for job in self.engine.jobs:
            if job.name == name:
                return job
        for record in self._completed:
            if record.name == name:
                return record
        return None

    def cancel(self, name: str) -> bool:
        """Cancel an active or queued job (service ``DELETE`` path).

        See :meth:`~repro.sim.engine.ClusterEngine.cancel`: an active job
        finishes through the completion path, a queued one is dropped
        unseen.  Any cancel perturbs the decision stream, so replays being
        digest-compared to a simulator run must not cancel.
        """
        return self.engine.cancel(name)

    # -- time -----------------------------------------------------------

    def idle_fast_forward(self) -> float:
        eng = self.engine
        if not self.finite or eng._active or not eng.pending_submissions():
            return 0.0
        with self._lock:
            idle = eng.idle_skip()
            if idle > 0:
                self._node_seconds += eng.cluster.num_nodes * idle
                eng._admit_submitted()
        return idle

    def advance(self, until: float) -> None:
        """Step engine ticks until host time ``until`` (or an idle gap).

        This is the simulator's tick loop: each tick is one
        :meth:`~repro.sim.engine.ClusterEngine.run_one_tick` (observe/
        advance with profiling gated on the policy's live ``needs_agent``,
        completion events, timeline sample, clock, admission), run under
        the dispatch lock.  A finite replay returns early at an idle gap
        of a whole tick or more so the host can fast-forward its timers
        through :meth:`idle_fast_forward`.
        """
        eng = self.engine
        tick = self.config.tick_seconds
        host = self._host
        deadline = self.deadline()
        # The host loop checked the deadline before this round (with the
        # pre-fast-forward clock), so the round's first tick is exempt
        # here: a tick reached by skipping an idle gap past the deadline
        # still runs once.
        first_tick = True
        while eng.now < until and not host.stopping:
            if not first_tick and eng.now >= deadline:
                break
            if not eng._active:
                if not eng.pending_submissions():
                    if self.finite or host.draining:
                        break  # drained
                elif self.finite and eng.idle_gap_ticks() >= 1:
                    break  # host fast-forwards and re-aligns its timers
            # A live step lands exactly on the next timer: the one before
            # it stretches to up to two ticks rather than adding a short
            # tick, since every tick profiles each running job once.
            remaining = until - eng.now
            seconds = remaining if not self.finite and remaining < 2 * tick else tick
            # A paced step runs once the wall clock has reached its end, so
            # the host clock never runs ahead of the wall.
            if math.isfinite(self.compression) and not self._pace(seconds):
                break
            # The tick takes the lock object itself: dispatch_lock() is
            # what a round holds, and may be wrapped to time rounds.
            with self._lock:
                self._timeline.append(
                    eng.run_one_tick(
                        host.policy.capabilities.needs_agent,
                        float(host.policy.last_utility),
                        seconds,
                    )
                )
                self._node_seconds += eng.cluster.num_nodes * seconds
                if not self.finite:
                    self._completed.extend(map(JobRecord.from_job, eng.compact()))
            self._ticked += seconds
            first_tick = False

    def _pace(self, seconds: float) -> bool:
        """Sleep until the wall clock reaches the end of the next step.

        A backend up to one step late catches up by not sleeping; one
        later than that gives the lost wall time up (re-anchors), so after
        a slow round the host clock runs behind ``wall * compression`` but
        never faster than ``compression``.  False if the host stopped.
        """
        host = self._host
        step = seconds / self.compression
        due = self._wall_start + self._ticked / self.compression + step
        late = time.monotonic() - due
        if late > step:
            self._wall_start += late
            return True
        while not host.stopping:
            remaining = due - time.monotonic()
            if remaining <= 0:
                return True
            time.sleep(min(remaining, _SLEEP_SLICE_S))
        return False

    def drain_events(self) -> None:
        """No-op: engine events are delivered synchronously at the exact
        tick point they occur (the bit-for-bit schedule)."""

    # -- mechanism ------------------------------------------------------

    def dispatch_lock(self):
        """The lock every tick, round and service read holds."""
        return self._lock

    def apply_allocations(self, allocations, jobs: Sequence) -> None:
        self.engine._apply_allocations(allocations, jobs)

    def resize(self, num_nodes: int, grow_node_spec: Optional[NodeSpec]) -> None:
        self.engine._resize_cluster(num_nodes, grow_with=grow_node_spec)

    # -- results --------------------------------------------------------

    def collect_result(self, scheduler_name: str) -> SimResult:
        """Every job's record in submission order, plus the timeline."""
        with self._lock:
            eng = self.engine
            records = list(self._completed)
            records.extend(map(JobRecord.from_job, eng.jobs))
            records.sort(key=lambda r: (r.submission_time, r.name))
            return SimResult(
                records=records,
                timeline=list(self._timeline),
                node_seconds=self._node_seconds,
                end_time=eng.now,
                scheduler_name=scheduler_name,
            )
