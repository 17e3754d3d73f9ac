"""PolicyHost: the scheduling service driving the Policy API.

The service owns the dispatch loop the paper's deployed scheduler runs
(Sec. 5), and the only one in the repo: at a fixed scheduling cadence
(and, for autoscaling policies, a resize cadence) it builds frozen
snapshot views of the cluster state, invokes the policy, and applies the
returned decisions through a :class:`~repro.host.backend.ClusterBackend`.
It honors :class:`~repro.policy.base.PolicyCapabilities` — agent reports
are attached to snapshots only for ``needs_agent`` policies,
``decide_resize`` fires on the declared cadence before the same round's
scheduling event, batch-size re-tuning runs on the agent cadence for
``adapts_batch_size`` policies — through the helpers in
:mod:`repro.policy.dispatch`.

The discrete-time simulator runs on this loop: :meth:`repro.sim.Simulator.
run` drives its engine through a :class:`~repro.host.replay.ReplayBackend`
at infinite compression, so a replay of a recorded trace reproduces the
simulator's decision stream by construction (``tests/test_host.py`` pins
it).  Driven by a :class:`~repro.host.threaded.ThreadedBackend`, the same
policy object schedules goodput-model-driven worker jobs advancing
asynchronously in real time.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from ..policy.base import Policy
from ..policy.dispatch import (
    apply_decision,
    build_cluster_state,
    relay_job_event,
    tune_batch_sizes,
)
from ..sim.metrics import SimResult
from .backend import ClusterBackend

__all__ = ["HostConfig", "RoundMetrics", "HostMetrics", "PolicyHost"]


@dataclass(frozen=True)
class HostConfig:
    """Dispatch cadences of a :class:`PolicyHost`, in host-time seconds.

    Defaults follow the paper's deployment (Sec. 5.1): schedule every 60 s,
    let agents re-tune batch sizes every 30 s.  When constructed without an
    explicit config, the host asks the backend for its preferred cadences
    (:meth:`~repro.host.backend.ClusterBackend.host_config`) — the replay
    backend derives them from its ``SimConfig`` so replays match the
    simulator by construction.
    """

    scheduling_interval: float = 60.0
    agent_interval: float = 30.0

    def __post_init__(self) -> None:
        if self.scheduling_interval <= 0:
            raise ValueError("scheduling_interval must be positive")
        if self.agent_interval <= 0:
            raise ValueError("agent_interval must be positive")


@dataclass(frozen=True)
class RoundMetrics:
    """Structured accounting for one dispatch round.

    A *round* is one wake-up of the host loop at which at least one timer
    (scheduling, agent, or autoscale) was due.  ``latency_s`` is real
    wall-clock (``time.perf_counter``) spent inside policy dispatch —
    snapshot builds, the policy calls, and decision application —
    regardless of the backend's time compression.
    """

    time: float  # host time of the round
    latency_s: float  # wall-clock dispatch latency
    num_jobs: int  # active jobs at dispatch
    scheduled: bool  # the scheduling event fired
    decisions_applied: int  # allocations in the applied decision
    restarts_triggered: int  # job restarts caused by this round
    resized: bool  # the cluster was resized this round
    utility: float  # policy.last_utility after dispatch


class HostMetrics:
    """Aggregate view plus recent history of a host's dispatch rounds.

    A live host dispatches forever, so :attr:`rounds` keeps only the most
    recent ``history_limit`` :class:`RoundMetrics` (a bounded deque);
    :meth:`summary` aggregates over the *whole* run via running counters,
    so the totals stay exact no matter how much history was dropped.
    """

    def __init__(self, history_limit: int = 4096):
        self.rounds: Deque[RoundMetrics] = deque(maxlen=history_limit)
        self._rounds = 0
        self._scheduling_rounds = 0
        self._decisions_applied = 0
        self._restarts_triggered = 0
        self._resizes = 0
        self._latency_sum = 0.0
        self._latency_max = 0.0

    def record(self, round_: RoundMetrics) -> None:
        self.rounds.append(round_)
        self._rounds += 1
        self._restarts_triggered += round_.restarts_triggered
        # Latency covers every dispatch round — autoscale-only rounds run
        # the expensive resize probes, so excluding them would hide the
        # slowest dispatches.
        self._latency_sum += round_.latency_s
        self._latency_max = max(self._latency_max, round_.latency_s)
        if round_.resized:
            self._resizes += 1
        if round_.scheduled:
            self._scheduling_rounds += 1
            self._decisions_applied += round_.decisions_applied

    def summary(self) -> dict:
        return {
            "rounds": self._rounds,
            "scheduling_rounds": self._scheduling_rounds,
            "decisions_applied": self._decisions_applied,
            "restarts_triggered": self._restarts_triggered,
            "resizes": self._resizes,
            "mean_latency_s": (
                self._latency_sum / self._rounds if self._rounds else 0.0
            ),
            "max_latency_s": self._latency_max,
        }


class PolicyHost:
    """Drives a :class:`~repro.policy.base.Policy` against live cluster state.

    Lifecycle::

        host = PolicyHost(policy, backend)
        host.run()                  # blocking: dispatch until drained
        # -- or --
        host.start()                # background thread
        backend.submit(spec)        # (threaded backend) live submissions
        host.drain()                # finish the queued work, then stop
        result = host.result        # SimResult-shaped accounting

    ``stop()`` halts dispatch immediately (jobs in flight are abandoned);
    ``drain()`` lets the backend run dry first.  ``host.metrics`` holds
    per-round :class:`RoundMetrics`; ``host.metrics.summary()`` aggregates
    them.
    """

    def __init__(
        self,
        policy: Policy,
        backend: ClusterBackend,
        config: Optional[HostConfig] = None,
    ):
        self.policy = policy
        self.backend = backend
        self.config = config if config is not None else backend.host_config()
        self.metrics = HostMetrics()
        self.result: Optional[SimResult] = None
        self._stop = threading.Event()
        self._drain = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._next_schedule = 0.0
        self._next_agent = 0.0
        self._next_autoscale = 0.0

    # ------------------------------------------------------------------
    # Lifecycle events (called by the backend, on the host's loop thread)
    # ------------------------------------------------------------------

    def dispatch_event(self, kind: str, now: float, job) -> None:
        """Relay a backend lifecycle event to the policy (see
        :func:`~repro.policy.dispatch.relay_job_event`: report-free
        snapshots)."""
        relay_job_event(self.policy, kind, now, job)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def _dispatch_round(self) -> None:
        """Fire every due dispatch event at the current host time.

        The round's event order, for the simulator and every backend:
        ``decide_resize`` (if due) before ``schedule`` (if due) before the
        agent batch-tuning cadence; a fresh snapshot state is built per
        event.  Runs under the backend's dispatch lock.
        """
        policy = self.policy
        backend = self.backend
        cfg = self.config
        caps = policy.capabilities
        t0 = time.perf_counter()
        scheduled = False
        applied = 0
        # Deliver queued lifecycle events first: a policy must see
        # on_job_submitted for every job that can appear in a snapshot
        # (asynchronous backends queue events between advance() calls).
        backend.drain_events()
        # Read the round's clock AFTER draining, under the lock: the
        # policy must never receive a dispatch `now` earlier than a
        # lifecycle event it was just delivered.
        now = backend.now()
        # One fetch serves the whole round: the host holds the backend's
        # dispatch lock, so the active set cannot change mid-round.
        jobs = backend.jobs()
        num_jobs = len(jobs)
        nodes_before = backend.cluster().num_nodes
        restarts_before = sum(j.num_restarts for j in jobs)

        autoscale_fired = False
        if caps.autoscales and now >= self._next_autoscale:
            autoscale_fired = True
            state = build_cluster_state(backend.cluster(), jobs, caps)
            request = policy.decide_resize(now, state)
            if request is not None:
                backend.resize(int(request.num_nodes), request.grow_node_spec)
            # Re-read the cadence after the decision: a policy may adapt
            # its own interval inside decide_resize().
            self._next_autoscale = now + policy.capabilities.autoscale_interval

        tuned_this_round = False
        if now >= self._next_schedule:
            scheduled = True
            state = build_cluster_state(backend.cluster(), jobs, caps)
            decision = policy.schedule(now, state)
            applied = len(decision.allocations)
            apply_decision(
                decision,
                jobs,
                caps,
                apply_allocations=backend.apply_allocations,
                resize_cluster=backend.resize,
            )
            self._next_schedule = now + cfg.scheduling_interval
            if caps.adapts_batch_size:
                tune_batch_sizes(jobs)
                tuned_this_round = True

        agent_fired = False
        if now >= self._next_agent:
            agent_fired = True
            if caps.adapts_batch_size and not tuned_this_round:
                tune_batch_sizes(jobs)
            self._next_agent = now + cfg.agent_interval

        # Covers both resize paths: cadenced decide_resize and a resize
        # bundled in the ScheduleDecision (applied by apply_decision).
        resized = backend.cluster().num_nodes != nodes_before
        if scheduled or resized or agent_fired or autoscale_fired:
            restarts_after = sum(j.num_restarts for j in jobs)
            self.metrics.record(
                RoundMetrics(
                    time=now,
                    latency_s=time.perf_counter() - t0,
                    num_jobs=num_jobs,
                    scheduled=scheduled,
                    decisions_applied=applied,
                    restarts_triggered=max(restarts_after - restarts_before, 0),
                    resized=resized,
                    utility=float(policy.last_utility),
                )
            )

    def run(self) -> SimResult:
        """Dispatch until the backend drains (or :meth:`stop` is called).

        For ``finite`` backends (trace replay) the loop ends when the
        trace is exhausted; for live backends it keeps serving until
        :meth:`drain` or :meth:`stop`.  Returns (and stores on
        :attr:`result`) the backend's final accounting.
        """
        backend = self.backend
        policy = self.policy
        backend.start(self)
        try:
            while not self._stop.is_set():
                caps = policy.capabilities
                now = backend.now()
                if now >= backend.deadline():
                    break
                if backend.drained():
                    if backend.finite or self._drain.is_set():
                        break
                # An idle trace-replay fast-forwards to the next arrival;
                # every periodic timer advances past the skipped gap (the
                # autoscale timer included, though it fires either way).
                skipped = backend.idle_fast_forward()
                if skipped > 0:
                    now = backend.now()
                    self._next_schedule = max(self._next_schedule, now)
                    self._next_agent = max(self._next_agent, now)
                    self._next_autoscale = max(self._next_autoscale, now)
                with backend.dispatch_lock():
                    self._dispatch_round()
                until = min(self._next_schedule, self._next_agent)
                if caps.autoscales:
                    until = min(until, self._next_autoscale)
                backend.advance(until)
        finally:
            # A completion queued between the backend's last drain and the
            # loop's drained() break must still reach the policy.
            backend.drain_events()
            backend.stop()
            # Release whatever the policy holds (shard-cell threads,
            # worker processes, ...) — the host owns the policy lifecycle.
            policy.close()
        self.result = backend.collect_result(policy.name)
        return self.result

    # ------------------------------------------------------------------
    # Service hooks (the HTTP front-end in repro.service rides these)
    # ------------------------------------------------------------------

    def find_job(self, name: str):
        """Job lookup by name, under the backend's dispatch lock.

        Returns a live SimJob-shaped object for an active job, a
        :class:`~repro.sim.metrics.JobRecord` for a completed one (where
        the backend keeps records), or ``None``.  Safe to call from any
        thread while the host is dispatching.
        """
        with self.backend.dispatch_lock():
            return self.backend.find_job(name)

    def cancel_job(self, name: str) -> bool:
        """Cancel a job by name, under the backend's dispatch lock.

        Routes to :meth:`~repro.host.backend.ClusterBackend.cancel`: an
        active job is completed immediately and its ``completed``
        lifecycle event reaches the policy through the normal event path.
        Returns False for unknown or already-completed jobs.
        """
        with self.backend.dispatch_lock():
            return self.backend.cancel(name)

    # ------------------------------------------------------------------
    # Service lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Run the dispatch loop on a background thread."""
        if self._thread is not None:
            raise RuntimeError("host already started")
        self._thread = threading.Thread(
            target=self.run, name="policy-host", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: Optional[float] = None) -> None:
        """Halt dispatch as soon as the current round completes."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)

    def drain(self, timeout: Optional[float] = None) -> Optional[SimResult]:
        """Finish the remaining workload, then stop.

        Blocks until the loop exits (backend drained) or ``timeout``
        elapses; returns the final result when the loop has exited.
        """
        self._drain.set()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                return None
        return self.result

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def started(self) -> bool:
        """Whether :meth:`start` launched the dispatch thread."""
        return self._thread is not None

    @property
    def draining(self) -> bool:
        """Whether :meth:`drain` was requested (read by live backends)."""
        return self._drain.is_set()

    @property
    def stopping(self) -> bool:
        """Whether :meth:`stop` was requested.

        Backends check this inside :meth:`~repro.host.backend.
        ClusterBackend.advance` so a stop interrupts long waits instead of
        blocking until the next dispatch timer.
        """
        return self._stop.is_set()
