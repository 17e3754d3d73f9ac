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
policy object schedules live submissions on that engine, paced against
the (optionally scaled) wall clock.

A live host contains policy faults: an exception out of ``decide_resize``,
``schedule`` or the application of their decisions is logged under
``repro.host``, recorded on the round, and the loop carries on with the
allocations it had.  After ``_CIRCUIT_THRESHOLD`` consecutive failures the
circuit opens: the host keeps ticking and batch-tuning but calls the
policy no more until it is restarted.  A finite replay (the simulator)
raises instead, so a reproduction run never papers over a bug.
"""

from __future__ import annotations

import bisect
import itertools
import logging
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Deque, Iterator, List, Optional, Tuple

from ..core.throughput import load_fit_kernel
from ..policy.base import Policy
from ..policy.dispatch import apply_decision, build_cluster_state, tune_batch_sizes
from ..sim.metrics import SimResult
from .backend import ClusterBackend

__all__ = ["LATENCY_BUCKETS", "RoundMetrics", "HostMetrics", "PolicyHost"]

logger = logging.getLogger("repro.host")

#: Consecutive contained policy failures (``decide_resize``, ``schedule``
#: or applying their decision) after which a live host opens its circuit
#: and stops calling the policy.  A success in between resets the count.
_CIRCUIT_THRESHOLD = 5

#: Upper bounds (seconds) of the dispatch latency histogram's buckets:
#: sub-millisecond cheap rounds up to multi-second GA rounds on big clusters.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


@dataclass(frozen=True)
class RoundMetrics:
    """Structured accounting for one dispatch round.

    A *round* is one wake-up of the host loop at which at least one timer
    (scheduling, agent, or autoscale) was due.  ``latency_s`` is real
    wall-clock (``time.perf_counter``) spent inside policy dispatch —
    snapshot builds, the policy calls, and decision application —
    regardless of the backend's time compression.  ``error`` names what
    raised in a live host's round (``"schedule: RuntimeError: ..."``, one
    entry per failed event, ``"; "``-joined), else ``None``.
    """

    time: float  # host time of the round
    latency_s: float  # wall-clock dispatch latency
    num_jobs: int  # active jobs at dispatch
    scheduled: bool  # the scheduling event fired
    decisions_applied: int  # allocations in the applied decision
    restarts_triggered: int  # job restarts caused by this round
    resized: bool  # the cluster was resized this round
    utility: float  # policy.last_utility after dispatch
    error: Optional[str] = None  # contained policy failure, live host only


class HostMetrics:
    """Aggregate view plus recent history of a host's dispatch rounds.

    A live host dispatches forever, so :attr:`rounds` keeps only the most
    recent ``history_limit`` :class:`RoundMetrics` (a bounded deque);
    :meth:`summary` aggregates over the *whole* run via running counters,
    so the totals stay exact no matter how much history was dropped, and
    so does :meth:`latency_histogram`.  ``circuit_open`` is set by the host
    once it has stopped calling the policy; ``last_round_time`` is the host
    time of the last recorded round (``None`` before the first).
    """

    def __init__(self, history_limit: int = 4096):
        self.rounds: Deque[RoundMetrics] = deque(maxlen=history_limit)
        self.circuit_open = False
        self.last_round_time: Optional[float] = None
        self._last_error_round = 0  # 1-based index of the last failed round
        self._rounds = 0
        self._scheduling_rounds = 0
        self._decisions_applied = 0
        self._restarts_triggered = 0
        self._resizes = 0
        self._policy_errors = 0
        self._latency_sum = 0.0
        self._latency_max = 0.0
        # Rounds per latency bucket: one per LATENCY_BUCKETS bound, then
        # the rounds slower than the last bound.
        self._latency_buckets = [0] * (len(LATENCY_BUCKETS) + 1)

    def record(self, round_: RoundMetrics) -> None:
        self.rounds.append(round_)
        self._rounds += 1
        self.last_round_time = round_.time
        self._restarts_triggered += round_.restarts_triggered
        # Latency covers every dispatch round — autoscale-only rounds run
        # the expensive resize probes, so excluding them would hide the
        # slowest dispatches.
        self._latency_sum += round_.latency_s
        self._latency_max = max(self._latency_max, round_.latency_s)
        self._latency_buckets[
            bisect.bisect_left(LATENCY_BUCKETS, round_.latency_s)
        ] += 1
        if round_.resized:
            self._resizes += 1
        if round_.error is not None:
            self._policy_errors += 1
            self._last_error_round = self._rounds
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
            "policy_errors": self._policy_errors,
            "circuit_open": self.circuit_open,
            "mean_latency_s": (
                self._latency_sum / self._rounds if self._rounds else 0.0
            ),
            "max_latency_s": self._latency_max,
        }

    def error_within(self, rounds: int) -> bool:
        """Whether any of the last ``rounds`` recorded rounds failed."""
        last = self._last_error_round
        return last > 0 and self._rounds - last < rounds

    def latency_histogram(self) -> Tuple[List[int], float]:
        """Cumulative round counts at each :data:`LATENCY_BUCKETS` bound and
        then ``+Inf`` (every round), and the sum of the rounds' latencies."""
        return list(itertools.accumulate(self._latency_buckets)), self._latency_sum


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
    them.  The scheduling and agent cadences are the backend's
    ``config.scheduling_interval`` and ``config.agent_interval``.
    """

    def __init__(self, policy: Policy, backend: ClusterBackend):
        self.policy = policy
        self.backend = backend
        self.metrics = HostMetrics()
        self.result: Optional[SimResult] = None
        self._stop = threading.Event()
        self._drain = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._next_schedule = 0.0
        self._next_agent = 0.0
        self._next_autoscale = 0.0
        self._failure_streak = 0

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
        cfg = backend.config
        caps = policy.capabilities
        t0 = time.perf_counter()
        scheduled = False
        applied = 0
        backend.drain_events()
        # Read the round's clock under the dispatch lock: no tick can move
        # it between this read and the round's decisions.
        now = backend.now()
        # One fetch serves the whole round: the host holds the backend's
        # dispatch lock, so the active set cannot change mid-round.
        jobs = backend.jobs()
        num_jobs = len(jobs)
        nodes_before = backend.cluster().num_nodes
        restarts_before = sum(j.num_restarts for j in jobs)

        errors: List[str] = []
        # An open circuit skips the policy; its timers still advance.
        autoscale_fired = False
        if caps.autoscales and now >= self._next_autoscale:
            autoscale_fired = True
            if not self.metrics.circuit_open:
                with self._contained("decide_resize", now, errors):
                    state = build_cluster_state(backend.cluster(), jobs, caps)
                    request = policy.decide_resize(now, state)
                    if request is not None:
                        backend.resize(int(request.num_nodes), request.grow_node_spec)
            # Re-read the cadence after the decision: a policy may adapt
            # its own interval inside decide_resize().
            self._next_autoscale = now + policy.capabilities.autoscale_interval

        tuned_this_round = False
        schedule_due = now >= self._next_schedule
        if schedule_due:
            if not self.metrics.circuit_open:
                scheduled = True
                with self._contained("schedule", now, errors):
                    state = build_cluster_state(backend.cluster(), jobs, caps)
                    decision = policy.schedule(now, state)
                    apply_decision(
                        decision, jobs, apply_allocations=backend.apply_allocations
                    )
                    applied = len(decision.allocations)
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

        nodes_after = backend.cluster().num_nodes
        resized = nodes_after != nodes_before
        if resized:
            logger.info(
                "cluster resized from %d to %d nodes at host time %.1f s",
                nodes_before,
                nodes_after,
                now,
            )
        if schedule_due or resized or agent_fired or autoscale_fired:
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
                    error="; ".join(errors) or None,
                )
            )

    @contextmanager
    def _contained(self, event: str, now: float, errors: List[str]) -> Iterator[None]:
        """Contain an exception out of one dispatch event in a live host.

        The traceback is logged under ``repro.host`` with the round's host
        time and the failure appended to ``errors``; the caller advances
        its timers as usual, so a failing policy is retried on its next
        cadence instead of in a hot loop.  The policy's decision is not
        applied, or — if application itself raised — applied only up to
        the failure.  The ``_CIRCUIT_THRESHOLD``-th failure in a row opens
        the circuit (logged once).  A finite backend re-raises: the
        simulator stops on a policy bug.
        """
        try:
            yield
        except Exception as exc:
            if self.backend.finite:
                raise
            logger.exception(
                "%s raised at host time %.1f s; dispatch goes on at the next timer",
                event,
                now,
            )
            errors.append(f"{event}: {type(exc).__name__}: {exc}")
            self._failure_streak += 1
            if self._failure_streak == _CIRCUIT_THRESHOLD:
                self.metrics.circuit_open = True
                logger.error(
                    "circuit open at host time %.1f s after %d consecutive "
                    "policy failures; the host keeps ticking without calling "
                    "the policy until it is restarted",
                    now,
                    _CIRCUIT_THRESHOLD,
                )
        else:
            self._failure_streak = 0

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
            backend.drain_events()
            backend.stop()
            # Release whatever the policy holds (worker processes, cached
            # cells) — the host owns the policy lifecycle.
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
        active job is completed immediately and is absent from the next
        round's snapshot.  Returns False for unknown or already-completed
        jobs.
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
        logger.info(
            "host starting: policy %s on %s",
            self.policy.name,
            type(self.backend).__name__,
        )
        if self.policy.capabilities.needs_agent:
            # Import the theta fit's kernel (all of scipy.optimize, ~0.6 s)
            # here rather than in the loop's first fit, under the dispatch
            # lock.
            load_fit_kernel()
        self._thread = threading.Thread(
            target=self.run, name="policy-host", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: Optional[float] = None) -> None:
        """Halt dispatch as soon as the current round completes."""
        logger.info("host stopping at host time %.1f s", self.backend.now())
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)

    def drain(self, timeout: Optional[float] = None) -> Optional[SimResult]:
        """Finish the remaining workload, then stop.

        Blocks until the loop exits (backend drained) or ``timeout``
        elapses; returns the final result when the loop has exited.
        """
        logger.info("host draining at host time %.1f s", self.backend.now())
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
