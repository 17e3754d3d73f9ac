"""ReplayBackend: a recorded trace replayed on compressed wall-clock time.

Drives the same :class:`~repro.sim.engine.ClusterEngine` mechanism the
discrete-time simulator runs, but paced by the
:class:`~repro.host.service.PolicyHost` loop instead of a simulated-time
loop: each engine tick of ``config.tick_seconds`` virtual seconds takes
``tick_seconds / compression`` wall seconds (``compression=inf``, the
default, replays as fast as the policy can decide — the deterministic-test
mode the ``host-smoke`` CI job runs).

Because the engine, the dispatch helpers, and the cadence configuration
are all shared with the simulator, a replay reproduces the simulator's
decision stream **bit-for-bit** on the same trace and seed: the same
snapshot-build schedule, agent reports only for ``needs_agent`` policies,
the same observation-noise RNG stream, the same restart accounting.
``tests/test_host.py`` pins this digest-for-digest.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from ..cluster.spec import ClusterSpec, NodeSpec
from ..sim.engine import ClusterEngine
from ..sim.metrics import JobRecord, SimResult, TimelineSample
from ..sim.simconfig import SimConfig
from ..workload.trace import JobSpec
from .service import HostConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .service import PolicyHost

__all__ = ["ReplayBackend"]


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
        self.engine = ClusterEngine(cluster, trace, config)
        self.config = config
        self.compression = float(compression)
        self._timeline: List[TimelineSample] = []
        self._node_seconds = 0.0
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
        self._host = host
        if not host.policy.capabilities.adapts_batch_size:
            for job in self.engine.jobs:
                job.batch_size = float(job.spec.fixed_batch_size)
        self.engine.event_sink = host.dispatch_event
        self.engine._admit_submitted()

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
        """Any trace job by name (live SimJob state, admitted or not)."""
        for job in self.engine.jobs:
            if job.name == name:
                return job
        return None

    def cancel(self, name: str) -> bool:
        """Cancel an active job (service ``DELETE`` path).

        Finishes the job at the current engine time, zeroes its
        allocation, and fires the ``completed`` lifecycle event through
        the engine's event sink — the same path a natural completion
        takes.  Not-yet-admitted trace jobs cannot be cancelled (the
        replay trace is the recorded ground truth); note that any cancel
        perturbs the decision stream, so replays being digest-compared to
        a simulator run must not cancel.
        """
        eng = self.engine
        for job in eng._active:
            if job.name == name:
                job.finish_time = eng.now
                job.allocation = np.zeros_like(job.allocation)
                eng._active.remove(job)
                eng._alloc_version += 1
                if eng.event_sink is not None:
                    eng.event_sink("completed", eng.now, job)
                return True
        return False

    # -- time -----------------------------------------------------------

    def idle_fast_forward(self) -> float:
        eng = self.engine
        if eng._active or not eng.pending_submissions():
            return 0.0
        idle = eng.idle_skip()
        if idle > 0:
            self._node_seconds += eng.cluster.num_nodes * idle
            eng._admit_submitted()
        return idle

    def advance(self, until: float) -> None:
        """Step engine ticks until host time ``until`` (or an idle gap).

        Mirrors the simulator's tick body exactly: observe/advance (with
        profiling gated on the policy's live ``needs_agent``), completion
        events, timeline sample, clock, admission.  Returns early at an
        idle gap of a whole tick or more so the host can fast-forward its
        timers, exactly like the simulator's idle skip.
        """
        eng = self.engine
        cfg = self.config
        host = self._host
        deadline = self.deadline()
        # The host loop checked the deadline before this round (with the
        # pre-fast-forward clock, exactly like the simulator's loop-top
        # check), so the round's first tick is exempt here — a tick
        # reached by skipping an idle gap past the deadline still runs
        # once, matching the simulator bit-for-bit.
        first_tick = True
        while eng.now < until:
            if host.stopping:
                break
            if not first_tick and eng.now >= deadline:
                break
            if not eng._active:
                if not eng.pending_submissions():
                    break  # drained
                if eng.idle_gap_ticks() >= 1:
                    break  # host fast-forwards and re-aligns its timers
            self._timeline.append(
                eng.run_one_tick(
                    host.policy.capabilities.needs_agent,
                    float(host.policy.last_utility),
                )
            )
            self._node_seconds += eng.cluster.num_nodes * cfg.tick_seconds
            first_tick = False
            if math.isfinite(self.compression):
                # Paced replay sleeps in short slices so a host stop()
                # interrupts within ~100 ms instead of a full tick.
                remaining = cfg.tick_seconds / self.compression
                while remaining > 0 and not host.stopping:
                    slice_s = min(remaining, 0.1)
                    time.sleep(slice_s)
                    remaining -= slice_s

    def drain_events(self) -> None:
        """No-op: replay events are delivered synchronously at the exact
        engine point they occur (the bit-for-bit schedule)."""

    # -- mechanism ------------------------------------------------------

    def dispatch_lock(self):
        """The replay engine only runs inside the host loop: no lock."""
        return nullcontext()

    def apply_allocations(self, allocations, jobs: Sequence) -> None:
        self.engine._apply_allocations(allocations, jobs)

    def resize(self, num_nodes: int, grow_node_spec: Optional[NodeSpec]) -> None:
        self.engine._resize_cluster(num_nodes, grow_with=grow_node_spec)

    # -- results --------------------------------------------------------

    def collect_result(self, scheduler_name: str) -> SimResult:
        eng = self.engine
        result = SimResult(
            timeline=self._timeline,
            node_seconds=self._node_seconds,
            end_time=eng.now,
            scheduler_name=scheduler_name,
        )
        for job in eng.jobs:
            result.records.append(JobRecord.from_job(job))
        return result
