"""Tests for cluster resizing inside the simulator (auto-scaling mechanics)."""

import numpy as np

from repro.cluster import ClusterSpec
from repro.policy import (
    ClusterResizeRequest,
    Policy,
    PolicyCapabilities,
    ScheduleDecision,
)
from repro.sim import SimConfig, Simulator
from repro.workload import MODEL_ZOO, JobSpec


class PinnedScheduler(Policy):
    """Allocates every free GPU of node 0 (plus node 1 when present)."""

    name = "pinned"

    def schedule(self, now, state):
        cluster = state.cluster
        allocations = {}
        for job in state.jobs:
            alloc = np.zeros(cluster.num_nodes, dtype=np.int64)
            alloc[0] = cluster.nodes[0].num_gpus
            if cluster.num_nodes > 1:
                alloc[1] = cluster.nodes[1].num_gpus
            allocations[job.name] = alloc
        return ScheduleDecision(allocations=allocations)


class StepAutoscaler(PinnedScheduler):
    """Pinned allocations plus scripted node counts at scripted times."""

    def __init__(self, schedule, interval=60.0):
        self.steps = sorted(schedule)
        self.capabilities = PolicyCapabilities(
            autoscales=True, autoscale_interval=interval
        )
        self.decide_times = []

    def decide_resize(self, now, state):
        self.decide_times.append(now)
        nodes = self.steps[0][1]
        for at, count in self.steps:
            if now >= at:
                nodes = count
        return ClusterResizeRequest(num_nodes=nodes)


def spec(name="job"):
    return JobSpec(
        name=name,
        model=MODEL_ZOO["neumf-movielens"],
        submission_time=0.0,
        fixed_num_gpus=8,
        fixed_batch_size=512,
    )


class TestClusterResize:
    def test_grow_adds_capacity(self):
        cluster = ClusterSpec.homogeneous(1, 4)
        autoscaler = StepAutoscaler([(0.0, 1), (300.0, 3)])
        sim = Simulator(cluster, autoscaler, [spec()], SimConfig(seed=0, max_hours=5))
        result = sim.run()
        assert result.num_unfinished == 0
        node_counts = {t.num_nodes for t in result.timeline}
        assert 1 in node_counts
        assert 3 in node_counts

    def test_shrink_restarts_displaced_job(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        autoscaler = StepAutoscaler([(0.0, 2), (240.0, 1)])
        sim = Simulator(cluster, autoscaler, [spec()], SimConfig(seed=0, max_hours=5))
        result = sim.run()
        # The job spanned nodes 0-1; dropping node 1 forces a restart.
        assert result.records[0].num_restarts >= 1
        assert result.num_unfinished == 0

    def test_node_seconds_track_resizes(self):
        cluster = ClusterSpec.homogeneous(1, 4)
        autoscaler = StepAutoscaler([(0.0, 1), (300.0, 4)])
        sim = Simulator(cluster, autoscaler, [spec()], SimConfig(seed=0, max_hours=5))
        result = sim.run()
        # Cost must be strictly between the all-1-node and all-4-node runs.
        duration_hours = result.end_time / 3600.0
        assert duration_hours < result.node_hours() < 4 * duration_hours

    def test_allocation_vectors_resized(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        autoscaler = StepAutoscaler([(0.0, 2), (240.0, 4)])
        sim = Simulator(cluster, autoscaler, [spec()], SimConfig(seed=0, max_hours=5))
        sim.run()
        assert sim.jobs[0].allocation.shape == (4,)


class TestPostIdleAutoscale:
    """Regression: the idle fast-forward must leave every periodic timer
    (including the autoscaler's, which it previously skipped) aligned with
    the post-idle clock."""

    def _run_with_gap(self, gap_hours):
        """One early job, then a long idle gap, then a second job."""
        early = spec("early")
        late = JobSpec(
            name="late",
            model=MODEL_ZOO["neumf-movielens"],
            submission_time=gap_hours * 3600.0,
            fixed_num_gpus=8,
            fixed_batch_size=512,
        )
        autoscaler = StepAutoscaler([(0.0, 2)], interval=600.0)
        sim = Simulator(
            ClusterSpec.homogeneous(2, 4),
            autoscaler,
            [early, late],
            SimConfig(seed=0, max_hours=3 * gap_hours),
        )
        result = sim.run()
        return sim, autoscaler, result

    def test_autoscaler_fires_promptly_after_idle(self):
        gap_hours = 4.0
        sim, autoscaler, result = self._run_with_gap(gap_hours)
        assert result.num_unfinished == 0
        gap_start = max(
            t for t in autoscaler.decide_times if t < gap_hours * 3600.0
        )
        post_idle = [
            t for t in autoscaler.decide_times if t >= gap_hours * 3600.0
        ]
        # The idle stretch produced no decide() calls...
        assert gap_start < 0.5 * gap_hours * 3600.0
        # ...and the first post-idle decide happens at the tick the late job
        # is admitted (within one tick of its submission time).
        assert post_idle
        assert post_idle[0] - gap_hours * 3600.0 <= sim.config.tick_seconds

    def test_timer_aligned_with_clock_after_idle(self):
        gap_hours = 4.0
        sim, autoscaler, _ = self._run_with_gap(gap_hours)
        # After the run, the autoscaler timer must never trail the clock by
        # more than its interval (it would with the pre-fix stale timer
        # semantics if the fast-forward left it in the past).
        interval = autoscaler.capabilities.autoscale_interval
        assert sim._next_autoscale >= sim.now - interval
        # Post-idle decides respect the configured cadence.
        post_idle = [
            t for t in autoscaler.decide_times if t >= gap_hours * 3600.0
        ]
        for a, b in zip(post_idle, post_idle[1:]):
            assert b - a >= interval


class TestPolicyOwnedCadence:
    def test_lengthened_interval_is_honoured(self):
        """A policy that lengthens its own ``autoscale_interval`` inside
        ``decide_resize`` is honoured from that decision on: the loop
        re-reads ``capabilities`` after every resize event."""

        class SlowingAutoscaler(PinnedScheduler):
            capabilities = PolicyCapabilities(
                autoscales=True, autoscale_interval=60.0
            )

            def __init__(self):
                self.decide_times = []

            def decide_resize(self, now, state):
                self.decide_times.append(now)
                # Back off after the first decision.
                self.capabilities = PolicyCapabilities(
                    autoscales=True, autoscale_interval=300.0
                )
                return None

        policy = SlowingAutoscaler()
        cluster = ClusterSpec.homogeneous(2, 4)
        Simulator(cluster, policy, [spec()], SimConfig(seed=0, max_hours=0.5)).run()
        gaps = np.diff(policy.decide_times)
        assert len(gaps) >= 2
        assert (gaps >= 300.0).all()
