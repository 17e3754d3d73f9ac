"""Tests for the discrete-time cluster simulator."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.policy import Policy, ScheduleDecision
from repro.sim import SimConfig, Simulator
from repro.sim.job import SimJob
from repro.workload import MODEL_ZOO, JobSpec


class FixedScheduler(Policy):
    """Gives every job its requested GPUs, first nodes first (for testing)."""

    name = "fixed"

    def schedule(self, now, state):
        cluster = state.cluster
        allocations = {}
        free = cluster.capacities().copy()
        for job in state.jobs:
            want = min(job.fixed_num_gpus, int(free.sum()))
            alloc = np.zeros(cluster.num_nodes, dtype=np.int64)
            for node in range(cluster.num_nodes):
                take = min(want, int(free[node]))
                alloc[node] = take
                free[node] -= take
                want -= take
                if want == 0:
                    break
            allocations[job.name] = alloc
        return ScheduleDecision(allocations=allocations)


def neumf_spec(name="j0", submit=0.0, gpus=2, bs=512) -> JobSpec:
    return JobSpec(
        name=name,
        model=MODEL_ZOO["neumf-movielens"],
        submission_time=submit,
        fixed_num_gpus=gpus,
        fixed_batch_size=bs,
    )


@pytest.fixture
def cluster() -> ClusterSpec:
    return ClusterSpec.homogeneous(2, 4)


class TestBasicRuns:
    def test_single_job_completes(self, cluster):
        sim = Simulator(
            cluster,
            FixedScheduler(),
            [neumf_spec()],
            SimConfig(seed=0, max_hours=10),
        )
        result = sim.run()
        assert result.num_unfinished == 0
        rec = result.records[0]
        assert rec.finish_time is not None
        assert rec.finish_time > rec.submission_time

    def test_completion_time_matches_analytic(self, cluster):
        # One job, fixed 2 GPUs, fixed batch: completion ~ work / goodput
        # (plus one 30 s cold start).
        spec = neumf_spec(gpus=2, bs=512)
        sim = Simulator(
            cluster, FixedScheduler(), [spec], SimConfig(seed=0, max_hours=10)
        )
        result = sim.run()
        model = spec.model
        tput = float(model.throughput_true.throughput(1, 2, 512))
        # Integrate efficiency over progress: approximate with the mean of
        # true efficiency at a few progress points.
        probe = SimJob(spec, 2)
        probe.batch_size = 512.0
        effs = []
        for p in np.linspace(0.01, 0.99, 99):
            probe.progress = p * probe.target
            effs.append(probe.efficiency_true())
        expected = model.target_samples / (tput * np.mean(effs)) + 30.0
        assert result.records[0].jct == pytest.approx(expected, rel=0.05)

    def test_respects_submission_times(self, cluster):
        specs = [neumf_spec("a", 0.0), neumf_spec("b", 3600.0)]
        sim = Simulator(
            cluster, FixedScheduler(), specs, SimConfig(seed=0, max_hours=10)
        )
        result = sim.run()
        by_name = {r.name: r for r in result.records}
        assert by_name["b"].start_time >= 3600.0

    def test_fast_forward_through_idle_gap(self, cluster):
        # A big submission gap should not blow up the tick count.
        specs = [neumf_spec("a", 0.0), neumf_spec("b", 50 * 3600.0)]
        sim = Simulator(
            cluster, FixedScheduler(), specs, SimConfig(seed=0, max_hours=100)
        )
        result = sim.run()
        assert result.num_unfinished == 0
        # Timeline samples should be far fewer than 100h / 30s.
        assert len(result.timeline) < 3000

    def test_max_hours_cap(self, cluster):
        spec = JobSpec(
            name="huge",
            model=MODEL_ZOO["resnet50-imagenet"],
            submission_time=0.0,
            fixed_num_gpus=1,
            fixed_batch_size=256,
        )
        sim = Simulator(
            cluster, FixedScheduler(), [spec], SimConfig(seed=0, max_hours=1)
        )
        result = sim.run()
        assert result.num_unfinished == 1
        assert result.end_time <= 1.05 * 3600

    def test_gputime_accounting(self, cluster):
        spec = neumf_spec(gpus=2)
        sim = Simulator(
            cluster, FixedScheduler(), [spec], SimConfig(seed=0, max_hours=10)
        )
        result = sim.run()
        rec = result.records[0]
        # 2 GPUs held for roughly the whole run.
        active = rec.finish_time - rec.start_time
        assert rec.gputime == pytest.approx(2 * active, rel=0.1)

    def test_node_seconds_accumulate(self, cluster):
        sim = Simulator(
            cluster, FixedScheduler(), [neumf_spec()], SimConfig(seed=0, max_hours=10)
        )
        result = sim.run()
        assert result.node_hours() == pytest.approx(
            2 * result.end_time / 3600.0, rel=0.05
        )


class TestInterference:
    def _two_distributed_jobs(self, slowdown):
        cluster = ClusterSpec.homogeneous(2, 4)

        class SharingScheduler(FixedScheduler):
            """Forces both jobs to span both nodes (interference!)."""

            def schedule(self, now, state):
                return ScheduleDecision(
                    allocations={
                        job.name: np.array([1, 1], dtype=np.int64)
                        for job in state.jobs
                    }
                )

        specs = [neumf_spec("a", gpus=2), neumf_spec("b", gpus=2)]
        sim = Simulator(
            cluster,
            SharingScheduler(),
            specs,
            SimConfig(seed=0, max_hours=20, interference_slowdown=slowdown),
        )
        return sim.run()

    def test_interference_slows_jobs(self):
        clean = self._two_distributed_jobs(0.0)
        slowed = self._two_distributed_jobs(0.5)
        assert slowed.avg_jct() > 1.5 * clean.avg_jct()

    def test_single_distributed_job_unaffected(self):
        cluster = ClusterSpec.homogeneous(2, 4)

        class SpanScheduler(FixedScheduler):
            def schedule(self, now, state):
                return ScheduleDecision(
                    allocations={
                        job.name: np.array([1, 1], dtype=np.int64)
                        for job in state.jobs
                    }
                )

        def run(slowdown):
            sim = Simulator(
                cluster,
                SpanScheduler(),
                [neumf_spec("a", gpus=2)],
                SimConfig(seed=0, max_hours=20, interference_slowdown=slowdown),
            )
            return sim.run()

        assert run(0.5).avg_jct() == pytest.approx(run(0.0).avg_jct(), rel=0.01)


class TestValidation:
    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SimConfig(tick_seconds=0)
        with pytest.raises(ValueError):
            SimConfig(interference_slowdown=1.0)
        with pytest.raises(ValueError):
            SimConfig(scheduling_interval=10.0, tick_seconds=30.0)

    def test_rejects_non_policy(self, cluster):
        class DuckTyped:
            name = "duck"

            def schedule(self, now, jobs, cluster):
                return {}

        with pytest.raises(TypeError, match=r"repro\.policy\.create"):
            Simulator(cluster, DuckTyped(), [neumf_spec()], SimConfig())
