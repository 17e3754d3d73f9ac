"""Tests for the wall-clock scheduling service (repro.host).

The load-bearing guarantee: on a recorded trace, PolicyHost +
ReplayBackend reproduces the discrete-time simulator's decision stream
bit-for-bit — same snapshot-build schedule, agent reports only for
``needs_agent`` policies, same RNG streams — for every registered policy,
including autoscaling, idle gaps, heterogeneous clusters, and
interference.  The live backend is the same engine on a paced clock, so
over a preloaded trace without idle gaps it agrees with the simulator too.
Plus service-lifecycle and live-backend behavior.
"""

import dataclasses
import logging
import threading
import time

import numpy as np
import pytest

import repro.host.service
import repro.policy
from repro.cluster import ClusterSpec
from repro.core import AutoscaleConfig, GAConfig, PolluxSchedConfig
from repro.host import PolicyHost, ReplayBackend, ThreadedBackend, ThreadedConfig
from repro.sim import JobRecord, SimConfig, Simulator, decision_digest
from repro.workload import MODEL_ZOO, JobSpec, TraceConfig, generate_trace

QUICK_GA = PolluxSchedConfig(ga=GAConfig(population_size=8, generations=4))


def quick_policy(name: str, cluster: ClusterSpec, **kwargs):
    all_kwargs = {"cluster": cluster, "seed": 0}
    if repro.policy.canonical(name) == "pollux":
        all_kwargs["config"] = QUICK_GA
    all_kwargs.update(kwargs)
    return repro.policy.create(name, **all_kwargs)


def small_trace(cluster: ClusterSpec, count: int = 6, seed: int = 1):
    return generate_trace(
        TraceConfig(
            num_jobs=count,
            duration_hours=0.5,
            seed=seed,
            max_gpus=cluster.total_gpus,
            gpus_per_node=cluster.max_gpus_per_node,
        )
    )


def digests_for(cluster, trace, config, make_policy):
    """(simulator digest, replay-host digest) with fresh policies each."""
    sim_result = Simulator(cluster, make_policy(), trace, config).run()
    host_result = PolicyHost(make_policy(), ReplayBackend(cluster, trace, config)).run()
    return decision_digest(sim_result), decision_digest(host_result)


# ----------------------------------------------------------------------
# Replay agreement: the host IS the simulator on a recorded trace
# ----------------------------------------------------------------------


class TestReplayAgreement:
    @pytest.mark.parametrize(
        "name", sorted(set(repro.policy.available()) - {"orelastic"})
    )
    def test_every_policy_agrees(self, name):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = small_trace(cluster)
        sim_digest, host_digest = digests_for(
            cluster,
            trace,
            SimConfig(seed=1001, max_hours=30.0),
            lambda: quick_policy(name, cluster),
        )
        assert sim_digest == host_digest

    def test_orelastic_cloud_agrees(self):
        cluster = ClusterSpec.homogeneous(1, 4)
        trace = [
            JobSpec(
                name="cloud-job",
                model=MODEL_ZOO["resnet18-cifar10"],
                submission_time=0.0,
                fixed_num_gpus=4,
                fixed_batch_size=512,
            )
        ]
        sim_digest, host_digest = digests_for(
            cluster,
            trace,
            SimConfig(seed=5, max_hours=30.0),
            lambda: quick_policy(
                "orelastic",
                cluster,
                autoscale=True,
                min_nodes=1,
                max_nodes=8,
                gpus_per_node=4,
            ),
        )
        assert sim_digest == host_digest

    def test_pollux_autoscaling_agrees(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = small_trace(cluster)
        sim_digest, host_digest = digests_for(
            cluster,
            trace,
            SimConfig(seed=1001, max_hours=30.0),
            lambda: quick_policy(
                "pollux",
                cluster,
                autoscale=AutoscaleConfig(min_nodes=1, max_nodes=4),
                autoscale_interval=600.0,
            ),
        )
        assert sim_digest == host_digest

    def test_idle_gap_agrees(self):
        # Idle fast-forward must re-align the host timers exactly like the
        # simulator's (both a leading gap and a mid-trace gap).
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = [
            JobSpec("early", MODEL_ZOO["resnet18-cifar10"], 0.0, 2, 256),
            JobSpec("late", MODEL_ZOO["neumf-movielens"], 4 * 3600.0, 2, 256),
        ]
        sim_digest, host_digest = digests_for(
            cluster,
            trace,
            SimConfig(seed=7, max_hours=30.0),
            lambda: quick_policy("pollux", cluster),
        )
        assert sim_digest == host_digest

    def test_leading_idle_gap_agrees(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = [JobSpec("only", MODEL_ZOO["resnet18-cifar10"], 7245.0, 2, 256)]
        sim_digest, host_digest = digests_for(
            cluster,
            trace,
            SimConfig(seed=7, max_hours=30.0),
            lambda: quick_policy("pollux", cluster),
        )
        assert sim_digest == host_digest

    def test_heterogeneous_with_interference_agrees(self):
        cluster = ClusterSpec.heterogeneous((("t4", 2, 4), ("v100", 2, 4)))
        trace = small_trace(cluster, count=8, seed=3)
        sim_digest, host_digest = digests_for(
            cluster,
            trace,
            SimConfig(seed=11, max_hours=30.0, interference_slowdown=0.5),
            lambda: quick_policy("pollux", cluster),
        )
        assert sim_digest == host_digest

    def test_max_hours_cutoff_agrees(self):
        cluster = ClusterSpec.homogeneous(1, 2)
        trace = small_trace(cluster, count=6)
        sim_digest, host_digest = digests_for(
            cluster,
            trace,
            SimConfig(seed=1, max_hours=0.25),
            lambda: quick_policy("tiresias", cluster),
        )
        assert sim_digest == host_digest

    def test_result_accounting_matches(self):
        # Beyond the digest: node-seconds, end time, and record fields.
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = small_trace(cluster)
        config = SimConfig(seed=1001, max_hours=30.0)
        sim_result = Simulator(
            cluster, quick_policy("pollux", cluster), trace, config
        ).run()
        host_result = PolicyHost(
            quick_policy("pollux", cluster),
            ReplayBackend(cluster, trace, config),
        ).run()
        assert host_result.node_seconds == sim_result.node_seconds
        assert host_result.end_time == sim_result.end_time
        assert len(host_result.timeline) == len(sim_result.timeline)
        for sim_rec, host_rec in zip(sim_result.records, host_result.records):
            assert sim_rec == host_rec


# ----------------------------------------------------------------------
# PolicyHost service behavior
# ----------------------------------------------------------------------


class TestPolicyHost:
    def test_round_metrics_recorded(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = small_trace(cluster, count=3)
        host = PolicyHost(
            quick_policy("tiresias", cluster),
            ReplayBackend(cluster, trace, SimConfig(seed=1, max_hours=10.0)),
        )
        host.run()
        summary = host.metrics.summary()
        assert summary["scheduling_rounds"] > 0
        assert summary["decisions_applied"] > 0
        assert summary["max_latency_s"] >= summary["mean_latency_s"] >= 0.0
        times = [r.time for r in host.metrics.rounds]
        assert times == sorted(times)

    def test_restart_accounting_in_metrics(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = small_trace(cluster, count=6)
        host = PolicyHost(
            quick_policy("pollux", cluster),
            ReplayBackend(cluster, trace, SimConfig(seed=1, max_hours=30.0)),
        )
        result = host.run()
        metric_restarts = sum(r.restarts_triggered for r in host.metrics.rounds)
        total_restarts = sum(r.num_restarts for r in result.records)
        assert metric_restarts == total_restarts

    def test_background_start_and_result(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = small_trace(cluster, count=3)
        host = PolicyHost(
            quick_policy("tiresias", cluster),
            ReplayBackend(cluster, trace, SimConfig(seed=1, max_hours=10.0)),
        )
        host.start()
        with pytest.raises(RuntimeError, match="already started"):
            host.start()
        result = host.drain(timeout=60.0)
        assert result is not None
        assert not host.running
        assert result is host.result

    def test_stop_halts_early(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = small_trace(cluster, count=4)
        # Real-time pacing guarantees the run is still in flight at stop().
        backend = ReplayBackend(
            cluster, trace, SimConfig(seed=1, max_hours=30.0), compression=60.0
        )
        host = PolicyHost(quick_policy("tiresias", cluster), backend)
        host.start()
        time.sleep(0.2)
        host.stop(timeout=30.0)
        assert not host.running
        assert host.result is not None
        assert host.result.end_time < 30.0 * 3600.0

    def test_config_defaults_from_backend(self):
        """The host dispatches on the cadences of its backend's SimConfig."""
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = [JobSpec("j", MODEL_ZOO["neumf-movielens"], 0.0, 1, 256)]
        config = SimConfig(
            seed=1, scheduling_interval=120.0, agent_interval=60.0, max_hours=0.1
        )
        host = PolicyHost(
            quick_policy("tiresias", cluster),
            ReplayBackend(cluster, trace, config),
        )
        host.run()
        rounds = list(host.metrics.rounds)
        assert [r.time for r in rounds] == [60.0 * i for i in range(len(rounds))]
        assert [r.scheduled for r in rounds] == [
            i % 2 == 0 for i in range(len(rounds))
        ]
        assert len(rounds) >= 4

    def test_sim_config_rejects_bad_cadences(self):
        with pytest.raises(ValueError):
            SimConfig(scheduling_interval=0.0)
        with pytest.raises(ValueError):
            SimConfig(agent_interval=-1.0)

    def test_bundled_resize_counted_in_metrics(self):
        cluster = ClusterSpec.homogeneous(2, 4)

        class BundlingPolicy(repro.policy.Policy):
            name = "bundling"
            capabilities = repro.policy.PolicyCapabilities(autoscales=True)

            def schedule(self, now, state):
                return repro.policy.ScheduleDecision(
                    resize=repro.policy.ClusterResizeRequest(4)
                )

        trace = [JobSpec("j0", MODEL_ZOO["resnet18-cifar10"], 0.0, 2, 256)]
        host = PolicyHost(
            BundlingPolicy(),
            ReplayBackend(cluster, trace, SimConfig(seed=1, max_hours=0.25)),
        )
        host.run()
        assert host.metrics.summary()["resizes"] >= 1

    def test_agent_only_rounds_recorded(self):
        # With agent_interval < scheduling_interval, agent-cadence rounds
        # must appear in the metrics too (a round is any due timer).
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = small_trace(cluster, count=3)
        host = PolicyHost(
            quick_policy("pollux", cluster),
            ReplayBackend(cluster, trace, SimConfig(seed=1, max_hours=10.0)),
        )
        host.run()
        summary = host.metrics.summary()
        assert summary["rounds"] > summary["scheduling_rounds"]

    def test_stop_interrupts_paced_replay_promptly(self):
        cluster = ClusterSpec.homogeneous(1, 2)
        trace = [JobSpec("slow", MODEL_ZOO["resnet50-imagenet"], 0.0, 2, 512)]
        # compression=3: a 30 s tick sleeps ~10 s of wall clock; stop()
        # must interrupt the sleep, not wait it out.
        backend = ReplayBackend(
            cluster, trace, SimConfig(seed=1, max_hours=30.0), compression=3.0
        )
        host = PolicyHost(quick_policy("tiresias", cluster), backend)
        host.start()
        time.sleep(0.3)
        t0 = time.perf_counter()
        host.stop(timeout=30.0)
        assert time.perf_counter() - t0 < 2.0
        assert not host.running

    def test_replay_compression_paces_wall_clock(self):
        cluster = ClusterSpec.homogeneous(1, 2)
        trace = [JobSpec("j0", MODEL_ZOO["resnet18-cifar10"], 0.0, 2, 256)]
        # 10 virtual minutes at 3600x compression: >= ~0.17 s wall.
        backend = ReplayBackend(
            cluster,
            trace,
            SimConfig(seed=1, max_hours=1.0 / 6.0),
            compression=3600.0,
        )
        host = PolicyHost(quick_policy("tiresias", cluster), backend)
        t0 = time.perf_counter()
        host.run()
        assert time.perf_counter() - t0 >= 0.15

    def test_replay_rejects_bad_compression(self):
        cluster = ClusterSpec.homogeneous(1, 2)
        with pytest.raises(ValueError):
            ReplayBackend(cluster, [], SimConfig(), compression=0.0)


# ----------------------------------------------------------------------
# ThreadedBackend: the live in-process cluster
# ----------------------------------------------------------------------


def fast_threaded(cluster, **kwargs):
    defaults = dict(time_scale=2400.0, quantum_seconds=0.01)
    defaults.update(kwargs)
    return ThreadedBackend(cluster, ThreadedConfig(**defaults))


class TestThreadedBackend:
    def test_live_submission_to_completion(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        backend = fast_threaded(cluster)
        host = PolicyHost(quick_policy("pollux", cluster), backend)
        host.start()
        backend.submit(JobSpec("live-0", MODEL_ZOO["resnet18-cifar10"], 0.0, 2, 256))
        backend.submit(JobSpec("live-1", MODEL_ZOO["neumf-movielens"], 120.0, 2, 256))
        result = host.drain(timeout=120.0)
        assert result is not None
        assert len(result.records) == 2
        assert all(r.finish_time is not None for r in result.records)
        assert host.metrics.summary()["scheduling_rounds"] > 0

    def test_trace_preload_honors_submission_times(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = [
            JobSpec("t-0", MODEL_ZOO["resnet18-cifar10"], 0.0, 2, 256),
            JobSpec("t-1", MODEL_ZOO["neumf-movielens"], 300.0, 2, 256),
        ]
        backend = ThreadedBackend(
            cluster,
            ThreadedConfig(time_scale=2400.0, quantum_seconds=0.01),
            trace=trace,
        )
        submitted = []

        class Recorder(repro.policy.Policy):
            name = "recorder"
            capabilities = repro.policy.PolicyCapabilities()

            def on_job_submitted(self, now, job):
                submitted.append((job.name, now))

            def schedule(self, now, state):
                allocations = {
                    snap.name: np.array([snap.fixed_num_gpus, 0])
                    for snap in state.jobs
                }
                return repro.policy.ScheduleDecision(allocations=allocations)

        host = PolicyHost(Recorder(), backend)
        host.start()
        result = host.drain(timeout=120.0)
        assert result is not None
        names = [name for name, _ in submitted]
        assert names == ["t-0", "t-1"]
        # The late job was admitted no earlier than its recorded time.
        assert dict(submitted)["t-1"] >= 300.0

    def test_non_adaptive_policy_keeps_fixed_batch_size(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        backend = fast_threaded(cluster)
        host = PolicyHost(quick_policy("tiresias", cluster), backend)
        host.start()
        backend.submit(JobSpec("fixed", MODEL_ZOO["resnet18-cifar10"], 0.0, 2, 192))
        # Grab the live job while it runs (completed jobs are compacted to
        # records); the reference stays valid after completion.
        job = None
        for _ in range(500):
            jobs = backend.jobs()
            if jobs:
                job = jobs[0]
                break
            time.sleep(0.01)
        assert job is not None, "job never admitted"
        result = host.drain(timeout=120.0)
        assert result is not None
        assert job.batch_size == 192.0

    def test_stop_without_drain(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        backend = fast_threaded(cluster, time_scale=60.0)
        host = PolicyHost(quick_policy("tiresias", cluster), backend)
        host.start()
        backend.submit(JobSpec("slow", MODEL_ZOO["resnet50-imagenet"], 0.0, 4, 512))
        time.sleep(0.3)
        host.stop(timeout=30.0)
        assert not host.running
        result = host.result
        assert result is not None
        assert len(result.records) == 1
        assert result.records[0].finish_time is None  # abandoned in flight


def gapless_trace(cluster: ClusterSpec, count: int = 6):
    """small_trace re-timed so that every arrival finds a job active."""
    return [
        dataclasses.replace(spec, submission_time=60.0 * idx)
        for idx, spec in enumerate(small_trace(cluster, count))
    ]


class TestLiveAgreement:
    """The live backend is the simulator's engine on a paced clock: over a
    preloaded trace with no idle gap it makes the simulator's decisions."""

    @pytest.mark.parametrize(
        "name", sorted(set(repro.policy.available()) - {"orelastic"})
    )
    def test_every_policy_agrees(self, name):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = gapless_trace(cluster)
        sim_result = Simulator(
            cluster,
            quick_policy(name, cluster),
            trace,
            SimConfig(seed=1001, max_hours=30.0),
        ).run()
        # No idle gap: the simulator never fast-forwarded.
        finishes = [r.finish_time for r in sim_result.records]
        for idx, record in enumerate(sim_result.records[1:], start=1):
            assert max(finishes[:idx]) > record.submission_time
        # quantum_seconds * time_scale is the simulator's 30 s tick.
        backend = ThreadedBackend(
            cluster,
            ThreadedConfig(
                quantum_seconds=0.001, time_scale=30000.0, max_hours=30.0, seed=1001
            ),
            trace=trace,
        )
        host = PolicyHost(quick_policy(name, cluster), backend)
        host.start()
        live_result = host.drain(timeout=300.0)
        assert live_result is not None
        names = [r.name for r in live_result.records]
        assert names == [r.name for r in sim_result.records]
        assert decision_digest(live_result) == decision_digest(sim_result)


class TestLiveMechanism:
    def test_threads_do_not_grow_with_jobs(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        backend = fast_threaded(cluster)
        host = PolicyHost(quick_policy("tiresias", cluster), backend)
        host.start()
        try:
            baseline = threading.active_count()
            for idx in range(200):
                backend.submit(
                    JobSpec(f"j{idx}", MODEL_ZOO["resnet50-imagenet"], 0.0, 1, 256)
                )
            deadline = time.monotonic() + 30.0
            while len(backend.jobs()) < 200 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(backend.jobs()) == 200
            assert threading.active_count() <= baseline
        finally:
            host.stop(timeout=30.0)

    def test_tick_is_never_shorter_than_the_simulator_tick(self):
        # Every tick profiles each running job once, so a tick shorter
        # than the simulator's would profile more often per host second.
        cluster = ClusterSpec.homogeneous(1, 2)
        ticks = {
            (1.0, 0.05): 30.0,
            (600.0, 0.02): 30.0,
            (1000.0, 0.05): 50.0,
            (2400.0, 1.0): 60.0,  # capped at the scheduling interval
        }
        for (scale, quantum), tick in ticks.items():
            backend = ThreadedBackend(
                cluster, ThreadedConfig(time_scale=scale, quantum_seconds=quantum)
            )
            assert backend.config.tick_seconds == tick
            assert backend.compression == scale

    def test_rounds_fire_on_the_interval(self):
        # A 0.015 s x 2400 = 36 s tick does not divide the 120 s interval:
        # the live clock steps whole ticks and stretches the step before
        # each timer to land on it (36 + 36 + 48).
        cluster = ClusterSpec.homogeneous(2, 4)
        backend = fast_threaded(
            cluster,
            quantum_seconds=0.015,
            scheduling_interval=120.0,
            agent_interval=120.0,
        )
        host = PolicyHost(quick_policy("tiresias", cluster), backend)
        host.start()
        backend.submit(JobSpec("j0", MODEL_ZOO["resnet50-imagenet"], 0.0, 2, 256))
        try:
            deadline = time.monotonic() + 30.0
            while host.metrics.summary()["scheduling_rounds"] < 6:
                assert time.monotonic() < deadline, "too few rounds"
                time.sleep(0.01)
        finally:
            host.stop(timeout=30.0)
        times = [r.time for r in host.metrics.rounds if r.scheduled]
        assert len(times) >= 6
        assert [b - a for a, b in zip(times, times[1:])] == [120.0] * (len(times) - 1)
        steps = [sample.seconds for sample in host.result.timeline]
        assert steps[:6] == [36.0, 36.0, 48.0] * 2

    def test_time_averages_weight_unequal_steps(self):
        # 36 + 36 + 48 s steps: the timeline's time averages agree with
        # node_seconds, which every step adds its own length to.
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = [
            JobSpec("a", MODEL_ZOO["neumf-movielens"], 0.0, 2, 256),
            JobSpec("b", MODEL_ZOO["resnet18-cifar10"], 200.0, 4, 256),
        ]
        backend = ThreadedBackend(
            cluster,
            ThreadedConfig(
                time_scale=2400.0,
                quantum_seconds=0.015,
                scheduling_interval=120.0,
                agent_interval=120.0,
            ),
            trace,
        )
        host = PolicyHost(quick_policy("tiresias", cluster), backend)
        host.start()
        result = host.drain(timeout=120.0)
        assert result is not None
        timeline = result.timeline
        assert len({sample.seconds for sample in timeline}) > 1
        assert sum(s.seconds for s in timeline) * cluster.num_nodes == pytest.approx(
            result.node_seconds
        )
        gpu_seconds = sum(s.gpus_in_use * s.seconds for s in timeline)
        assert result.avg_gpu_utilization() == pytest.approx(
            gpu_seconds / (result.node_seconds * cluster.max_gpus_per_node)
        )

    def test_slow_round_gives_lost_time_up(self):
        # One 0.5 s round at 2400x is 1200 host seconds late: the host
        # clock gives them up rather than running unpaced to catch up.
        cluster = ClusterSpec.homogeneous(2, 4)
        seen = []

        class Slow(repro.policy.Policy):
            name = "slow"
            capabilities = repro.policy.PolicyCapabilities()

            def schedule(self, now, state):
                seen.append((time.monotonic(), now))
                if len(seen) == 1:
                    time.sleep(0.5)
                return repro.policy.ScheduleDecision(allocations={})

        backend = fast_threaded(cluster, quantum_seconds=0.0125)
        host = PolicyHost(Slow(), backend)
        host.start()
        backend.submit(JobSpec("j0", MODEL_ZOO["resnet50-imagenet"], 0.0, 2, 256))
        try:
            deadline = time.monotonic() + 30.0
            while len(seen) < 12:
                assert time.monotonic() < deadline, "too few rounds"
                time.sleep(0.01)
        finally:
            host.stop(timeout=30.0)
        (wall_a, host_a), (wall_b, host_b) = seen[2], seen[11]
        # Never faster than time_scale, up to one round of jitter (a step
        # caught up late plus the time from the tick to the round).
        assert host_b - host_a <= (wall_b - wall_a) * 2400.0 + 60.0

    @pytest.mark.parametrize("live", [False, True])
    def test_cancel_queued_job_is_never_seen(self, live):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = [
            JobSpec("early", MODEL_ZOO["neumf-movielens"], 0.0, 2, 256),
            JobSpec("late", MODEL_ZOO["neumf-movielens"], 600.0, 2, 256),
        ]
        if live:
            backend = ThreadedBackend(
                cluster, ThreadedConfig(time_scale=2400.0, quantum_seconds=0.01), trace
            )
        else:
            backend = ReplayBackend(cluster, trace, SimConfig(seed=1, max_hours=10.0))
        seen = []

        class Recorder(repro.policy.Policy):
            name = "recorder"
            capabilities = repro.policy.PolicyCapabilities()

            def on_job_submitted(self, now, job):
                seen.append(job.name)

            def schedule(self, now, state):
                allocations = {
                    snap.name: np.array([snap.fixed_num_gpus, 0])
                    for snap in state.jobs
                }
                return repro.policy.ScheduleDecision(allocations=allocations)

        host = PolicyHost(Recorder(), backend)
        assert host.cancel_job("late")
        assert not host.cancel_job("late")
        host.start()
        result = host.drain(timeout=120.0)
        assert result is not None
        assert seen == ["early"]
        assert [r.name for r in result.records] == ["early"]

    def test_completed_live_job_is_a_record(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        backend = fast_threaded(cluster)
        host = PolicyHost(quick_policy("tiresias", cluster), backend)
        host.start()
        backend.submit(JobSpec("short", MODEL_ZOO["neumf-movielens"], 0.0, 2, 256))
        assert host.drain(timeout=120.0) is not None
        found = host.find_job("short")
        assert isinstance(found, JobRecord)
        assert found.finish_time is not None
        assert not backend.jobs() and not backend.engine.jobs
        assert not host.cancel_job("short")


class TestLiveContainment:
    """A live host outlives a policy that raises: the round is recorded with
    its error, the allocations the policy made before stand, and dispatch
    goes on at its cadence.  (A finite replay raises instead:
    ``tests/test_simulator.py::TestPolicyFailure``.)"""

    def test_failing_schedule_is_contained(self, caplog):
        cluster = ClusterSpec.homogeneous(2, 4)

        class Flaky(repro.policy.Policy):
            """Puts the job on node 0, raises on its next two calls, then
            moves the job to node 1; records what each call was shown."""

            name = "flaky"

            def __init__(self):
                self.shown = []

            def schedule(self, now, state):
                if not state.jobs:
                    return repro.policy.ScheduleDecision()
                self.shown.append(np.array(state.jobs[0].allocation))
                if len(self.shown) in (2, 3):
                    raise RuntimeError("policy bug")
                alloc = np.zeros(cluster.num_nodes, dtype=np.int64)
                alloc[0 if len(self.shown) == 1 else 1] = 4
                return repro.policy.ScheduleDecision({state.jobs[0].name: alloc})

        policy = Flaky()
        backend = fast_threaded(
            cluster, quantum_seconds=0.015, scheduling_interval=120.0
        )
        host = PolicyHost(policy, backend)
        caplog.set_level(logging.INFO, logger="repro.host")
        host.start()
        backend.submit(JobSpec("j0", MODEL_ZOO["resnet50-imagenet"], 0.0, 4, 256))
        try:
            deadline = time.monotonic() + 30.0
            while len(policy.shown) < 5:
                assert time.monotonic() < deadline, "dispatch stopped"
                time.sleep(0.01)
            assert host.running
        finally:
            host.stop(timeout=30.0)

        on_node_0 = np.array([4, 0])
        # The failed calls left the first decision in place; the next one
        # was applied.
        for shown in policy.shown[1:4]:
            assert np.array_equal(shown, on_node_0)
        assert np.array_equal(policy.shown[4], np.array([0, 4]))
        assert host.metrics.summary()["policy_errors"] == 2
        failed = [r for r in host.metrics.rounds if r.error is not None]
        assert [r.error for r in failed] == ["schedule: RuntimeError: policy bug"] * 2
        assert all(r.scheduled and r.decisions_applied == 0 for r in failed)
        # The timers advanced through the failures: no hot loop.
        times = [r.time for r in host.metrics.rounds if r.scheduled]
        assert [b - a for a, b in zip(times, times[1:])] == [120.0] * (len(times) - 1)
        errors = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 2
        for record, round_ in zip(errors, failed):
            assert record.name == "repro.host"
            assert record.exc_info is not None
            assert f"host time {round_.time:.1f} s" in record.getMessage()
        messages = [r.getMessage() for r in caplog.records]
        assert any(m.startswith("host starting: policy flaky") for m in messages)
        assert any(m.startswith("host stopping") for m in messages)

    def test_failing_decide_resize_is_contained(self):
        cluster = ClusterSpec.homogeneous(2, 4)

        class Failing(repro.policy.Policy):
            name = "failing-resize"
            capabilities = repro.policy.PolicyCapabilities(
                autoscales=True, autoscale_interval=120.0
            )

            def schedule(self, now, state):
                return repro.policy.ScheduleDecision()

            def decide_resize(self, now, state):
                raise ValueError("bad size")

        backend = fast_threaded(cluster, quantum_seconds=0.015)
        host = PolicyHost(Failing(), backend)
        host.start()
        try:
            deadline = time.monotonic() + 30.0
            while host.metrics.summary()["policy_errors"] < 3:
                assert time.monotonic() < deadline, "dispatch stopped"
                time.sleep(0.01)
            assert host.running
        finally:
            host.stop(timeout=30.0)
        assert "decide_resize: ValueError: bad size" in host.metrics.rounds[0].error
        assert backend.cluster().num_nodes == 2

    def test_circuit_opens_after_consecutive_failures(self, caplog, monkeypatch):
        """The threshold-th failure in a row opens the circuit: logged once,
        the policy is called no more, and the host keeps ticking and
        batch-tuning."""
        cluster = ClusterSpec.homogeneous(2, 4)
        threshold = repro.host.service._CIRCUIT_THRESHOLD

        class Broken(repro.policy.Policy):
            name = "broken"
            capabilities = repro.policy.PolicyCapabilities(
                autoscales=True, autoscale_interval=60.0, adapts_batch_size=True
            )

            def __init__(self):
                self.calls = 0

            def schedule(self, now, state):
                self.calls += 1
                raise RuntimeError("policy bug")

            def decide_resize(self, now, state):
                self.calls += 1
                raise ValueError("bad size")

        tuned = []
        tune = repro.host.service.tune_batch_sizes
        monkeypatch.setattr(
            repro.host.service,
            "tune_batch_sizes",
            lambda jobs: tuned.append(1) or tune(jobs),
        )
        caplog.set_level(logging.INFO, logger="repro.host")
        policy = Broken()
        host = PolicyHost(policy, fast_threaded(cluster, quantum_seconds=0.015))
        host.start()
        try:
            deadline = time.monotonic() + 30.0
            while not host.metrics.circuit_open:
                assert time.monotonic() < deadline, "circuit never opened"
                time.sleep(0.01)
            opened_at = host.metrics.summary()["rounds"]
            tuned_at = len(tuned)
            while host.metrics.summary()["rounds"] < opened_at + 5:
                assert time.monotonic() < deadline, "dispatch stopped"
                time.sleep(0.01)
            assert host.running
        finally:
            host.stop(timeout=30.0)
        assert policy.calls == threshold
        summary = host.metrics.summary()
        assert summary["circuit_open"] is True
        assert summary["policy_errors"] == len(
            [r for r in host.metrics.rounds if r.error is not None]
        )
        rounds = list(host.metrics.rounds)
        last_failed = max(i for i, r in enumerate(rounds) if r.error is not None)
        after = rounds[last_failed + 1 :]
        assert len(after) >= 4
        assert all(r.error is None and not r.scheduled for r in after)
        assert len(tuned) > tuned_at
        circuit = [
            r for r in caplog.records if r.getMessage().startswith("circuit open")
        ]
        assert len(circuit) == 1 and circuit[0].levelno == logging.ERROR

    def test_a_success_resets_the_failure_count(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        threshold = repro.host.service._CIRCUIT_THRESHOLD

        class Alternating(repro.policy.Policy):
            """Fails ``threshold - 1`` calls in a row, then succeeds once."""

            name = "alternating"

            def __init__(self):
                self.calls = 0

            def schedule(self, now, state):
                self.calls += 1
                if self.calls % threshold:
                    raise RuntimeError("policy bug")
                return repro.policy.ScheduleDecision()

        policy = Alternating()
        host = PolicyHost(policy, fast_threaded(cluster, quantum_seconds=0.015))
        host.start()
        try:
            deadline = time.monotonic() + 30.0
            while policy.calls < 3 * threshold:
                assert time.monotonic() < deadline, "dispatch stopped"
                time.sleep(0.01)
        finally:
            host.stop(timeout=30.0)
        assert not host.metrics.summary()["circuit_open"]

    def test_resize_and_drain_are_logged(self, caplog):
        cluster = ClusterSpec.homogeneous(2, 4)

        class Growing(repro.policy.Policy):
            name = "growing"
            capabilities = repro.policy.PolicyCapabilities(autoscales=True)

            def schedule(self, now, state):
                return repro.policy.ScheduleDecision(
                    resize=repro.policy.ClusterResizeRequest(3)
                )

        caplog.set_level(logging.INFO, logger="repro.host")
        host = PolicyHost(Growing(), fast_threaded(cluster))
        host.start()
        deadline = time.monotonic() + 30.0
        while host.metrics.summary()["resizes"] < 1:
            assert time.monotonic() < deadline, "no resize"
            time.sleep(0.01)
        # Nothing was submitted: the drain ends the loop at once.
        assert host.drain(timeout=30.0) is not None
        messages = [r.getMessage() for r in caplog.records if r.name == "repro.host"]
        assert any(m.startswith("cluster resized from 2 to 3 nodes") for m in messages)
        assert any(m.startswith("host draining") for m in messages)
