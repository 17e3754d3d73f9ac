"""Executor-backend tests for the sharded policy.

Pins the central guarantee: ``execution="process"`` (persistent worker
processes fed per-round deltas) reproduces the in-process executor's
decision stream **bit-for-bit** at a fixed seed — including across phi
drift (the PHI delta path), theta re-fits (the FULL path), mid-run
resizes, and worker counts below the cell count — and that the worker
count (``fanout_width``: cores, or ``max_workers``) never moves a
decision.  The in-process executor runs its cells on the calling thread
at any core count and starts no thread.  Also covers the failure and
lifecycle semantics: worker crash/timeout falls back in-process without
losing a dispatch, and ``close()`` tears down processes idempotently with
lazy revival.
"""

import dataclasses
import hashlib
import threading

import numpy as np
import pytest

import repro.policy
import repro.shard.executor as executor_module
from repro.cluster import ClusterSpec
from repro.core import AgentReport, GAConfig, PolluxSched, PolluxSchedConfig
from repro.policy.views import ClusterState, JobSnapshot
from repro.shard import (
    ProcessCellExecutor,
    ThreadCellExecutor,
    UniformCellPartitioner,
    make_executor,
)
from repro.shard.executor import fanout_width
from repro.shard.wire import FULL, PHI, SAME, DeltaTracker, decode_jobs
from repro.sim import SimConfig, Simulator
from repro.workload import MODEL_ZOO, JobSpec

QUICK_CFG = PolluxSchedConfig(ga=GAConfig(population_size=8, generations=6))

CLUSTER = ClusterSpec.homogeneous(8, 4)


def make_report(phi=1000.0, max_gpus_seen=8, model_name="resnet18-cifar10"):
    profile = MODEL_ZOO[model_name]
    return AgentReport(
        throughput_params=profile.theta_true,
        grad_noise_scale=phi,
        init_batch_size=float(profile.init_batch_size),
        limits=profile.limits,
        max_gpus_seen=max_gpus_seen,
    )


def make_state(cluster, count, phi=1000.0):
    snaps = tuple(
        JobSnapshot(
            name=f"job-{i}",
            submission_time=0.0,
            allocation=np.zeros(cluster.num_nodes, dtype=np.int64),
            batch_size=0,
            gputime=0.0,
            agent_report=make_report(phi=phi),
        )
        for i in range(count)
    )
    return ClusterState(cluster=cluster, jobs=snaps)


def next_state(state, decision, drift):
    """Feedback plus phi drift (exercises the PHI delta every round)."""
    return ClusterState(
        cluster=state.cluster,
        jobs=tuple(
            dataclasses.replace(
                snap,
                allocation=decision.allocations[snap.name],
                agent_report=dataclasses.replace(
                    snap.agent_report,
                    grad_noise_scale=snap.agent_report.grad_noise_scale
                    * (1.0 + drift),
                ),
            )
            for snap in state.jobs
        ),
    )


def make_sharded(execution, cluster=CLUSTER, cells=2, config=QUICK_CFG, **kw):
    return repro.policy.create(
        "pollux-sharded",
        cluster=cluster,
        config=config,
        seed=7,
        partitioner=UniformCellPartitioner(cells),
        execution=execution,
        **kw,
    )


def stream(policy, cluster, rounds=4, count=10, evolve=None):
    """Run ``rounds`` schedules with feedback; returns the decision list."""
    state = make_state(cluster, count)
    decisions = []
    for r in range(rounds):
        if evolve is not None:
            state = evolve(r, state)
        decision = policy.schedule(60.0 * r, state)
        decisions.append(
            {k: np.array(v) for k, v in decision.allocations.items()}
        )
        state = next_state(state, decision, drift=0.01 * (r + 1))
    policy.close()
    return decisions


def assert_streams_equal(a, b):
    assert len(a) == len(b)
    for round_idx, (da, db) in enumerate(zip(a, b)):
        assert da.keys() == db.keys(), f"round {round_idx}"
        for name in da:
            np.testing.assert_array_equal(
                da[name], db[name], err_msg=f"round {round_idx} job {name}"
            )


# ----------------------------------------------------------------------
# Thread-vs-process digest equality
# ----------------------------------------------------------------------


class TestDigestEquality:
    def test_multicell_streams_identical(self):
        thread = stream(make_sharded("thread"), CLUSTER)
        process = stream(make_sharded("process"), CLUSTER)
        assert_streams_equal(thread, process)

    def test_fewer_workers_than_cells(self):
        # Worker j owns cells {i : i % workers == j}; the mapping must not
        # leak into decisions.
        thread = stream(make_sharded("thread", cells=3), CLUSTER)
        process = stream(
            make_sharded("process", cells=3, max_workers=1), CLUSTER
        )
        assert_streams_equal(thread, process)

    def test_spawn_start_method(self):
        # spawn re-imports the worker module in a fresh interpreter — the
        # payloads must survive pickling there just as exactly as under
        # fork (and this is the only start method on some platforms).
        thread = stream(make_sharded("thread"), CLUSTER, rounds=2)
        process = stream(
            make_sharded("process", start_method="spawn"), CLUSTER, rounds=2
        )
        assert_streams_equal(thread, process)

    def test_mid_run_resize(self):
        # Growing the cluster mid-run forces a repartition: workers are
        # reconfigured (cold schedulers, reset delta trackers) and the
        # post-resize stream must still match the threaded one.
        grown = ClusterSpec.homogeneous(12, 4)

        def evolve(round_idx, state):
            if round_idx == 2:
                pad = grown.num_nodes - state.cluster.num_nodes
                return ClusterState(
                    cluster=grown,
                    jobs=tuple(
                        dataclasses.replace(
                            snap,
                            allocation=np.concatenate(
                                [
                                    snap.allocation,
                                    np.zeros(pad, dtype=np.int64),
                                ]
                            ),
                        )
                        for snap in state.jobs
                    ),
                )
            return state

        thread = stream(make_sharded("thread"), CLUSTER, evolve=evolve)
        process = stream(make_sharded("process"), CLUSTER, evolve=evolve)
        assert_streams_equal(thread, process)

    def test_theta_refit_full_delta(self):
        # A theta change mid-run exercises the FULL re-send path after the
        # job is already cached worker-side.
        other = MODEL_ZOO["deepspeech2-arctic"]

        def evolve(round_idx, state):
            if round_idx == 2:
                jobs = list(state.jobs)
                jobs[0] = dataclasses.replace(
                    jobs[0],
                    agent_report=dataclasses.replace(
                        jobs[0].agent_report,
                        throughput_params=other.theta_true,
                        limits=other.limits,
                        init_batch_size=float(other.init_batch_size),
                    ),
                )
                return ClusterState(cluster=state.cluster, jobs=tuple(jobs))
            return state

        thread = stream(make_sharded("thread"), CLUSTER, evolve=evolve)
        process = stream(make_sharded("process"), CLUSTER, evolve=evolve)
        assert_streams_equal(thread, process)


# ----------------------------------------------------------------------
# Fan-out width: sized to the machine, never part of a decision
# ----------------------------------------------------------------------


def shard_threads():
    return [
        t for t in threading.enumerate() if t.name.startswith("shard-cell")
    ]


def set_cores(monkeypatch, cores):
    monkeypatch.setattr(executor_module, "_usable_cores", lambda: cores)


def eventful(round_idx, state):
    """An arrival before round 2, two departures before round 3."""
    if round_idx == 2:
        late = dataclasses.replace(
            make_state(state.cluster, 1).jobs[0], name="late-arrival"
        )
        return ClusterState(cluster=state.cluster, jobs=state.jobs + (late,))
    if round_idx == 3:
        gone = {"job-0", "job-4"}
        return ClusterState(
            cluster=state.cluster,
            jobs=tuple(snap for snap in state.jobs if snap.name not in gone),
        )
    return state


def eventful_stream(execution, **kw):
    """Six rounds on four cells with arrivals, departures and migrations."""
    policy = make_sharded(
        execution, cells=4, migrate_every=2, migration_threshold=1.0, **kw
    )
    decisions = stream(policy, CLUSTER, rounds=6, evolve=eventful)
    assert policy.migrations >= 1
    assert {"late-arrival"} <= decisions[2].keys() - decisions[1].keys()
    assert "job-0" not in decisions[3]
    return policy, decisions


def stream_digest(decisions):
    sha = hashlib.sha256()
    for decision in decisions:
        for name in sorted(decision):
            sha.update(name.encode())
            sha.update(np.ascontiguousarray(decision[name]).tobytes())
    return sha.hexdigest()


class TestFanoutWidth:
    def test_rule(self, monkeypatch):
        set_cores(monkeypatch, 2)
        assert fanout_width(8) == 2
        assert fanout_width(1) == 1
        assert fanout_width(8, max_workers=3) == 3
        assert fanout_width(4, max_workers=99) == 4
        set_cores(monkeypatch, 64)
        assert fanout_width(8) == 8

    def test_usable_cores_is_positive(self):
        assert executor_module._usable_cores() >= 1

    @pytest.fixture(scope="class")
    def sequential(self):
        return eventful_stream("thread")[1]

    @pytest.mark.parametrize(
        "cores, max_workers, width",
        [
            (1, None, 1),
            (2, None, 2),
            (8, None, 4),
            (2, 1, 1),
            (2, 3, 3),
            (2, 99, 4),
        ],
    )
    def test_width_never_moves_a_decision(
        self, monkeypatch, sequential, cores, max_workers, width
    ):
        set_cores(monkeypatch, cores)
        policy, decisions = eventful_stream("process", max_workers=max_workers)
        assert policy.last_round_report["width"] == width
        assert_streams_equal(sequential, decisions)

    @pytest.mark.parametrize("cores", [1, 2, 8])
    def test_cells_run_inline(self, monkeypatch, cores):
        set_cores(monkeypatch, cores)
        caller = threading.get_ident()
        ran_on = []
        real_optimize = PolluxSched.optimize

        def optimize(self, jobs):
            ran_on.append(threading.get_ident())
            return real_optimize(self, jobs)

        monkeypatch.setattr(PolluxSched, "optimize", optimize)
        baseline = len(shard_threads())
        policy = make_sharded("thread", cells=4)
        state = make_state(CLUSTER, 10)
        for r in range(3):
            decision = policy.schedule(60.0 * r, state)
            state = next_state(state, decision, drift=0.01)
            assert len(shard_threads()) == baseline
            report = policy.last_round_report
            assert report["width"] == 1
            timings = [report["sum"], report["max"], policy.last_phase_timings]
            timings += [cell["timings"] for cell in report["per_cell"]]
            assert all("wait_ms" not in t and "total_ms" in t for t in timings)
        policy.close()
        assert ran_on == [caller] * 12

    @pytest.mark.parametrize("cores, workers", [(1, 1), (2, 2), (8, 4)])
    def test_process_workers_follow_the_cores(
        self, monkeypatch, sequential, cores, workers
    ):
        set_cores(monkeypatch, cores)
        policy, decisions = eventful_stream("process")
        # One per live worker process (the stream's close() stopped them).
        assert policy.last_round_report["width"] == workers
        assert_streams_equal(sequential, decisions)

    def test_thread_and_process_digests_equal(self, monkeypatch):
        set_cores(monkeypatch, 2)
        digests = {}
        for execution, width in [("thread", 1), ("process", 2)]:
            policy, decisions = eventful_stream(execution)
            assert policy.last_round_report["width"] == width
            digests[execution] = stream_digest(decisions)
        assert digests["thread"] == digests["process"]


# ----------------------------------------------------------------------
# Failure semantics: crash / timeout fall back in-process
# ----------------------------------------------------------------------


class TestFallback:
    def test_worker_crash_falls_back_and_recovers(self):
        policy = make_sharded("process")
        state = make_state(CLUSTER, 8)
        decision = policy.schedule(0.0, state)
        assert policy.fallback_rounds == 0
        for handle in policy._executor._workers:
            handle.process.terminate()
            handle.process.join(timeout=5)
        state = next_state(state, decision, drift=0.01)
        decision = policy.schedule(60.0, state)
        # Never a lost dispatch: every job still gets an allocation row.
        assert set(decision.allocations) == {s.name for s in state.jobs}
        assert policy.fallback_rounds >= 1
        # Workers were replaced: the next round runs worker-side again.
        fallbacks = policy.fallback_rounds
        state = next_state(state, decision, drift=0.01)
        decision = policy.schedule(120.0, state)
        assert set(decision.allocations) == {s.name for s in state.jobs}
        assert policy.fallback_rounds == fallbacks
        assert all(h.alive for h in policy._executor._workers)
        policy.close()

    def test_round_timeout_falls_back(self):
        policy = make_sharded("process", round_timeout=1e-9)
        state = make_state(CLUSTER, 8)
        decision = policy.schedule(0.0, state)
        assert set(decision.allocations) == {s.name for s in state.jobs}
        assert policy.fallback_rounds >= 1
        report = policy.last_round_report
        assert any(cell["fallback"] for cell in report["per_cell"])
        # The fallback is a flag, not a phase: every timing is a time.
        for timings in (policy.last_phase_timings, report["sum"], report["max"]):
            assert timings and all(key.endswith("_ms") for key in timings)
        policy.close()

    def test_invalid_round_timeout_rejected(self):
        with pytest.raises(ValueError, match="round_timeout"):
            make_sharded("process", round_timeout=0.0)

    def test_unknown_execution_rejected(self):
        with pytest.raises(ValueError, match="execution"):
            make_executor("gpu")


# ----------------------------------------------------------------------
# Lifecycle: close(), revival, no leaked threads/processes
# ----------------------------------------------------------------------


class TestLifecycle:
    def test_process_close_kills_workers_and_revives(self):
        policy = make_sharded("process")
        state = make_state(CLUSTER, 6)
        policy.schedule(0.0, state)
        workers = list(policy._executor._workers)
        assert workers and all(h.process.is_alive() for h in workers)
        policy.close()
        assert policy._executor._workers == []
        assert all(not h.process.is_alive() for h in workers)
        policy.close()  # idempotent
        # A closed policy revives its executor on the next schedule.
        decision = policy.schedule(60.0, state)
        assert set(decision.allocations) == {s.name for s in state.jobs}
        assert policy._executor._workers
        policy.close()

    def test_thread_repartition_and_close_leak_no_threads(self):
        baseline = len(shard_threads())
        policy = make_sharded("thread")
        state = make_state(CLUSTER, 6)
        policy.schedule(0.0, state)
        # Repeated repartitions (node-layout changes) start no thread.
        for num_nodes in (10, 12, 14):
            grown = ClusterSpec.homogeneous(num_nodes, 4)
            policy.schedule(0.0, make_state(grown, 6))
            assert len(shard_threads()) == baseline
        policy.close()
        assert len(shard_threads()) == baseline
        # Revival after close still works.
        decision = policy.schedule(0.0, make_state(CLUSTER, 6))
        assert decision.allocations
        policy.close()

    def test_thread_scheduler_state_survives_close(self):
        # close() drops the cached cells; warm GA populations stay, so a
        # close mid-stream does not perturb decisions.
        uninterrupted = stream(make_sharded("thread"), CLUSTER)
        policy = make_sharded("thread")
        state = make_state(CLUSTER, 10)
        decisions = []
        for r in range(4):
            decision = policy.schedule(60.0 * r, state)
            decisions.append(
                {k: np.array(v) for k, v in decision.allocations.items()}
            )
            state = next_state(state, decision, drift=0.01 * (r + 1))
            policy.close()
            assert not any(len(s.surface_cache) for s in policy.cell_schedulers)
        assert_streams_equal(uninterrupted, decisions)

    def test_simulator_closes_policy(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        policy = repro.policy.create(
            "pollux-sharded",
            cluster=cluster,
            config=QUICK_CFG,
            seed=0,
            execution="process",
        )
        trace = [
            JobSpec(
                name="job-0",
                model=MODEL_ZOO["resnet18-cifar10"],
                submission_time=0.0,
                fixed_num_gpus=2,
                fixed_batch_size=256,
            )
        ]
        sim = Simulator(cluster, policy, trace, SimConfig(seed=0, max_hours=0.5))
        sim.run()
        # The host tore the executor down at end of run.
        assert policy._executor._workers == []

    def test_thread_schedulers_introspectable_process_not(self):
        thread_policy = make_sharded("thread")
        assert len(thread_policy.cell_schedulers) == 2
        # Under the process executor the schedulers live in the workers:
        # an empty tuple, so a reader written as getattr(policy,
        # "cell_schedulers", None) finds nothing instead of dying.
        process_policy = make_sharded("process")
        assert process_policy.cell_schedulers == ()
        process_policy.schedule(0.0, make_state(CLUSTER, 6))
        assert getattr(process_policy, "cell_schedulers", None) == ()
        thread_policy.close()
        process_policy.close()


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------


class TestWire:
    def infos(self, reports):
        from repro.core.sched import SchedJobInfo

        return [
            SchedJobInfo(
                job_id=name,
                report=report,
                current_alloc=np.zeros(4, dtype=np.int64),
                gputime=0.0,
            )
            for name, report in reports
        ]

    def test_delta_modes(self):
        tracker = DeltaTracker()
        r0 = make_report(phi=1000.0)
        wire_jobs, departures = tracker.encode(self.infos([("a", r0)]))
        assert departures == []
        assert wire_jobs[0][1] == FULL
        # Unchanged report: SAME.
        wire_jobs, _ = tracker.encode(self.infos([("a", r0)]))
        assert wire_jobs[0][1] == SAME
        # phi-only drift: PHI with (phi, max_gpus_seen).
        r1 = dataclasses.replace(r0, grad_noise_scale=1100.0)
        wire_jobs, _ = tracker.encode(self.infos([("a", r1)]))
        assert wire_jobs[0][1] == PHI
        assert wire_jobs[0][2] == (1100.0, r1.max_gpus_seen)
        # max_gpus_seen alone widens the exploration cap: also PHI.
        r2 = dataclasses.replace(r1, max_gpus_seen=16)
        wire_jobs, _ = tracker.encode(self.infos([("a", r2)]))
        assert wire_jobs[0][1] == PHI
        # Theta change: back to FULL.
        other = MODEL_ZOO["deepspeech2-arctic"]
        r3 = dataclasses.replace(r2, throughput_params=other.theta_true)
        wire_jobs, _ = tracker.encode(self.infos([("a", r3)]))
        assert wire_jobs[0][1] == FULL
        # Departure: tracked job missing from the round.
        wire_jobs, departures = tracker.encode(self.infos([("b", r0)]))
        assert departures == ["a"]
        # And a re-arrival after departure ships FULL again.
        wire_jobs, _ = tracker.encode(self.infos([("a", r3), ("b", r0)]))
        assert {w[0]: w[1] for w in wire_jobs} == {"a": FULL, "b": SAME}

    def test_roundtrip_reconstructs_reports_exactly(self):
        tracker = DeltaTracker()
        cache = {}
        r0 = make_report(phi=1000.0)
        for report in (
            r0,
            dataclasses.replace(r0, grad_noise_scale=1234.5678),
            dataclasses.replace(r0, max_gpus_seen=32),
        ):
            wire_jobs, departures = tracker.encode(self.infos([("a", report)]))
            [info] = decode_jobs(wire_jobs, departures, cache)
            assert info.report == report

    def test_tracker_reset_forces_full(self):
        tracker = DeltaTracker()
        r0 = make_report()
        tracker.encode(self.infos([("a", r0)]))
        tracker.reset()
        wire_jobs, _ = tracker.encode(self.infos([("a", r0)]))
        assert wire_jobs[0][1] == FULL


class TestExecutorKwargsViaRegistry:
    def test_registry_threads_executor_kwargs(self):
        policy = repro.policy.create(
            "pollux-sharded",
            cluster=CLUSTER,
            config=QUICK_CFG,
            seed=0,
            execution="process",
            max_workers=1,
            round_timeout=30.0,
        )
        assert isinstance(policy._executor, ProcessCellExecutor)
        assert policy._executor.round_timeout == 30.0
        policy.close()

    @pytest.mark.parametrize(
        "option, value",
        [("max_workers", 2), ("start_method", "spawn"), ("round_timeout", 5.0)],
    )
    def test_process_options_rejected_with_thread(self, option, value):
        # The thread executor has no workers: an option it would ignore
        # is an error, not a silent no-op.
        with pytest.raises(ValueError, match=f"{option}.*'process'"):
            make_sharded("thread", **{option: value})

    def test_default_execution_is_thread(self):
        policy = repro.policy.create(
            "pollux-sharded", cluster=CLUSTER, config=QUICK_CFG, seed=0
        )
        assert isinstance(policy._executor, ThreadCellExecutor)
        policy.close()
