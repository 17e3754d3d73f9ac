"""Shared contract tests for every registered scheduling policy.

Parameterized over ``repro.policy.available()``: whatever is in the
registry — including policies added later — must uphold the Policy API
contract: registry construction with uniform ``cluster``/``seed`` kwargs,
allocations only for active jobs on feasible vectors, graceful empty-state
handling, snapshot immutability, and capabilities that every *host*
actually honors (profiling, batch-size tuning, autoscale dispatch).  The
capability/dispatch sections run parameterized over both hosts — the
discrete-time simulator and the wall-clock PolicyHost on a replayed trace
— pinning that capability handling and resize dispatch behave
identically no matter which host drives the policy.
"""

import dataclasses

import numpy as np
import pytest

import repro.policy
from repro.cluster import ClusterSpec, validate_allocation_matrix
from repro.core import AutoscaleConfig, GAConfig, PolluxSchedConfig
from repro.host import PolicyHost, ReplayBackend
from repro.policy import (
    ClusterState,
    Policy,
    PolicyCapabilities,
    ScheduleDecision,
    build_cluster_state,
)
from repro.sim import SimConfig, Simulator
from repro.sim.job import SimJob
from repro.workload import MODEL_ZOO, JobSpec

ALL_POLICIES = repro.policy.available()

#: The contract parameterization: every registered policy, plus the
#: sharded policy under its process executor (same registry name, worker
#: processes instead of the calling thread — the contract must hold
#: identically under either backend).  ``make_policy`` resolves the
#: ``+process`` suffix.
CONTRACT_POLICIES = tuple(ALL_POLICIES) + ("pollux-sharded+process",)

#: Policies constrained to the single-job cloud scenario.
SINGLE_JOB_POLICIES = {"orelastic"}

#: Both hosts of the Policy API; the capability/dispatch contract tests
#: run against each.
HOSTS = ("simulator", "policyhost")


def run_host(host, cluster, policy, trace, config):
    """Run ``trace`` through the chosen host; returns (result, jobs).

    ``jobs`` are the host's runtime job objects (for asserting profiling
    and batch-size behavior after the run).
    """
    if host == "simulator":
        sim = Simulator(cluster, policy, trace, config)
        return sim.run(), sim.jobs
    backend = ReplayBackend(cluster, trace, config)
    result = PolicyHost(policy, backend).run()
    return result, backend.engine.jobs


def make_policy(name: str, cluster: ClusterSpec, seed: int = 0) -> Policy:
    kwargs = {"cluster": cluster, "seed": seed}
    if name.startswith("pollux-sharded+"):
        name, execution = name.split("+", 1)
        kwargs["execution"] = execution
    if name in ("pollux", "pollux-sharded"):
        kwargs["config"] = PolluxSchedConfig(
            ga=GAConfig(population_size=8, generations=4)
        )
    return repro.policy.create(name, **kwargs)


def make_sim_jobs(cluster: ClusterSpec, count: int):
    jobs = []
    for i in range(count):
        spec = JobSpec(
            name=f"job-{i}",
            model=MODEL_ZOO["resnet18-cifar10"],
            submission_time=0.0,
            fixed_num_gpus=2,
            fixed_batch_size=256,
        )
        job = SimJob(spec, cluster.num_nodes, agent_seed=i)
        job.agent.record_iteration(1, 1, 128, 0.1)
        jobs.append(job)
    return jobs


def make_state(policy: Policy, cluster: ClusterSpec, count: int) -> ClusterState:
    return build_cluster_state(
        cluster, make_sim_jobs(cluster, count), policy.capabilities
    )


@pytest.fixture
def cluster() -> ClusterSpec:
    return ClusterSpec.homogeneous(4, 4)


# ----------------------------------------------------------------------
# Registry construction
# ----------------------------------------------------------------------


class TestRegistry:
    @pytest.mark.parametrize("name", CONTRACT_POLICIES)
    def test_constructible_with_uniform_kwargs(self, name, cluster):
        policy = make_policy(name, cluster)
        assert isinstance(policy, Policy)
        assert isinstance(policy.capabilities, PolicyCapabilities)
        assert policy.name

    @pytest.mark.parametrize("name", CONTRACT_POLICIES)
    def test_seed_threaded_uniformly(self, name, cluster):
        # Every policy — including deterministic ones — records the seed,
        # so sweep scripts never silently drop the determinism knob.
        assert make_policy(name, cluster, seed=13).seed == 13

    def test_aliases_resolve(self, cluster):
        assert (
            repro.policy.create("optimus+oracle", cluster=cluster).name
            == "optimus+oracle"
        )
        assert repro.policy.create("or-etal").name == "or-etal"

    def test_unknown_name_rejected(self, cluster):
        with pytest.raises(ValueError, match="unknown policy"):
            repro.policy.create("fifo", cluster=cluster)

    def test_describe_and_available(self):
        for name in ALL_POLICIES:
            assert repro.policy.describe(name)

    def test_canonical_resolves_aliases(self):
        assert repro.policy.canonical("optimus+oracle") == "optimus"
        assert repro.policy.canonical("or-etal") == "orelastic"
        assert repro.policy.canonical("POLLUX") == "pollux"
        with pytest.raises(ValueError):
            repro.policy.canonical("fifo")

    def test_both_autoscaling_behaviors_constructible(self, cluster):
        pollux = repro.policy.create(
            "pollux",
            cluster=cluster,
            autoscale=AutoscaleConfig(min_nodes=1, max_nodes=8),
            autoscale_interval=300.0,
        )
        assert pollux.capabilities.autoscales
        assert pollux.capabilities.autoscale_interval == 300.0
        oretal = repro.policy.create(
            "orelastic", autoscale=True, min_nodes=2, max_nodes=8
        )
        assert oretal.capabilities.autoscales
        # Empty state: both fall back to their minimum size.
        empty = ClusterState(cluster=cluster)
        assert pollux.decide_resize(0.0, empty).num_nodes == 1
        assert oretal.decide_resize(0.0, empty).num_nodes == 2


# ----------------------------------------------------------------------
# schedule() contract
# ----------------------------------------------------------------------


class TestScheduleContract:
    @pytest.mark.parametrize("name", CONTRACT_POLICIES)
    def test_empty_cluster_state(self, name, cluster):
        policy = make_policy(name, cluster)
        decision = policy.schedule(0.0, ClusterState(cluster=cluster))
        assert isinstance(decision, ScheduleDecision)
        assert not decision.allocations

    @pytest.mark.parametrize("name", CONTRACT_POLICIES)
    def test_allocations_only_for_active_jobs(self, name, cluster):
        policy = make_policy(name, cluster)
        count = 1 if name in SINGLE_JOB_POLICIES else 3
        state = make_state(policy, cluster, count)
        decision = policy.schedule(0.0, state)
        active = {snap.name for snap in state.jobs}
        assert set(decision.allocations) <= active
        for alloc in decision.allocations.values():
            alloc = np.asarray(alloc)
            assert alloc.shape == (cluster.num_nodes,)
            assert (alloc >= 0).all()

    @pytest.mark.parametrize("name", CONTRACT_POLICIES)
    def test_allocation_matrix_feasible(self, name, cluster):
        policy = make_policy(name, cluster)
        count = 1 if name in SINGLE_JOB_POLICIES else 6
        state = make_state(policy, cluster, count)
        decision = policy.schedule(0.0, state)
        if decision.allocations:
            matrix = np.stack(
                [np.asarray(a) for a in decision.allocations.values()]
            )
            assert not validate_allocation_matrix(matrix, cluster)

    @pytest.mark.parametrize("name", CONTRACT_POLICIES)
    def test_schedule_does_not_mutate_snapshots(self, name, cluster):
        policy = make_policy(name, cluster)
        count = 1 if name in SINGLE_JOB_POLICIES else 2
        state = make_state(policy, cluster, count)
        before = [snap.allocation.copy() for snap in state.jobs]
        batch_before = [snap.batch_size for snap in state.jobs]
        policy.schedule(0.0, state)
        for snap, alloc, batch in zip(state.jobs, before, batch_before):
            np.testing.assert_array_equal(snap.allocation, alloc)
            assert snap.batch_size == batch

    @pytest.mark.parametrize("name", CONTRACT_POLICIES)
    def test_decision_mappings_read_only(self, name, cluster):
        policy = make_policy(name, cluster)
        count = 1 if name in SINGLE_JOB_POLICIES else 2
        decision = policy.schedule(0.0, make_state(policy, cluster, count))
        with pytest.raises(TypeError):
            decision.allocations["intruder"] = np.zeros(cluster.num_nodes)


# ----------------------------------------------------------------------
# Snapshot immutability
# ----------------------------------------------------------------------


class TestSnapshotImmutability:
    def test_allocation_write_locked(self, cluster):
        [job] = make_sim_jobs(cluster, 1)
        snap = repro.policy.snapshot_job(job)
        with pytest.raises(ValueError):
            snap.allocation[0] = 3

    def test_fields_frozen(self, cluster):
        [job] = make_sim_jobs(cluster, 1)
        snap = repro.policy.snapshot_job(job)
        with pytest.raises(dataclasses.FrozenInstanceError):
            snap.batch_size = 1.0

    def test_snapshot_is_a_copy(self, cluster):
        [job] = make_sim_jobs(cluster, 1)
        snap = repro.policy.snapshot_job(job)
        job.allocation = np.array([4, 0, 0, 0])
        assert snap.allocation.sum() == 0  # unchanged view

    def test_state_jobs_tuple(self, cluster):
        state = build_cluster_state(
            cluster, make_sim_jobs(cluster, 2), PolicyCapabilities()
        )
        assert isinstance(state.jobs, tuple)
        assert state.job("job-1").name == "job-1"
        with pytest.raises(KeyError):
            state.job("missing")


# ----------------------------------------------------------------------
# Capabilities are honored by the simulator
# ----------------------------------------------------------------------


def _trace(cluster, count=3, gpus=2):
    return [
        JobSpec(
            name=f"job-{i}",
            model=MODEL_ZOO["resnet18-cifar10"],
            submission_time=60.0 * i,
            fixed_num_gpus=gpus,
            fixed_batch_size=256,
        )
        for i in range(count)
    ]


class TestHostsHonorCapabilities:
    @pytest.mark.parametrize("host", HOSTS)
    @pytest.mark.parametrize("name", CONTRACT_POLICIES)
    def test_agent_profiling_matches_needs_agent(self, name, host):
        cluster = ClusterSpec.homogeneous(2, 4)
        policy = make_policy(name, cluster)
        count = 1 if name in SINGLE_JOB_POLICIES else 3
        _, jobs = run_host(
            host,
            cluster,
            policy,
            _trace(cluster, count),
            SimConfig(seed=0, max_hours=1.0),
        )
        profiled = any(job.agent.profile_entries() for job in jobs)
        assert profiled == policy.capabilities.needs_agent

    @pytest.mark.parametrize("host", HOSTS)
    @pytest.mark.parametrize(
        "name", sorted(set(ALL_POLICIES) - {"pollux", "pollux-sharded"})
    )
    def test_fixed_batch_size_without_adaptation(self, name, host):
        # Policies without adapts_batch_size never get agent re-tuning;
        # batch sizes stay at the submitted value unless the policy fixed
        # them itself through ScheduleDecision.batch_sizes (orelastic).
        cluster = ClusterSpec.homogeneous(2, 4)
        policy = make_policy(name, cluster)
        count = 1 if name in SINGLE_JOB_POLICIES else 2
        _, jobs = run_host(
            host,
            cluster,
            policy,
            _trace(cluster, count),
            SimConfig(seed=0, max_hours=1.0),
        )
        assert not policy.capabilities.adapts_batch_size
        for job in jobs:
            if name in SINGLE_JOB_POLICIES:
                limits = job.model.limits
                assert job.batch_size == min(
                    limits.max_batch_size,
                    cluster.total_gpus * limits.max_local_bsz,
                )
            else:
                assert job.batch_size == float(job.spec.fixed_batch_size)

    @pytest.mark.parametrize("host", HOSTS)
    def test_result_records_policy_name(self, host):
        cluster = ClusterSpec.homogeneous(2, 4)
        policy = make_policy("tiresias", cluster)
        result, _ = run_host(
            host,
            cluster,
            policy,
            _trace(cluster, 2),
            SimConfig(seed=0, max_hours=1.0),
        )
        assert result.scheduler_name == "tiresias"


# ----------------------------------------------------------------------
# Dispatch: resize cadence and agent reports
# ----------------------------------------------------------------------


class _FirstFitPolicy(Policy):
    """First-fit allocator: every job gets its requested GPUs if they fit."""

    name = "first-fit"
    capabilities = PolicyCapabilities()

    def schedule(self, now, state):
        # Give every job its requested GPUs so jobs can finish.
        allocations = {}
        free = state.cluster.capacities().astype(np.int64)
        for snap in state.jobs:
            want = snap.fixed_num_gpus
            alloc = np.zeros(state.cluster.num_nodes, dtype=np.int64)
            for node in range(state.cluster.num_nodes):
                take = min(want, int(free[node]))
                alloc[node] = take
                want -= take
                if want == 0:
                    break
            if want == 0:
                allocations[snap.name] = alloc
                free = free - alloc
        return ScheduleDecision(allocations=allocations)


@pytest.mark.parametrize("host", HOSTS)
class TestDispatch:
    def test_decide_resize_cadence(self, host):
        calls = []

        class CadencePolicy(_FirstFitPolicy):
            capabilities = PolicyCapabilities(
                autoscales=True, autoscale_interval=120.0
            )

            def decide_resize(self, now, state):
                calls.append(now)
                return None  # keep current size

        cluster = ClusterSpec.homogeneous(2, 4)
        run_host(
            host,
            cluster,
            CadencePolicy(),
            _trace(cluster, 1),
            SimConfig(seed=0, max_hours=0.25),
        )
        assert calls, "decide_resize never dispatched"
        gaps = np.diff(calls)
        assert (gaps >= 120.0).all()

    def test_needs_agent_snapshots_carry_reports(self, host):
        cluster = ClusterSpec.homogeneous(2, 4)
        seen = []

        class AgentPolicy(_FirstFitPolicy):
            capabilities = PolicyCapabilities(
                adapts_batch_size=True, needs_agent=True
            )

            def schedule(self, now, state):
                seen.extend(snap.agent_report for snap in state.jobs)
                return super().schedule(now, state)

        run_host(
            host,
            cluster,
            AgentPolicy(),
            _trace(cluster, 1),
            SimConfig(seed=0, max_hours=0.25),
        )
        assert seen and all(report is not None for report in seen)
