"""Tests for typed GPU nodes: specs, tables, GA, simulator, autoscaling."""

import numpy as np
import pytest

from repro.cluster import (
    CLUSTER_PRESETS,
    GPU_TYPES,
    ClusterSpec,
    GpuType,
    NodeSpec,
    pack_allocation,
    pack_allocation_typed,
)
from repro.core import (
    AllocationProblem,
    GAConfig,
    GeneticOptimizer,
    JobGAInfo,
    PolluxSched,
    PolluxSchedConfig,
    build_speedup_tables_batch,
    project_throughput_params,
)
from repro.core.agent import PolluxAgent
from repro.core.speedup import SINGLE_NODE
from repro.policy import (
    ClusterResizeRequest,
    PolicyCapabilities,
    PolluxPolicy,
    TiresiasPolicy,
)
from repro.sim import SimConfig, SimJob, Simulator
from repro.workload import TraceConfig, generate_heterogeneous_workload, generate_trace


@pytest.fixture
def mixed_cluster() -> ClusterSpec:
    """2 T4 nodes + 2 V100 nodes, 4 GPUs each."""
    return ClusterSpec.heterogeneous((("t4", 2, 4), ("v100", 2, 4)))


class TestTypedSpecs:
    def test_type_structure(self, mixed_cluster):
        assert mixed_cluster.num_types == 2
        assert [t.name for t in mixed_cluster.gpu_types] == ["t4", "v100"]
        np.testing.assert_array_equal(
            mixed_cluster.node_type_ids(), [0, 0, 1, 1]
        )
        np.testing.assert_array_equal(mixed_cluster.type_speeds(), [1.0, 2.0])
        np.testing.assert_array_equal(
            mixed_cluster.node_speeds(), [1.0, 1.0, 2.0, 2.0]
        )
        np.testing.assert_array_equal(mixed_cluster.type_capacities(), [8, 8])

    def test_homogeneous_is_single_type(self):
        cluster = ClusterSpec.homogeneous(4, 4)
        assert cluster.is_single_type
        assert cluster.gpu_types[0].name == "t4"
        np.testing.assert_array_equal(cluster.node_speeds(), np.ones(4))

    def test_presets_build(self):
        for name in CLUSTER_PRESETS:
            cluster = ClusterSpec.from_preset(name)
            assert cluster.total_gpus > 0
        with pytest.raises(ValueError):
            ClusterSpec.from_preset("no-such-preset")

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            ClusterSpec.heterogeneous((("tpu", 2, 4),))
        with pytest.raises(ValueError):
            GpuType("t4", compute_speed=0.0)

    def test_resized_grow_clones_last_node_type(self, mixed_cluster):
        grown = mixed_cluster.resized(6)
        assert grown.num_nodes == 6
        assert [n.gpu_type.name for n in grown.nodes] == [
            "t4", "t4", "v100", "v100", "v100", "v100",
        ]

    def test_resized_shrink_drops_from_end(self, mixed_cluster):
        shrunk = mixed_cluster.resized(2)
        assert [n.gpu_type.name for n in shrunk.nodes] == ["t4", "t4"]
        assert shrunk.is_single_type

    def test_preset_shrink_sheds_slowest_nodes_first(self):
        """Presets list fast groups first, so autoscaling shrink (which
        truncates from the end) drops the slow T4 nodes and keeps the
        V100 group."""
        cluster = ClusterSpec.from_preset("mixed-t4-v100")
        shrunk = cluster.resized(3)
        names = [n.gpu_type.name for n in shrunk.nodes]
        assert names == ["v100", "v100", "t4"]

    def test_resized_grow_with_chosen_type(self, mixed_cluster):
        grown = mixed_cluster.resized(
            5, grow_with=NodeSpec(8, GPU_TYPES["a100"])
        )
        assert grown.nodes[-1].gpu_type.name == "a100"
        assert grown.nodes[-1].num_gpus == 8
        assert grown.num_types == 3


class TestTypedPacking:
    def test_single_type_matches_untyped(self):
        cluster = ClusterSpec.homogeneous(4, 4)
        free = np.array([4, 2, 3, 4])
        np.testing.assert_array_equal(
            pack_allocation_typed(cluster, 2, free),
            pack_allocation(cluster, 2, free),
        )

    def test_prefers_fastest_group(self, mixed_cluster):
        free = mixed_cluster.capacities()
        alloc = pack_allocation_typed(mixed_cluster, 4, free)
        assert alloc.sum() == 4
        # Nodes 2-3 are the V100 group.
        assert alloc[2:].sum() == 4

    def test_falls_back_to_slower_group(self, mixed_cluster):
        free = np.array([4, 4, 1, 1])  # V100 group nearly full
        alloc = pack_allocation_typed(mixed_cluster, 4, free)
        assert alloc.sum() == 4
        assert alloc[:2].sum() == 4

    def test_straddles_types_as_last_resort(self, mixed_cluster):
        free = np.array([3, 3, 3, 3])
        alloc = pack_allocation_typed(mixed_cluster, 8, free)
        assert alloc.sum() == 8
        assert (alloc[:2] > 0).any() and (alloc[2:] > 0).any()


class TestOptimusOracleNodes:
    def test_min_nodes_table_homogeneous_matches_ceil(self):
        from repro.policy import OptimusPolicy

        cluster = ClusterSpec.homogeneous(4, 4)
        table = OptimusPolicy._min_nodes_table(cluster)
        for k in range(1, 17):
            assert table[k] == int(np.ceil(k / 4))

    def test_min_nodes_table_mixed_node_sizes(self):
        from repro.policy import OptimusPolicy

        cluster = ClusterSpec.heterogeneous((("t4", 2, 4), ("a100", 1, 8)))
        table = OptimusPolicy._min_nodes_table(cluster)
        # Best-case packing uses the 8-GPU a100 node first.
        assert table[8] == 1
        assert table[9] == 2
        assert table[12] == 2
        assert table[16] == 3


def build_speedup_table(model, max_gpus):
    [table] = build_speedup_tables_batch([model], [max_gpus])
    return table


def build_typed_speedup_table(model, max_gpus, type_speeds):
    [table] = build_speedup_tables_batch(
        [model], [max_gpus], type_speeds=type_speeds, squeeze=False
    )
    return table


class TestTypedSpeedupTables:
    def test_single_type_collapses_to_seed_table(self, cifar_goodput):
        seed_table = build_speedup_table(cifar_goodput, max_gpus=8)
        typed = build_typed_speedup_table(cifar_goodput, 8, [1.0])
        assert typed.shape == (9, 2, 1)
        np.testing.assert_array_equal(typed[:, :, 0], seed_table)

    def test_faster_type_scores_higher(self, cifar_goodput):
        table = build_typed_speedup_table(cifar_goodput, 8, [1.0, 2.0])
        for k in range(1, 9):
            assert table[k, SINGLE_NODE, 1] > table[k, SINGLE_NODE, 0]
        # The slowest type's single GPU defines speedup 1.
        assert table[1, SINGLE_NODE, 0] == pytest.approx(1.0)

    def test_normalization_independent_of_type_order(self, cifar_goodput):
        a = build_typed_speedup_table(cifar_goodput, 8, [1.0, 2.0])
        b = build_typed_speedup_table(cifar_goodput, 8, [2.0, 1.0])
        np.testing.assert_allclose(a[:, :, 0], b[:, :, 1])
        np.testing.assert_allclose(a[:, :, 1], b[:, :, 0])

    def test_projection_matches_speed_argument(self, cifar_goodput):
        params = cifar_goodput.throughput_model.params
        direct = cifar_goodput.throughput_model.t_iter(1, 2, 256.0, speed=2.0)
        projected = project_throughput_params(params, 2.0)
        from repro.core import ThroughputModel

        via_params = ThroughputModel(projected).t_iter(1, 2, 256.0)
        np.testing.assert_allclose(direct, via_params)


def _typed_job(table, num_nodes, max_gpus=None, current=None, running=False):
    if max_gpus is None:
        max_gpus = table.shape[0] - 1
    if current is None:
        current = np.zeros(num_nodes, dtype=np.int64)
    return JobGAInfo(
        speedup_table=table,
        weight=1.0,
        max_gpus=max_gpus,
        current_alloc=np.asarray(current, dtype=np.int64),
        running=running,
    )


class TestTypedGA:
    @pytest.fixture
    def typed_table(self, cifar_goodput):
        return build_typed_speedup_table(cifar_goodput, 16, [1.0, 2.0])

    def test_repair_enforces_single_type_placements(
        self, mixed_cluster, typed_table, quick_ga
    ):
        jobs = [_typed_job(typed_table, 4)]
        problem = AllocationProblem(mixed_cluster, jobs)
        opt = GeneticOptimizer(problem, quick_ga)
        pop = np.array([[[2, 0, 2, 0]]], dtype=np.int64)  # straddles types
        repaired = opt._repair(pop)
        per_type = np.array(
            [repaired[0, 0, :2].sum(), repaired[0, 0, 2:].sum()]
        )
        assert (per_type > 0).sum() == 1

    def test_fitness_uses_placement_type(self, mixed_cluster, typed_table):
        jobs = [_typed_job(typed_table, 4)]
        problem = AllocationProblem(mixed_cluster, jobs)
        on_t4 = np.array([[[2, 0, 0, 0]]], dtype=np.int64)
        on_v100 = np.array([[[0, 0, 2, 0]]], dtype=np.int64)
        assert problem.speedups(on_v100)[0, 0] > problem.speedups(on_t4)[0, 0]
        assert problem.speedups(on_v100)[0, 0] == pytest.approx(
            typed_table[2, SINGLE_NODE, 1]
        )

    def test_ga_prefers_fast_type_under_light_load(
        self, mixed_cluster, typed_table
    ):
        jobs = [_typed_job(typed_table, 4, max_gpus=4)]
        problem = AllocationProblem(mixed_cluster, jobs)
        opt = GeneticOptimizer(
            problem, GAConfig(population_size=30, generations=30, seed=0)
        )
        best, _, _ = opt.run()
        # The single job should land entirely in the V100 group.
        assert best[0, :2].sum() == 0
        assert best[0, 2:].sum() > 0

    def test_single_type_fitness_matches_seed_tables(
        self, small_cluster, cifar_goodput
    ):
        """No GA fitness regression: 2-D and (K+1,2,1) tables agree."""
        seed_table = build_speedup_table(cifar_goodput, max_gpus=16)
        typed = build_typed_speedup_table(cifar_goodput, 16, [1.0])
        pop = np.zeros((3, 2, 4), dtype=np.int64)
        pop[0, 0, 0] = 4
        pop[1, 0, :2] = 2
        pop[2, 1, 1] = 1
        f2d = AllocationProblem(
            small_cluster, [_typed_job(seed_table, 4) for _ in range(2)]
        ).fitness(pop)
        f3d = AllocationProblem(
            small_cluster, [_typed_job(typed, 4) for _ in range(2)]
        ).fitness(pop)
        np.testing.assert_array_equal(f2d, f3d)

    def test_utility_normalized_by_effective_capacity(
        self, mixed_cluster, typed_table
    ):
        """UTILITY stays in the operator's [0, 1] band on typed fleets."""
        jobs = [_typed_job(typed_table, 4)]
        problem = AllocationProblem(mixed_cluster, jobs)
        # 8 t4 GPUs + 8 v100 GPUs at 2x = 24 t4-equivalents.
        assert problem.effective_gpus == pytest.approx(24.0)
        one_v100 = np.zeros((1, 4), dtype=np.int64)
        one_v100[0, 2] = 1
        assert problem.utility(one_v100) == pytest.approx(
            typed_table[1, SINGLE_NODE, 1] / 24.0
        )

    def test_population_resets_on_type_set_change(self, mixed_cluster):
        sched = PolluxSched(mixed_cluster, PolluxSchedConfig(ga=GAConfig(4, 2)))
        sched._population = np.zeros((4, 1, 4), dtype=np.int64)
        sched._population_job_ids = ["job-a"]
        # Same node count, different type layout -> reset.
        retyped = ClusterSpec.heterogeneous((("t4", 4, 4),))
        sched.set_cluster(retyped)
        assert sched._population is None
        assert sched._population_job_ids == []

    def test_population_kept_on_identical_cluster(self, mixed_cluster):
        sched = PolluxSched(mixed_cluster, PolluxSchedConfig(ga=GAConfig(4, 2)))
        sched._population = np.zeros((4, 1, 4), dtype=np.int64)
        sched._population_job_ids = ["job-a"]
        sched.set_cluster(
            ClusterSpec.heterogeneous((("t4", 2, 4), ("v100", 2, 4)))
        )
        assert sched._population is not None


class TestSpeedAwareAgent:
    def test_profile_entries_carry_speed(self, cifar_limits):
        agent = PolluxAgent(128.0, 0.1, cifar_limits)
        agent.record_iteration(1, 1, 128.0, 0.2, speed=1.0)
        agent.record_iteration(1, 1, 128.0, 0.1, speed=2.0)
        speeds = sorted(e.speed for e in agent.profile_entries())
        assert speeds == [1.0, 2.0]

    def test_rejects_bad_speed(self, cifar_limits):
        agent = PolluxAgent(128.0, 0.1, cifar_limits)
        with pytest.raises(ValueError):
            agent.record_iteration(1, 1, 128.0, 0.2, speed=0.0)


class TestSimJobTyped:
    def _job(self, num_nodes=4, node_speeds=None):
        trace = generate_trace(TraceConfig(num_jobs=1, seed=0))
        return SimJob(trace[0], num_nodes, node_speeds=node_speeds)

    def test_current_speed_is_min_occupied(self):
        job = self._job(node_speeds=np.array([1.0, 1.0, 2.0, 2.0]))
        assert job.current_speed == 1.0  # no GPUs -> reference
        job.allocation = np.array([0, 0, 2, 0])
        assert job.current_speed == 2.0
        job.allocation = np.array([1, 0, 2, 0])  # straddling: gated by slowest
        assert job.current_speed == 1.0

    def test_fast_type_trains_faster(self):
        slow = self._job(node_speeds=np.ones(4))
        fast = self._job(node_speeds=np.full(4, 2.0))
        for job in (slow, fast):
            job.allocation = np.array([2, 0, 0, 0])
        assert fast.throughput_true() > slow.throughput_true()
        assert fast.t_iter_true() < slow.t_iter_true()


class TestHeterogeneousSimulation:
    def _run(self, policy_factory, cluster, trace):
        sim = Simulator(
            cluster, policy_factory(cluster), trace, SimConfig(seed=11, max_hours=40.0)
        )
        return sim.run()

    def test_pollux_on_mixed_cluster_end_to_end(self):
        cluster, trace = generate_heterogeneous_workload(
            "mixed-t4-v100", num_jobs=6, duration_hours=0.5, seed=2
        )
        result = self._run(
            lambda c: PolluxPolicy(
                c, PolluxSchedConfig(ga=GAConfig(population_size=12, generations=6))
            ),
            cluster,
            trace,
        )
        assert result.num_unfinished == 0
        util = result.per_type_utilization()
        assert set(util) == {"t4", "v100"}
        # Pollux reports its speedup utility into the timeline.
        assert result.avg_speedup_utility() > 0.0

    def test_baseline_on_mixed_cluster_end_to_end(self):
        cluster, trace = generate_heterogeneous_workload(
            "mixed-t4-v100", num_jobs=6, duration_hours=0.5, seed=2
        )
        result = self._run(lambda c: TiresiasPolicy(), cluster, trace)
        assert result.num_unfinished == 0

    def test_autoscaler_grows_chosen_type(self):
        """The simulator grows the cluster with the request's node spec."""

        class GrowOnce(TiresiasPolicy):
            capabilities = PolicyCapabilities(
                autoscales=True, autoscale_interval=60.0
            )

            def decide_resize(self, now, state):
                return ClusterResizeRequest(
                    num_nodes=3, grow_node_spec=NodeSpec(4, GPU_TYPES["a100"])
                )

        cluster = ClusterSpec.heterogeneous((("t4", 2, 4),))
        trace = generate_trace(
            TraceConfig(num_jobs=2, duration_hours=0.2, seed=4, max_gpus=8)
        )
        sim = Simulator(cluster, GrowOnce(), trace, SimConfig(seed=3, max_hours=20.0))
        sim.run()
        assert sim.cluster.num_nodes == 3
        assert sim.cluster.nodes[-1].gpu_type.name == "a100"
        # Every job's speed vector tracks the resized cluster.
        for job in sim.jobs:
            assert job.node_speeds.shape == (3,)
            assert job.node_speeds[-1] == GPU_TYPES["a100"].compute_speed

    def test_shrink_restarts_only_jobs_losing_gpus(self):
        cluster = ClusterSpec.heterogeneous((("t4", 2, 4), ("v100", 2, 4)))
        trace = generate_trace(
            TraceConfig(num_jobs=2, duration_hours=0.1, seed=6, max_gpus=4)
        )
        sim = Simulator(
            cluster, TiresiasPolicy(), trace, SimConfig(seed=5, max_hours=10.0)
        )
        job_a, job_b = sim.jobs
        job_a.allocation = np.array([2, 0, 0, 0])  # survives the shrink
        job_b.allocation = np.array([0, 0, 0, 2])  # on a dropped node
        restarts_a = job_a.num_restarts
        restarts_b = job_b.num_restarts
        sim._resize(2)
        assert sim.cluster.num_nodes == 2
        assert job_a.num_restarts == restarts_a
        np.testing.assert_array_equal(job_a.allocation, [2, 0])
        # job_b lost everything: no restart counted for a now-empty job.
        assert job_b.num_gpus == 0
        assert job_b.num_restarts == restarts_b

    def test_pollux_autoscaling_policy_exposes_grow_spec(self):
        import repro.policy
        from repro.core import AutoscaleConfig

        policy = repro.policy.create(
            "pollux",
            cluster=ClusterSpec.heterogeneous((("t4", 2, 4),)),
            autoscale=AutoscaleConfig(min_nodes=1, max_nodes=4),
            grow_node_spec=NodeSpec(4, GPU_TYPES["v100"]),
        )
        assert policy.grow_node_spec.gpu_type.name == "v100"
        assert policy.capabilities.autoscales

    def test_utility_probe_sees_real_gpu_types(self, cifar_limits):
        """Autoscale probes evaluate the actual typed fleet, not a
        homogeneous reference cluster."""
        from repro.core import AutoscaleConfig, SurfaceCache, UtilityAutoscaler
        from repro.core.sched import SchedJobInfo

        agent = PolluxAgent(128.0, 0.1, cifar_limits)
        agent.record_iteration(1, 1, 128.0, 0.2)
        agent.record_iteration(1, 2, 256.0, 0.25)
        agent.record_grad_stats(var=8.0, sqr=1.0)
        job = SchedJobInfo("j", agent.report(), np.zeros(2, dtype=np.int64), 0.0)
        scaler = UtilityAutoscaler(
            AutoscaleConfig(min_nodes=1, max_nodes=4), SurfaceCache()
        )
        base = ClusterSpec.homogeneous(2, 4, GPU_TYPES["t4"])
        # Growing the typed fleet with a V100 node makes the probed cluster
        # mixed: its tables normalize by the slowest type, so the fast
        # node's placements score higher and the achievable utility beats
        # the homogeneous t4 reference probe of the same size.
        u_typed = scaler._utility_at(
            3, [job], base, grow_with=NodeSpec(4, GPU_TYPES["v100"])
        )
        u_ref = scaler._utility_at(3, [job], ClusterSpec.homogeneous(3, 4))
        assert u_typed > u_ref
        # A pure-t4 typed probe matches the homogeneous reference probe.
        assert scaler._utility_at(3, [job], base) == pytest.approx(u_ref)
