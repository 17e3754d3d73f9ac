"""Tests for the PolluxSched genetic algorithm (Sec. 4.2.1).

Fitness arithmetic and small hand-built operator cases; determinism, repair
invariants on random populations, warm starts, patience and search quality
are in ``tests/test_genetic_v2.py``.
"""

import numpy as np
import pytest

from repro.cluster import validate_allocation_matrix
from repro.core import (
    AllocationProblem,
    GAConfig,
    GeneticOptimizer,
    JobGAInfo,
    build_speedup_tables_batch,
)


def make_job(
    table: np.ndarray,
    num_nodes: int,
    weight: float = 1.0,
    max_gpus: int = None,
    current=None,
    running: bool = False,
) -> JobGAInfo:
    if max_gpus is None:
        max_gpus = table.shape[0] - 1
    if current is None:
        current = np.zeros(num_nodes, dtype=np.int64)
    return JobGAInfo(
        speedup_table=table,
        weight=weight,
        max_gpus=max_gpus,
        current_alloc=np.asarray(current, dtype=np.int64),
        running=running,
    )


@pytest.fixture
def speedup_table(cifar_goodput) -> np.ndarray:
    [table] = build_speedup_tables_batch([cifar_goodput], [16])
    return table


@pytest.fixture
def problem(small_cluster, speedup_table) -> AllocationProblem:
    jobs = [make_job(speedup_table, small_cluster.num_nodes) for _ in range(3)]
    return AllocationProblem(small_cluster, jobs)


class TestFitness:
    def test_empty_allocation_zero_fitness(self, problem):
        pop = np.zeros((1, 3, 4), dtype=np.int64)
        assert problem.fitness(pop)[0] == 0.0

    def test_single_gpu_each_gives_one_speedup(self, problem):
        pop = np.zeros((1, 3, 4), dtype=np.int64)
        for j in range(3):
            pop[0, j, j] = 1
        assert problem.fitness(pop)[0] == pytest.approx(1.0, rel=1e-6)

    def test_weighted_mean(self, small_cluster, speedup_table):
        jobs = [
            make_job(speedup_table, 4, weight=1.0),
            make_job(speedup_table, 4, weight=0.25),
        ]
        problem = AllocationProblem(small_cluster, jobs)
        pop = np.zeros((1, 2, 4), dtype=np.int64)
        pop[0, 0, 0] = 4  # speedup ~ table[4, single]
        pop[0, 1, 1] = 1  # speedup 1
        sp4 = speedup_table[4, 0]
        expected = (1.0 * sp4 + 0.25 * 1.0) / 1.25
        assert problem.fitness(pop)[0] == pytest.approx(expected, rel=1e-6)

    def test_restart_penalty_for_running_jobs(self, small_cluster, speedup_table):
        current = np.array([1, 0, 0, 0])
        jobs = [
            make_job(speedup_table, 4, current=current, running=True),
        ]
        problem = AllocationProblem(
            small_cluster, jobs, restart_penalty=0.25
        )
        unchanged = current[None, None, :]
        changed = np.array([[[0, 1, 0, 0]]])
        f_same = problem.fitness(unchanged)[0]
        f_diff = problem.fitness(changed)[0]
        assert f_same == pytest.approx(1.0, rel=1e-6)
        assert f_diff == pytest.approx(1.0 - 0.25, rel=1e-6)

    def test_no_penalty_for_pending_jobs(self, small_cluster, speedup_table):
        jobs = [make_job(speedup_table, 4, running=False)]
        problem = AllocationProblem(small_cluster, jobs, restart_penalty=0.25)
        start = np.array([[[1, 0, 0, 0]]])
        assert problem.fitness(start)[0] == pytest.approx(1.0, rel=1e-6)

    def test_utility(self, problem, small_cluster):
        matrix = np.zeros((3, 4), dtype=np.int64)
        matrix[0, 0] = 1
        util = problem.utility(matrix)
        assert util == pytest.approx(1.0 / small_cluster.total_gpus)


class TestOperators:
    def test_repair_enforces_capacity(self, problem, quick_ga, small_cluster):
        opt = GeneticOptimizer(problem, quick_ga)
        pop = np.full((8, 3, 4), 4, dtype=np.int64)  # grossly over capacity
        opt._repair_caps_capacity(pop)  # in place; the fused step alone
        # Every node was 8 over: exactly full now, nothing over-removed.
        np.testing.assert_array_equal(pop.sum(axis=1), np.full((8, 4), 4))
        for member in opt._repair(pop):
            assert not validate_allocation_matrix(member, small_cluster)

    def test_repair_enforces_job_caps(self, small_cluster, speedup_table, quick_ga):
        jobs = [make_job(speedup_table, 4, max_gpus=2)]
        problem = AllocationProblem(small_cluster, jobs)
        opt = GeneticOptimizer(problem, quick_ga)
        pop = np.array([[[4, 4, 0, 0]]], dtype=np.int64)  # under capacity
        opt._repair_caps_capacity(pop)
        assert pop[0, 0].sum() == 2  # the excess over the cap, no more
        assert (pop >= 0).all() and (pop[0, 0, 2:] == 0).all()

    def test_repair_cap_and_capacity_overlap(
        self, small_cluster, speedup_table, quick_ga
    ):
        # Job 0 is over its cap *and* sits in an over-capacity column: the
        # row removal lands first, the column is then redrawn against what
        # is left, and neither constraint is over-corrected.
        jobs = [
            make_job(speedup_table, 4, max_gpus=3),
            make_job(speedup_table, 4),
        ]
        problem = AllocationProblem(small_cluster, jobs)
        for seed in range(20):
            opt = GeneticOptimizer(problem, GAConfig(seed=seed))
            pop = np.array([[[4, 2, 0, 0], [3, 0, 0, 0]]], dtype=np.int64)
            opt._repair_caps_capacity(pop)
            assert pop[0, 0].sum() <= 3
            # Node 0 ends exactly full: the redraw takes the excess that is
            # left after the row removal, not the excess there was before.
            assert pop[0, :, 0].sum() == 4
            assert (pop >= 0).all() and (pop[0, :, 2:] == 0).all()

    def test_interference_repair(self, small_cluster, speedup_table, quick_ga):
        jobs = [make_job(speedup_table, 4) for _ in range(2)]
        problem = AllocationProblem(
            small_cluster, jobs, forbid_interference=True
        )
        opt = GeneticOptimizer(problem, quick_ga)
        # Two distributed jobs both on nodes 0 and 1.
        pop = np.array(
            [[[2, 2, 0, 0], [2, 2, 0, 0]]], dtype=np.int64
        )
        repaired = opt._repair(pop)
        problems = validate_allocation_matrix(
            repaired[0], small_cluster, forbid_interference=True
        )
        assert not problems

    def test_interference_allowed_when_disabled(
        self, small_cluster, speedup_table, quick_ga
    ):
        jobs = [make_job(speedup_table, 4) for _ in range(2)]
        problem = AllocationProblem(
            small_cluster, jobs, forbid_interference=False
        )
        opt = GeneticOptimizer(problem, quick_ga)
        pop = np.array([[[2, 2, 0, 0], [2, 2, 0, 0]]], dtype=np.int64)
        repaired = opt._repair(pop)
        np.testing.assert_array_equal(repaired, pop)

    def test_mutation_respects_value_range(self, problem, quick_ga):
        opt = GeneticOptimizer(problem, quick_ga)
        pop = np.zeros((16, 3, 4), dtype=np.int64)
        mutated = opt._mutate(pop)
        assert mutated.min() >= 0
        assert mutated.max() <= 4

    def test_crossover_mixes_rows(self, problem):
        opt = GeneticOptimizer(problem, GAConfig(population_size=4, seed=1))
        pop = np.zeros((4, 3, 4), dtype=np.int64)
        pop[0] = 1
        pop[1] = 2
        fitness = np.array([1.0, 1.0, 0.0, 0.0])
        offspring = opt._crossover(pop, fitness)
        # Every offspring row must come wholesale from one parent.
        for member in offspring:
            for row in member:
                assert len(set(row.tolist())) == 1


class TestOptimization:
    def test_prefers_high_weight_job(self, small_cluster, speedup_table):
        jobs = [
            make_job(speedup_table, 4, weight=1.0),
            make_job(speedup_table, 4, weight=0.01),
        ]
        problem = AllocationProblem(small_cluster, jobs)
        opt = GeneticOptimizer(
            problem, GAConfig(population_size=30, generations=30, seed=0)
        )
        best, _, _ = opt.run()
        assert best[0].sum() >= best[1].sum()
