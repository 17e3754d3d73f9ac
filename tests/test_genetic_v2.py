"""Tests for the population-vectorized GA engine and its wiring.

Determinism under a fixed seed, every repair invariant on random
populations, warm-start behavior, plateau early-exit, search quality
against a brute-force optimum, and stream identity of the incremental
repair against the full-rescan bodies kept here as the oracle
(``RescanOptimizerV2``).  Fitness arithmetic and the small hand-built
operator cases live in ``tests/test_genetic.py``.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, validate_allocation_matrix
from repro.core import (
    AgentReport,
    AllocationProblem,
    GAConfig,
    GeneticOptimizer,
    JobGAInfo,
    PolluxSched,
    PolluxSchedConfig,
    SchedJobInfo,
)
from repro.core.genetic import _SPARSE_MIN_WIDTH, _remove_on_entries
from repro.workload import MODEL_ZOO


def synthetic_table(max_gpus: int, scale: float) -> np.ndarray:
    ks = np.arange(max_gpus + 1, dtype=float)
    table = np.stack([np.power(ks, scale), np.power(ks, scale * 0.9)], axis=1)
    table[0] = 0.0
    if max_gpus >= 1:
        table[1, 1] = 0.0
    return table


def make_problem(
    cluster: ClusterSpec,
    num_jobs: int = 3,
    max_gpus: int = None,
    forbid_interference: bool = True,
) -> AllocationProblem:
    if max_gpus is None:
        max_gpus = cluster.total_gpus
    jobs = [
        JobGAInfo(
            speedup_table=synthetic_table(max_gpus, 0.7),
            weight=1.0,
            max_gpus=max_gpus,
            current_alloc=np.zeros(cluster.num_nodes, dtype=np.int64),
            running=False,
        )
        for _ in range(num_jobs)
    ]
    return AllocationProblem(
        cluster, jobs, forbid_interference=forbid_interference
    )


def make_report(model_name="resnet18-cifar10", phi=1000.0, max_gpus_seen=8):
    profile = MODEL_ZOO[model_name]
    return AgentReport(
        throughput_params=profile.theta_true,
        grad_noise_scale=phi,
        init_batch_size=float(profile.init_batch_size),
        limits=profile.limits,
        max_gpus_seen=max_gpus_seen,
    )


def make_sched_job(job_id, num_nodes=4, phi=1000.0, alloc=None):
    if alloc is None:
        alloc = np.zeros(num_nodes, dtype=np.int64)
    return SchedJobInfo(
        job_id=job_id, report=make_report(phi=phi), current_alloc=alloc,
        gputime=0.0,
    )


def tiny_problem(incumbent: bool, forbid: bool) -> AllocationProblem:
    """2 jobs x 2 nodes x 2 GPUs a node, with a split optimum."""
    cluster = ClusterSpec.homogeneous(2, 2)
    current = np.array([1, 1] if incumbent else [0, 0], dtype=np.int64)
    jobs = [
        JobGAInfo(synthetic_table(4, 0.7), 1.0, 4, current, incumbent),
        JobGAInfo(
            synthetic_table(4, 0.5), 0.8, 4, np.zeros(2, dtype=np.int64), False
        ),
    ]
    return AllocationProblem(
        cluster, jobs, restart_penalty=0.25, forbid_interference=forbid
    )


def feasible_matrices(problem: AllocationProblem) -> np.ndarray:
    """Every feasible (J, N) matrix of a tiny problem, stacked (C, J, N).

    Feasibility is judged by ``validate_allocation_matrix`` plus the job
    caps, not by the GA's repair, so the enumerator shares no code with
    what it checks.
    """
    shape = (problem.num_jobs, problem.num_nodes)
    cells = [range(int(cap) + 1) for cap in np.tile(problem.capacities, shape[0])]
    every = np.array(list(itertools.product(*cells)), dtype=np.int64)
    every = every.reshape(-1, *shape)
    keep = [
        not validate_allocation_matrix(
            matrix, problem.cluster, forbid_interference=problem.forbid_interference
        )
        and bool((matrix.sum(axis=1) <= problem.max_gpus).all())
        for matrix in every
    ]
    return every[np.array(keep)]


class TestDeterminism:
    def test_same_seed_same_run(self, small_cluster):
        problem = make_problem(small_cluster, num_jobs=4)
        cfg = GAConfig(population_size=16, generations=10, seed=42)
        best1, fit1, pop1 = GeneticOptimizer(problem, cfg).run()
        best2, fit2, pop2 = GeneticOptimizer(problem, cfg).run()
        np.testing.assert_array_equal(best1, best2)
        np.testing.assert_array_equal(pop1, pop2)
        assert fit1 == fit2

    def test_different_seed_explores_differently(self, small_cluster):
        problem = make_problem(small_cluster, num_jobs=4)
        pops = [
            GeneticOptimizer(
                problem, GAConfig(population_size=16, generations=10, seed=s)
            ).run()[2]
            for s in (0, 1)
        ]
        assert not np.array_equal(pops[0], pops[1])

    def test_sched_level_determinism(self, small_cluster, quick_ga):
        def run():
            sched = PolluxSched(
                small_cluster, PolluxSchedConfig(ga=quick_ga), seed=3
            )
            jobs = [make_sched_job(f"job-{i}") for i in range(4)]
            return sched.optimize(jobs)

        a, b = run(), run()
        assert set(a) == set(b)
        for jid in a:
            np.testing.assert_array_equal(a[jid], b[jid])


class TestRepairInvariants:
    """Every constraint holds after repair, for random populations."""

    def _random_problem_and_pop(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(1, 7))
        gpus = int(rng.integers(1, 5))
        cluster = ClusterSpec.homogeneous(num_nodes, gpus)
        num_jobs = int(rng.integers(1, 7))
        jobs = []
        for _ in range(num_jobs):
            cap = int(rng.integers(1, cluster.total_gpus + 1))
            jobs.append(
                JobGAInfo(
                    speedup_table=synthetic_table(cap, 0.8),
                    weight=1.0,
                    max_gpus=cap,
                    current_alloc=np.zeros(num_nodes, dtype=np.int64),
                    running=False,
                )
            )
        forbid = bool(rng.integers(0, 2))
        problem = AllocationProblem(
            cluster, jobs, forbid_interference=forbid
        )
        pop = rng.integers(
            0, 3 * gpus + 1, size=(8, num_jobs, num_nodes)
        ).astype(np.int64)
        return cluster, problem, pop, forbid

    @pytest.mark.parametrize("seed", range(25))
    def test_repair_satisfies_all_constraints(self, seed):
        cluster, problem, pop, forbid = self._random_problem_and_pop(seed)
        opt = GeneticOptimizer(
            problem, GAConfig(population_size=8, generations=1, seed=seed)
        )
        repaired = opt._repair(pop)
        for member in repaired:
            assert (
                validate_allocation_matrix(
                    member, cluster, forbid_interference=forbid
                )
                == []
            )
        for j, job in enumerate(problem.jobs):
            assert (repaired[:, j].sum(axis=-1) <= job.max_gpus).all()
        # Repair only removes GPUs, never adds.
        assert np.all(repaired <= pop)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        members=st.integers(1, 4),
        num_jobs=st.integers(1, 140),
        num_nodes=st.integers(1, 80),
        gpus=st.integers(1, 8),
        density=st.sampled_from([0.02, 0.1, 0.5]),
        two_type=st.booleans(),
        forbid=st.booleans(),
    )
    def test_repair_postconditions(
        self, seed, members, num_jobs, num_nodes, gpus, density, two_type, forbid
    ):
        """Every repaired member is a valid single-type allocation within
        its job caps, the support the wide repair returns is the result's
        non-zero cells, and repairing it again changes nothing and draws
        nothing: each round re-repairs its warm seed population, so one
        draw there would shift every later stream."""
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, num_jobs, num_nodes, gpus, two_type, forbid)
        pop = random_population(rng, members, problem, density, 2 * gpus)
        opt = GeneticOptimizer(
            problem,
            GAConfig(population_size=4, generations=1),
            rng=np.random.default_rng(seed),
        )
        repaired = pop.copy()
        support = opt._repair_in_place(repaired)
        if max(num_jobs, num_nodes) < _SPARSE_MIN_WIDTH:
            assert support is None
        else:
            np.testing.assert_array_equal(support, np.flatnonzero(repaired))
        assert (repaired <= pop).all()
        for member in repaired:
            assert validate_allocation_matrix(
                member, problem.cluster, forbid_interference=forbid
            ) == []
            assert (member.sum(axis=1) <= problem.max_gpus).all()
            types_held = (member @ problem.type_masks.T > 0).sum(axis=1)
            assert (types_held <= 1).all()
        state = opt.rng.bit_generator.state
        np.testing.assert_array_equal(opt._repair(repaired), repaired)
        assert opt.rng.bit_generator.state == state

    def test_repair_preserves_feasible(self, small_cluster, quick_ga):
        problem = make_problem(small_cluster, num_jobs=3)
        opt = GeneticOptimizer(problem, quick_ga)
        pop = np.zeros((4, 3, 4), dtype=np.int64)
        pop[:, 0, 0] = 2
        pop[:, 1, 1] = 2
        np.testing.assert_array_equal(opt._repair(pop), pop)

    def test_type_group_repair(self):
        cluster = ClusterSpec.heterogeneous((("v100", 2, 4), ("t4", 2, 4)))
        typed = np.repeat(synthetic_table(8, 0.7)[:, :, None], 2, axis=2)
        jobs = [
            JobGAInfo(
                speedup_table=typed,
                weight=1.0,
                max_gpus=8,
                current_alloc=np.zeros(4, dtype=np.int64),
                running=False,
            )
        ]
        problem = AllocationProblem(cluster, jobs)
        opt = GeneticOptimizer(
            problem, GAConfig(population_size=4, generations=1, seed=0)
        )
        pop = np.array([[[2, 0, 1, 0]]], dtype=np.int64)  # spans both types
        repaired = opt._repair(pop)
        type_ids = cluster.node_type_ids()
        occupied_types = {int(t) for t, a in zip(type_ids, repaired[0, 0]) if a}
        assert len(occupied_types) == 1

    def test_interference_single_pass_resolves_all(self):
        # A dense all-distributed population: one repair pass must leave at
        # most one distributed job per node.
        cluster = ClusterSpec.homogeneous(6, 4)
        problem = make_problem(cluster, num_jobs=6)
        opt = GeneticOptimizer(
            problem, GAConfig(population_size=4, generations=1, seed=1)
        )
        pop = np.ones((4, 6, 6), dtype=np.int64)  # everyone everywhere
        pop = opt._repair(pop)
        for member in pop:
            assert (
                validate_allocation_matrix(
                    member, cluster, forbid_interference=True
                )
                == []
            )

    def test_batched_remove_exact_and_bounded(self):
        problem = make_problem(ClusterSpec.homogeneous(4, 4))
        opt = GeneticOptimizer(
            problem, GAConfig(population_size=4, generations=1, seed=0)
        )
        rng = np.random.default_rng(7)
        for _ in range(50):
            counts = rng.integers(0, 9, size=(12, 5))
            counts[counts.sum(axis=1) == 0, 0] = 1
            excess = np.array(
                [int(rng.integers(1, c.sum() + 1)) for c in counts]
            )
            removal = opt._batched_remove(counts.astype(np.int64), excess)
            assert np.all(removal >= 0)
            assert np.all(removal <= counts)
            np.testing.assert_array_equal(removal.sum(axis=1), excess)


class TestWarmStart:
    def test_population_sorted_by_fitness(self, small_cluster):
        problem = make_problem(small_cluster, num_jobs=3)
        _, _, pop = GeneticOptimizer(
            problem, GAConfig(population_size=12, generations=6, seed=0)
        ).run()
        fitness = problem.fitness(pop)
        assert np.all(np.diff(fitness) <= 1e-12)

    def test_rerun_with_population_never_regresses(self, small_cluster):
        problem = make_problem(small_cluster, num_jobs=3)
        cfg = GAConfig(population_size=12, generations=6, seed=5)
        _, fit1, pop = GeneticOptimizer(problem, cfg).run()
        _, fit2, _ = GeneticOptimizer(problem, cfg).run(initial=pop)
        assert fit2 >= fit1 - 1e-9

    def test_warm_start_equivalence_unchanged_jobs(self, small_cluster, quick_ga):
        """Round 2 on an unchanged job set starts from round 1's winner:
        its allocations are at least as good, and the previous best is a
        member of the seed population."""
        sched = PolluxSched(
            small_cluster, PolluxSchedConfig(ga=quick_ga), seed=0
        )
        jobs = [make_sched_job(f"job-{i}") for i in range(3)]
        first = sched.optimize(jobs)
        best_matrix = np.stack([first[f"job-{i}"] for i in range(3)])
        np.testing.assert_array_equal(sched._population[0], best_matrix)
        util1 = sched.last_utility
        # Jobs keep the allocations they were just given (running now).
        jobs2 = [
            make_sched_job(f"job-{i}", alloc=first[f"job-{i}"])
            for i in range(3)
        ]
        sched.optimize(jobs2)
        assert sched.last_utility >= util1 - 1e-9

    def test_seed_population_includes_bootstrap_best(self, small_cluster):
        problem = make_problem(small_cluster, num_jobs=2)
        cfg = GAConfig(population_size=8, generations=2, seed=0)
        opt = GeneticOptimizer(problem, cfg)
        prev_best = np.zeros((2, 4), dtype=np.int64)
        prev_best[0, 0] = 2
        prev_best[1, 1] = 2
        initial = np.repeat(prev_best[None], 3, axis=0)
        pop = opt.seed_population(initial)
        assert pop.shape == (8, 2, 4)
        # Member 0 is the current allocation, member 1 the bootstrap best
        # (both feasible here, so repair leaves them unchanged).
        np.testing.assert_array_equal(pop[0], problem.current)
        np.testing.assert_array_equal(pop[1], prev_best)

    def test_population_survives_resize(self, small_cluster, quick_ga):
        sched = PolluxSched(
            small_cluster, PolluxSchedConfig(ga=quick_ga), seed=0
        )
        jobs = [make_sched_job(f"job-{i}") for i in range(3)]
        sched.optimize(jobs)
        old_pop = sched._population.copy()
        sched.set_cluster(ClusterSpec.homogeneous(6, 4))
        assert sched._population.shape == (old_pop.shape[0], 3, 6)
        np.testing.assert_array_equal(sched._population[:, :, :4], old_pop)
        # And the next round still optimizes fine.
        allocations = sched.optimize(
            [make_sched_job(f"job-{i}", num_nodes=6) for i in range(3)]
        )
        assert all(len(a) == 6 for a in allocations.values())


class TestPatience:
    def test_early_exit_stops_after_plateau(self, small_cluster):
        problem = make_problem(small_cluster, num_jobs=2)
        counting = []

        class Counting(GeneticOptimizer):
            def _repair_in_place(self, pop):
                counting.append(1)
                return super()._repair_in_place(pop)

        cfg = GAConfig(population_size=16, generations=500, seed=0, patience=4)
        best, fitness, _ = Counting(problem, cfg).run()
        # One repair per generation plus one for the seed population: a
        # 500-generation budget must exit far earlier on this tiny problem.
        assert len(counting) < 100
        assert fitness > 0

    def test_patience_zero_runs_all_generations(self, small_cluster):
        problem = make_problem(small_cluster, num_jobs=2)
        counting = []

        class Counting(GeneticOptimizer):
            def _repair_in_place(self, pop):
                counting.append(1)
                return super()._repair_in_place(pop)

        cfg = GAConfig(population_size=8, generations=30, seed=0, patience=0)
        Counting(problem, cfg).run()
        # Seed repair + two per generation (mutants, then offspring).
        assert len(counting) == 61

    def test_ga_config_validates_patience(self):
        GAConfig(patience=3)
        with pytest.raises(ValueError):
            GAConfig(patience=-1)


class TestQuality:
    """The engine must solve the allocation problem well."""

    def test_allocates_everything_useful(self, small_cluster):
        problem = make_problem(small_cluster, num_jobs=3, max_gpus=16)
        best, fitness, _ = GeneticOptimizer(
            problem, GAConfig(population_size=30, generations=30, seed=0)
        ).run()
        assert not validate_allocation_matrix(
            best, small_cluster, forbid_interference=True
        )
        assert (best.sum(axis=1) > 0).all()
        assert fitness > 1.0

    def test_respects_exploration_cap(self, small_cluster):
        problem = make_problem(small_cluster, num_jobs=1, max_gpus=2)
        best, _, _ = GeneticOptimizer(
            problem, GAConfig(population_size=20, generations=20, seed=0)
        ).run()
        assert best[0].sum() <= 2

    def test_empty_problem(self, small_cluster, quick_ga):
        problem = AllocationProblem(small_cluster, [])
        best, fitness, pop = GeneticOptimizer(problem, quick_ga).run()
        assert best.shape == (0, 4)
        assert fitness == 0.0

    @pytest.mark.parametrize("forbid", [True, False])
    @pytest.mark.parametrize("incumbent", [False, True])
    def test_reaches_brute_force_optimum(self, incumbent, forbid):
        """The GA against the exact optimum of a problem small enough to
        enumerate: 2 jobs x 2 nodes x 2 GPUs a node, 81 candidate matrices.

        Measured before pinning, at this budget: the optimum itself on 200
        of 200 seeds in all four scenarios (on a table pair whose optimum
        gives one job everything, 0.986 of it at worst, 1-4 seeds of 200).
        The incumbent is a running distributed job, so keeping it is free
        and moving it costs RESTART_PENALTY; with the interference rule on,
        the unconstrained optimum (both jobs distributed) is infeasible.
        """
        problem = tiny_problem(incumbent, forbid)
        candidates = feasible_matrices(problem)
        assert 30 <= len(candidates) <= 81
        optimum = float(problem.fitness(candidates).max())
        assert optimum > 1.0
        for seed in range(5):
            config = GAConfig(population_size=24, generations=20, seed=seed)
            best, fitness, _ = GeneticOptimizer(problem, config).run()
            assert (candidates == best).all(axis=(1, 2)).any(), best
            assert fitness >= optimum * (1.0 - 1e-9), (seed, fitness, optimum)


class TestPhaseTimings:
    def test_optimizer_phase_ms(self, small_cluster, quick_ga):
        problem = make_problem(small_cluster)
        opt = GeneticOptimizer(problem, quick_ga)
        opt.run()
        assert set(opt.phase_ms) == {
            "repair_ms", "fitness_ms", "select_ms", "mutate_ms",
        }
        assert all(v >= 0 for v in opt.phase_ms.values())
        assert opt.phase_ms["repair_ms"] > 0

    def test_sched_phase_timings(self, small_cluster, quick_ga):
        sched = PolluxSched(small_cluster, PolluxSchedConfig(ga=quick_ga), seed=0)
        sched.optimize([make_sched_job("a")])
        timings = sched.last_phase_timings
        for key in (
            "table_ms", "repair_ms", "fitness_ms", "select_ms", "total_ms",
        ):
            assert key in timings, key
        assert timings["total_ms"] > 0


class RescanOptimizerV2(GeneticOptimizer):
    """The oracle for stream identity: the engine with the repair bodies it
    had before they were made incremental.

    ``_repair_caps_capacity`` gathers every violating row and column at
    full width into one dense counts matrix, ``_batched_remove`` sorts every
    row at full width and ``_repair_interference`` ignores any support it is
    handed and re-reduces the whole ``(P, J, N)`` tensor on every pass.
    ``_crossover`` selects between two gathered parent populations with
    ``np.where``, and copies the result into ``out`` when given.  No repair
    returns a support, so the oracle's fitness is the dense one.  The
    shipped methods must return the same arrays *and* leave the generator
    in the same state.
    """

    def _crossover(self, population, fitness, out=None):
        count = population.shape[0]
        parents_a = population[self._tournament(fitness, count)]
        parents_b = population[self._tournament(fitness, count)]
        take_a = self.rng.random((count, self.problem.num_jobs, 1)) < 0.5
        offspring = np.where(take_a, parents_a, parents_b)
        if out is None:
            return offspring
        np.copyto(out, offspring)
        return out

    def _repair_caps_capacity(self, pop):
        num_jobs = self.problem.num_jobs
        num_nodes = self.problem.num_nodes
        row_totals = pop.sum(axis=-1)  # (P, J)
        row_excess = row_totals - self.problem.max_gpus[None, :]
        row_p, row_j = np.where(row_excess > 0)
        col_totals = pop.sum(axis=1)  # (P, N)
        col_excess = col_totals - self.problem.capacities[None, :]
        col_p, col_n = np.where(col_excess > 0)
        n_rows, n_cols = len(row_p), len(col_p)
        if n_rows == 0 and n_cols == 0:
            return

        width = max(num_nodes, num_jobs)
        counts = np.zeros((n_rows + n_cols, width), dtype=np.int64)
        if n_rows:
            counts[:n_rows, :num_nodes] = pop[row_p, row_j]
        if n_cols:
            counts[n_rows:, :num_jobs] = pop[col_p, :, col_n]
        excess = np.concatenate(
            [row_excess[row_p, row_j], col_excess[col_p, col_n]]
        )
        removal = self._batched_remove(counts, excess)

        if n_rows:
            pop[row_p, row_j] -= removal[:n_rows, :num_nodes]
        if n_cols:
            cols = pop[col_p, :, col_n]  # (V, J), post-row-removal
            take = np.minimum(removal[n_rows:, :num_jobs], cols)
            need = np.maximum(
                cols.sum(axis=1) - self.problem.capacities[col_n], 0
            )
            redo = np.where(take.sum(axis=1) != need)[0]
            if len(redo):
                take[redo] = 0
                live = redo[need[redo] > 0]
                if len(live):
                    take[live] = self._batched_remove(cols[live], need[live])
            pop[col_p, :, col_n] = cols - take

    def _batched_remove(self, counts, excess):
        c = counts.astype(float)
        total = c.sum(axis=1)
        ideal = np.minimum(excess[:, None] * (c / total[:, None]), c)
        base = np.floor(ideal)
        frac = ideal - base
        base = base.astype(np.int64)
        extra = excess - base.sum(axis=1)  # (V,)
        keys = np.where(frac > 0.0, self.rng.random(c.shape), -1.0)
        order = np.argsort(-keys, axis=1, kind="stable")
        ranks = np.empty_like(order)
        v_idx = np.arange(order.shape[0])[:, None]
        ranks[v_idx, order] = np.arange(order.shape[1])[None, :]
        removal = base + ((ranks < extra[:, None]) & (frac > 0.0))
        deficit = excess - removal.sum(axis=1)
        while np.any(deficit > 0):
            rows = np.where(deficit > 0)[0]
            headroom = counts[rows] - removal[rows]
            pick = np.argmax(headroom, axis=1)
            removal[rows, pick] += 1
            deficit[rows] -= 1
        return removal

    def _repair_interference(self, pop, support=None):
        num_members, _, num_nodes = pop.shape
        member_idx = np.arange(num_members)
        for _ in range(num_nodes):
            present = pop > 0
            dist = present.sum(axis=-1) >= 2  # (P, J)
            dist_present = present & dist[:, :, None]  # (P, J, N)
            violating = dist_present.sum(axis=1) >= 2  # (P, N)
            if not violating.any():
                return
            first_n = np.argmax(violating, axis=1)  # (P,)
            rows = np.where(violating[member_idx, first_n])[0]
            candidates = dist_present[rows, :, first_n[rows]]  # (V, J)
            keys = np.where(candidates, self.rng.random(candidates.shape), -1.0)
            keep = np.argmax(keys, axis=1)
            drop = candidates
            drop[np.arange(len(rows)), keep] = False
            cols = pop[rows, :, first_n[rows]]
            cols[drop] = 0
            pop[rows, :, first_n[rows]] = cols


class CoarseRng:
    """Generator stand-in whose uniforms sit on a grid of eight values, so
    the random keys tie all the time and the stable tie-break decides."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, shape):
        return np.floor(self._rng.random(shape) * 8.0) / 8.0


def random_problem(rng, num_jobs, num_nodes, gpus, two_type, forbid, incumbents=False):
    """Jobs with zero current allocations, or with ``incumbents``: running
    and idle jobs on current allocations that need not be feasible, weights
    that differ, and a restart penalty.  Typed tables differ by type."""
    if two_type and num_nodes >= 2:
        first = num_nodes // 2
        cluster = ClusterSpec.heterogeneous(
            (("v100", first, gpus), ("t4", num_nodes - first, gpus))
        )
    else:
        cluster = ClusterSpec.homogeneous(num_nodes, gpus)
    jobs = []
    for _ in range(num_jobs):
        cap = int(rng.integers(1, cluster.total_gpus + 1))
        table = synthetic_table(cap, 0.8)
        if cluster.num_types > 1:
            table = np.stack([table, 0.7 * table], axis=2)
        current, weight, running = np.zeros(num_nodes, dtype=np.int64), 1.0, False
        if incumbents:
            current = rng.integers(1, gpus + 1, size=num_nodes)
            current *= rng.random(num_nodes) < 0.4
            weight = float(rng.uniform(0.1, 2.0))
            running = bool(rng.integers(0, 2))
        jobs.append(JobGAInfo(table, weight, cap, current, running))
    penalty = float(rng.uniform(0.05, 0.5)) if incumbents else 0.25
    return AllocationProblem(
        cluster, jobs, restart_penalty=penalty, forbid_interference=forbid
    )


def random_population(rng, members, problem, density, top):
    shape = (members, problem.num_jobs, problem.num_nodes)
    values = rng.integers(1, top + 1, size=shape)
    return (values * (rng.random(shape) < density)).astype(np.int64)


def engine_pair(problem, config=None, seed=0):
    config = config or GAConfig(population_size=4, generations=1)
    return (
        RescanOptimizerV2(problem, config, rng=np.random.default_rng(seed)),
        GeneticOptimizer(problem, config, rng=np.random.default_rng(seed)),
    )


def assert_same_repair(problem, pop, seed=0):
    oracle, shipped = engine_pair(problem, seed=seed)
    np.testing.assert_array_equal(shipped._repair(pop), oracle._repair(pop))
    assert shipped.rng.bit_generator.state == oracle.rng.bit_generator.state


class TestRepairStreamIdentity:
    """Incremental interference repair and support-only removal return the
    arrays, and consume the random numbers, of the full rescans."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        members=st.integers(1, 6),
        # Both sides of the switch: members of a few cells and of
        # thousands, rows a few columns wide and rows just under and over
        # _SPARSE_MIN_WIDTH.
        num_jobs=st.one_of(
            st.integers(1, 12),
            st.integers(_SPARSE_MIN_WIDTH - 4, _SPARSE_MIN_WIDTH + 26),
        ),
        num_nodes=st.one_of(
            st.integers(1, 8),
            st.integers(_SPARSE_MIN_WIDTH - 4, _SPARSE_MIN_WIDTH + 6),
        ),
        gpus=st.integers(1, 8),
        density=st.sampled_from([0.02, 0.05, 0.15, 0.4, 1.0]),
        two_type=st.booleans(),
        forbid=st.booleans(),
    )
    def test_repair_matches_full_rescan(
        self, seed, members, num_jobs, num_nodes, gpus, density, two_type, forbid
    ):
        rng = np.random.default_rng(seed)
        problem = random_problem(rng, num_jobs, num_nodes, gpus, two_type, forbid)
        pop = random_population(rng, members, problem, density, 2 * gpus)
        assert_same_repair(problem, pop, seed=seed)

    @pytest.mark.parametrize(
        "width", [5, _SPARSE_MIN_WIDTH - 1, _SPARSE_MIN_WIDTH, 200]
    )
    @pytest.mark.parametrize("coarse", [False, True])
    def test_batched_remove_matches_full_width(self, width, coarse):
        # The dense form, and the same rows packed to their non-zero cells
        # with the keys gathered from the same draws, against the oracle.
        problem = make_problem(ClusterSpec.homogeneous(4, 4))
        data = np.random.default_rng(width)
        for trial in range(20):
            counts = data.integers(1, 9, size=(30, width))
            counts *= data.random(counts.shape) < data.choice([0.03, 0.3, 1.0])
            counts[counts.sum(axis=1) == 0, data.integers(width)] = 1
            excess = data.integers(1, counts.sum(axis=1) + 1)
            oracle, shipped = engine_pair(problem)
            # ``draws`` is the block the oracle's first call draws.
            if coarse:
                oracle.rng, shipped.rng = CoarseRng(trial), CoarseRng(trial)
                draws = CoarseRng(trial).random(counts.shape)
            else:
                draws = np.random.default_rng(0).random(counts.shape)
            got = shipped._batched_remove(counts, excess)
            want = oracle._batched_remove(counts, excess)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got.sum(axis=1), excess)
            np.testing.assert_array_equal(
                shipped.rng.random(3), oracle.rng.random(3)
            )
            vec, col = np.nonzero(counts)
            packed = np.zeros_like(counts)
            packed[vec, col] = _remove_on_entries(
                vec, counts[vec, col], draws[vec, col], excess
            )
            np.testing.assert_array_equal(packed, want)

    def test_interference_with_tied_keys(self):
        # Ties between candidates' keys go to the lowest job index, in
        # the incremental form as in the rescan.
        cluster = ClusterSpec.homogeneous(6, 4)
        problem = make_problem(cluster, num_jobs=7)
        data = np.random.default_rng(3)
        for trial in range(20):
            pop = random_population(data, 5, problem, 0.6, 2)
            oracle, shipped = engine_pair(problem)
            oracle.rng, shipped.rng = CoarseRng(trial), CoarseRng(trial)
            want, got = pop.copy(), pop.copy()
            oracle._repair_interference(want)
            shipped._repair_interference(got)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(
                shipped.rng.random(3), oracle.rng.random(3)
            )

    @staticmethod
    def _round_shape(num_jobs, num_nodes):
        # A repaired population, mutated, is what every generation hands to
        # repair.
        data = np.random.default_rng(11)
        problem = random_problem(data, num_jobs, num_nodes, 8, False, True)
        oracle, shipped = engine_pair(problem)
        feasible = shipped._repair(random_population(data, 16, problem, 0.02, 8))
        mutated = shipped._mutate(feasible)
        assert mutated.shape == (16, num_jobs, num_nodes)
        assert_same_repair(problem, mutated, seed=5)
        for member in shipped._repair(mutated):
            assert validate_allocation_matrix(
                member, problem.cluster, forbid_interference=True
            ) == []

    def test_dense_round_shape(self):
        # (16, 256, 64): the 512-GPU / 256-job round the sparse paths are
        # for.
        self._round_shape(256, 64)

    def test_sharded_cell_shape(self):
        # (16, 128, 32): one cell of the 2048-GPU / 1024-job sharded round,
        # wide by its jobs, not its nodes.
        self._round_shape(128, 32)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        members=st.integers(1, 4),
        num_jobs=st.integers(_SPARSE_MIN_WIDTH, _SPARSE_MIN_WIDTH + 40),
        num_nodes=st.integers(2, 8),
        gpus=st.integers(1, 2),
        coarse=st.booleans(),
    )
    def test_row_removal_shrinks_column_support(
        self, seed, members, num_jobs, num_nodes, gpus, coarse
    ):
        """Every job holds one GPU on every node and may keep one: each row
        removal zeroes ``num_nodes - 1`` entries, and the columns stay over
        capacity (they hold ``num_jobs / num_nodes`` kept entries on
        average), so a column that is redrawn is redrawn on a smaller
        support than the fused draw saw.  The coarse generator makes keys
        tie."""
        cluster = ClusterSpec.homogeneous(num_nodes, gpus)
        jobs = [
            JobGAInfo(
                synthetic_table(1, 0.8), 1.0, 1,
                np.zeros(num_nodes, dtype=np.int64), False,
            )
            for _ in range(num_jobs)
        ]
        problem = AllocationProblem(cluster, jobs, forbid_interference=False)
        pop = np.ones((members, num_jobs, num_nodes), dtype=np.int64)
        oracle, shipped = engine_pair(problem, seed=seed)
        if coarse:
            oracle.rng, shipped.rng = CoarseRng(seed), CoarseRng(seed)
        want, got = pop.copy(), pop.copy()
        oracle._repair_caps_capacity(want)
        shipped._repair_caps_capacity(got)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(shipped.rng.random(3), oracle.rng.random(3))
        assert (got.sum(axis=-1) <= 1).all()
        assert (got.sum(axis=1) <= gpus).all()

    @pytest.mark.parametrize(
        "num_jobs, num_nodes, two_type, forbid",
        [
            (5, 4, False, True),
            (6, 4, True, True),
            (5, 4, False, False),
            (70, 8, False, True),  # sparse repair: 560 cells, 70 columns
            (70, 8, True, True),
        ],
    )
    def test_full_run_is_identical(self, num_jobs, num_nodes, two_type, forbid):
        data = np.random.default_rng(num_jobs)
        problem = random_problem(data, num_jobs, num_nodes, 4, two_type, forbid)
        config = GAConfig(population_size=8, generations=4, patience=0)
        oracle, shipped = engine_pair(problem, config, seed=9)
        want_best, want_fitness, want_pop = oracle.run()
        got_best, got_fitness, got_pop = shipped.run()
        np.testing.assert_array_equal(got_best, want_best)
        assert got_fitness == want_fitness
        np.testing.assert_array_equal(got_pop, want_pop)
        assert shipped.rng.bit_generator.state == oracle.rng.bit_generator.state


def edited_population(rng, members, problem):
    """Members built from the current allocations by one edit a row: keep
    it, drop one of its nodes, add a node, move a node's GPUs elsewhere,
    change a node's count, or redraw the row."""
    gpus = int(problem.capacities.max())
    pop = np.repeat(problem.current[None], members, axis=0)
    for row in pop.reshape(-1, problem.num_nodes):
        held, free = np.flatnonzero(row), np.flatnonzero(row == 0)
        edit = int(rng.integers(0, 6))
        if edit in (1, 3) and held.size:
            node = rng.choice(held)
            if edit == 3 and free.size:
                row[rng.choice(free)] = row[node]
            row[node] = 0
        elif edit == 2 and free.size:
            row[rng.choice(free)] = rng.integers(1, gpus + 1)
        elif edit == 4 and held.size:
            row[rng.choice(held)] = rng.integers(1, gpus + 1)
        elif edit == 5:
            row[:] = rng.integers(0, gpus + 1, size=row.size)
    return pop


class TestSupportHandOff:
    """Fitness on a population's support and the row-gather crossover
    against the dense forms (the support itself is checked in
    ``TestRepairInvariants::test_repair_postconditions``)."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        members=st.integers(1, 6),
        num_jobs=st.integers(1, 10),
        num_nodes=st.integers(1, 10),
        gpus=st.integers(1, 4),
        two_type=st.booleans(),
    )
    def test_fitness_on_support_is_bit_equal(
        self, seed, members, num_jobs, num_nodes, gpus, two_type
    ):
        rng = np.random.default_rng(seed)
        problem = random_problem(
            rng, num_jobs, num_nodes, gpus, two_type, True, incumbents=True
        )
        pop = edited_population(rng, members, problem)
        support = np.flatnonzero(pop)
        np.testing.assert_array_equal(
            problem.fitness(pop, support=support), problem.fitness(pop)
        )
        np.testing.assert_array_equal(
            problem.speedups(pop, support=support), problem.speedups(pop)
        )

    @pytest.mark.parametrize(
        "members, num_jobs, num_nodes", [(1, 1, 3), (4, 5, 1), (16, 70, 8)]
    )
    def test_crossover_gathers_the_oracle_rows(self, members, num_jobs, num_nodes):
        data = np.random.default_rng(num_jobs)
        problem = random_problem(data, num_jobs, num_nodes, 4, False, True)
        for trial in range(5):
            pop = random_population(data, members, problem, 0.3, 4)
            fitness = data.random(members)
            oracle, shipped = engine_pair(problem, seed=trial)
            got = shipped._crossover(pop, fitness)
            np.testing.assert_array_equal(got, oracle._crossover(pop, fitness))
            assert shipped.rng.bit_generator.state == oracle.rng.bit_generator.state


class TestBufferStreamIdentity:
    """The operators' ``out=`` forms write the arrays the allocating calls
    return into the buffer they are given, and draw the same numbers."""

    @pytest.mark.parametrize(
        "num_jobs, num_nodes, mixed",
        [(1, 1, False), (5, 4, False), (5, 4, True), (70, 8, True), (128, 32, False)],
    )
    def test_mutate_into_buffer(self, num_jobs, num_nodes, mixed):
        data = np.random.default_rng(num_jobs)
        problem = random_problem(data, num_jobs, num_nodes, 4, False, True)
        if mixed:  # per-node capacities differ: the array-bound draw
            half = num_nodes // 2
            cluster = ClusterSpec.heterogeneous(
                (("v100", half, 4), ("t4", num_nodes - half, 8))
            )
            problem = AllocationProblem(cluster, problem.jobs)
        for trial in range(3):
            pop = random_population(data, 6, problem, 0.3, 4)
            buf = np.full(pop.shape, -1, dtype=np.int64)
            want_opt, got_opt = engine_pair(problem, seed=trial)
            want = want_opt._mutate(pop)
            assert got_opt._mutate(pop, out=buf) is buf
            np.testing.assert_array_equal(buf, want)
            assert got_opt.rng.bit_generator.state == want_opt.rng.bit_generator.state

    @pytest.mark.parametrize(
        "members, num_jobs, num_nodes", [(1, 1, 3), (4, 5, 1), (16, 70, 8)]
    )
    def test_crossover_into_buffer(self, members, num_jobs, num_nodes):
        data = np.random.default_rng(num_jobs)
        problem = random_problem(data, num_jobs, num_nodes, 4, False, True)
        for trial in range(5):
            pop = random_population(data, members, problem, 0.3, 4)
            fitness = data.random(members)
            buf = np.full(pop.shape, -1, dtype=np.int64)
            want_opt, got_opt = engine_pair(problem, seed=trial)
            want = want_opt._crossover(pop, fitness)
            assert got_opt._crossover(pop, fitness, out=buf) is buf
            np.testing.assert_array_equal(buf, want)
            assert got_opt.rng.bit_generator.state == want_opt.rng.bit_generator.state


class TestRunMemoryBound:
    def test_run_peak_and_ownership(self):
        """A run holds four populations' bytes in its buffers (the 3P pool
        and the survivors), plus the transient draw blocks of one repair,
        ~3 more at this shape.  Allocating its temporaries in every
        generation, the same run peaked at 9.0x."""
        data = np.random.default_rng(4)
        problem = random_problem(data, 128, 32, 8, False, True)
        config = GAConfig(population_size=16, generations=4, patience=0)
        opt = GeneticOptimizer(problem, config, rng=np.random.default_rng(1))
        tracemalloc.start()
        try:
            best, _, population = opt.run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert population.shape == (16, 128, 32)
        assert peak <= 8.0 * population.nbytes
        # What the scheduler keeps for the next round holds no buffer.
        assert population.base is None and best.base is None
        assert not np.shares_memory(best, population)
        assert opt.seed_population().base is None
