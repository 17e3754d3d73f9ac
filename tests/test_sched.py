"""Tests for PolluxSched: fitness weighting and cluster optimization."""

from dataclasses import replace

import numpy as np
import pytest

import repro.core.sched as sched_module
import repro.core.surfacecache as surfacecache_module
from repro.cluster import ClusterSpec, validate_allocation_matrix
from repro.core import (
    AgentReport,
    GAConfig,
    PolluxSched,
    PolluxSchedConfig,
    SchedJobInfo,
    ThroughputParams,
    job_weight,
)
from repro.core.speedup import build_speedup_tables_batch
from repro.workload import MODEL_ZOO


def make_report(model_name="resnet18-cifar10", phi=1000.0, max_gpus_seen=8):
    profile = MODEL_ZOO[model_name]
    return AgentReport(
        throughput_params=profile.theta_true,
        grad_noise_scale=phi,
        init_batch_size=float(profile.init_batch_size),
        limits=profile.limits,
        max_gpus_seen=max_gpus_seen,
    )


def make_job(job_id, num_nodes=4, gputime=0.0, alloc=None, **kwargs):
    if alloc is None:
        alloc = np.zeros(num_nodes, dtype=np.int64)
    return SchedJobInfo(
        job_id=job_id,
        report=make_report(**kwargs),
        current_alloc=alloc,
        gputime=gputime,
    )


@pytest.fixture
def sched(small_cluster, quick_ga) -> PolluxSched:
    return PolluxSched(
        small_cluster, PolluxSchedConfig(ga=quick_ga), seed=0
    )


class TestJobWeight:
    def test_weight_one_below_threshold(self):
        assert job_weight(100.0, 4 * 3600.0, 0.5) == 1.0
        assert job_weight(4 * 3600.0, 4 * 3600.0, 0.5) == 1.0

    def test_decay_above_threshold(self):
        thres = 4 * 3600.0
        w = job_weight(16 * 3600.0, thres, 0.5)
        assert w == pytest.approx((4.0 / 16.0) ** 0.5)

    def test_lambda_zero_disables_decay(self):
        assert job_weight(1e9, 4 * 3600.0, 0.0) == 1.0

    def test_larger_lambda_decays_faster(self):
        thres = 4 * 3600.0
        w_half = job_weight(40 * 3600.0, thres, 0.5)
        w_one = job_weight(40 * 3600.0, thres, 1.0)
        assert w_one < w_half


class TestOptimize:
    def test_empty_round(self, sched):
        assert sched.optimize([]) == {}

    def test_allocations_are_feasible(self, sched, small_cluster):
        jobs = [make_job(f"job-{i}") for i in range(4)]
        allocations = sched.optimize(jobs)
        matrix = np.stack([allocations[j.job_id] for j in jobs])
        assert not validate_allocation_matrix(
            matrix, small_cluster, forbid_interference=True
        )

    def test_all_jobs_get_some_gpus_when_abundant(self, sched):
        jobs = [make_job(f"job-{i}") for i in range(2)]
        allocations = sched.optimize(jobs)
        for job in jobs:
            assert allocations[job.job_id].sum() >= 1

    def test_respects_exploration_cap(self, sched):
        # A job that has never run can get at most 1 GPU (Sec. 4.1).
        jobs = [make_job("fresh", max_gpus_seen=0)]
        allocations = sched.optimize(jobs)
        assert allocations["fresh"].sum() <= 1

    def test_duplicate_ids_rejected(self, sched):
        jobs = [make_job("same"), make_job("same")]
        with pytest.raises(ValueError):
            sched.optimize(jobs)

    def test_population_carries_over(self, sched):
        jobs = [make_job(f"job-{i}") for i in range(3)]
        sched.optimize(jobs)
        assert sched._population is not None
        # Next round with one job finished and one new job.
        jobs2 = [make_job("job-0"), make_job("job-2"), make_job("job-9")]
        allocations = sched.optimize(jobs2)
        assert set(allocations) == {"job-0", "job-2", "job-9"}

    def test_weight_decay_prefers_young_jobs(self, small_cluster):
        config = PolluxSchedConfig(
            ga=GAConfig(population_size=30, generations=25, seed=0),
            weight_decay=1.0,
            gputime_thres=3600.0,
        )
        sched = PolluxSched(small_cluster, config, seed=0)
        jobs = [
            make_job("old", gputime=200 * 3600.0),
            make_job("young", gputime=0.0),
        ]
        allocations = sched.optimize(jobs)
        assert allocations["young"].sum() >= allocations["old"].sum()

    def test_set_cluster_remaps_population_on_resize(self, sched, small_cluster):
        # The warm-start population survives a resize by remapping node
        # columns (grown nodes start empty).
        jobs = [make_job("a")]
        sched.optimize(jobs)
        sched.set_cluster(ClusterSpec.homogeneous(8, 4))
        assert sched._population is not None
        assert sched._population.shape[2] == 8
        assert (sched._population[:, :, 4:] == 0).all()

    def test_set_cluster_resets_population_on_type_change(self, sched):
        jobs = [make_job("a")]
        sched.optimize(jobs)
        sched.set_cluster(
            ClusterSpec.heterogeneous((("v100", 2, 4), ("t4", 2, 4)))
        )
        assert sched._population is None

    def test_utility_of_empty_matrix_is_zero(self, sched):
        jobs = [make_job("a")]
        matrix = np.zeros((1, 4), dtype=np.int64)
        assert sched.utility(jobs, matrix) == 0.0


class TestInterferenceConstraint:
    def test_forbidden_by_default(self, small_cluster, quick_ga):
        config = PolluxSchedConfig(ga=quick_ga)
        sched = PolluxSched(small_cluster, config, seed=0)
        # Many scalable jobs fighting for nodes: result must still respect
        # the at-most-one-distributed-job-per-node constraint.
        jobs = [make_job(f"job-{i}", max_gpus_seen=16) for i in range(4)]
        allocations = sched.optimize(jobs)
        matrix = np.stack([allocations[j.job_id] for j in jobs])
        assert not validate_allocation_matrix(
            matrix, small_cluster, forbid_interference=True
        )


class TestBootstrapPopulation:
    def test_reindex_matches_row_by_row_copy(self, sched):
        # The warm population re-indexed for a round in which jobs left
        # ("c", "e"), arrived ("x", "y", "z") and the rest changed order.
        old_ids = ["a", "b", "c", "d", "e"]
        new_ids = ["x", "d", "a", "y", "b", "z"]
        population = np.random.default_rng(0).integers(
            0, 5, size=(6, len(old_ids), 4)
        )
        sched._population = population
        sched._population_job_ids = old_ids
        out = sched._bootstrap_population(new_ids)

        expected = np.zeros((6, len(new_ids), 4), dtype=np.int64)
        for new_j, job_id in enumerate(new_ids):
            if job_id in old_ids:
                expected[:, new_j, :] = population[:, old_ids.index(job_id), :]
        np.testing.assert_array_equal(out, expected)
        assert out.dtype == np.int64 and out.flags.c_contiguous
        assert not np.shares_memory(out, population)

    def test_all_arrivals_and_no_population(self, sched):
        assert sched._bootstrap_population(["a"]) is None
        sched._population = np.ones((3, 2, 4), dtype=np.int64)
        sched._population_job_ids = ["a", "b"]
        out = sched._bootstrap_population(["p", "q", "r"])
        np.testing.assert_array_equal(out, np.zeros((3, 3, 4), dtype=np.int64))


def _varied_jobs(count, num_nodes, seed, prefix="job"):
    """Jobs over the whole model zoo at mixed phi and exploration caps."""
    rng = np.random.default_rng(seed)
    names = sorted(MODEL_ZOO)
    return [
        make_job(
            f"{prefix}-{idx}",
            num_nodes=num_nodes,
            model_name=names[idx % len(names)],
            phi=float(rng.uniform(50.0, 5000.0)),
            max_gpus_seen=int(rng.integers(1, 17)),
        )
        for idx in range(count)
    ]


def _with_phi(job, factor):
    report = replace(
        job.report, grad_noise_scale=job.report.grad_noise_scale * factor
    )
    return replace(job, report=report)


def _with_theta(job, factor):
    vec = job.report.throughput_params.as_vector()
    vec[:-1] *= factor
    report = replace(
        job.report, throughput_params=ThroughputParams.from_vector(vec)
    )
    return replace(job, report=report)


class TestBlockedTableBuilds:
    """A round's speedup table is built in blocks of (job, K) rows — the
    prefill, then one fill per lookup that reaches new rows: every entry
    equals one eager pass over all rows, and the cache traffic is that of
    a round that builds every row."""

    @pytest.mark.parametrize("count", [63, 64, 65, 130])
    @pytest.mark.parametrize("typed", [False, True])
    def test_same_tables_and_cache_state_as_one_pass(
        self, count, typed, monkeypatch
    ):
        if typed:
            cluster = ClusterSpec.heterogeneous((("v100", 4, 4), ("t4", 4, 4)))
        else:
            cluster = ClusterSpec.homogeneous(8, 4)
        speeds = tuple(float(s) for s in cluster.type_speeds())
        # A cache smaller than a round's distinct cells keys, so stores
        # evict and the LRU order is part of what is compared.
        monkeypatch.setattr(surfacecache_module, "INITIAL_MAXSIZE", count // 2)
        monkeypatch.setattr(sched_module, "_CACHE_SLOTS_PER_JOB", 0)
        blocked = PolluxSched(cluster)
        one_pass = PolluxSched(cluster)

        all_miss = _varied_jobs(count, cluster.num_nodes, seed=count)
        cells_hit = [_with_phi(job, 1.01) for job in all_miss]
        mixed = [
            job if idx % 3 == 0  # unchanged report: cells hit
            else _with_phi(job, 1.02) if idx % 3 == 1  # phi moved: cells hit
            else _with_theta(job, 1.01)  # a re-fit: both miss
            for idx, job in enumerate(cells_hit)
        ]
        mixed[5:8] = _varied_jobs(3, cluster.num_nodes, seed=1, prefix="new")

        rng = np.random.default_rng(count)
        for jobs in (all_miss, cells_hit, mixed):
            with monkeypatch.context() as patch:
                patch.setattr(sched_module, "_EAGER_MAX_ROWS", 0)
                got = blocked.build_problem(jobs)
            with monkeypatch.context() as patch:
                patch.setattr(sched_module, "_EAGER_MAX_ROWS", 10**9)
                want = one_pass.build_problem(jobs)
            for _ in range(3):  # each block reaches some new rows
                population = rng.integers(0, 3, (4, len(jobs), cluster.num_nodes))
                np.testing.assert_array_equal(
                    got.speedups(population), want.speedups(population)
                )
            filled = got._filled.reshape(len(jobs), -1)
            np.testing.assert_array_equal(
                got.tables[filled], want.tables[filled]
            )
            assert not got.tables[~filled].any()
            caps = [job.report.exploration_cap(cluster.total_gpus) for job in jobs]
            direct = build_speedup_tables_batch(
                [job.report.goodput_model() for job in jobs],
                caps,
                points_per_octave=sched_module.TABLE_POINTS_PER_OCTAVE,
                type_speeds=speeds,
                squeeze=False,
            )
            for j, (table, cap) in enumerate(zip(direct, caps)):
                np.testing.assert_array_equal(want.tables[j, : cap + 1], table)
            stats = blocked.surface_cache.stats
            ref_stats = one_pass.surface_cache.stats
            for field in ("misses", "evictions", "cells_hits", "cells_misses"):
                assert getattr(stats, field) == getattr(ref_stats, field), field
            assert stats.rows_folded < ref_stats.rows_folded
            assert list(blocked.surface_cache._entries) == list(
                one_pass.surface_cache._entries
            )
        assert stats.evictions > 0 and stats.cells_hits > 0
