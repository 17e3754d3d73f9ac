"""Tests for the shared speedup/goodput surface cache (and its consumers)."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core import (
    AgentReport,
    AutoscaleConfig,
    GAConfig,
    PolluxSched,
    PolluxSchedConfig,
    SchedJobInfo,
    SurfaceCache,
    UtilityAutoscaler,
    best_batch_size_table,
    build_speedup_table,
    build_surfaces,
    build_typed_speedup_table,
    build_typed_surfaces,
)
from repro.core.speedup import MULTI_NODE, SINGLE_NODE
from repro.sim import SimConfig, Simulator
from repro.workload import MODEL_ZOO, TraceConfig, generate_trace
from repro.policy import PolluxPolicy, snapshot_job


def _report(phi: float = 120.0, max_gpus_seen: int = 4) -> AgentReport:
    profile = MODEL_ZOO["resnet18-cifar10"]
    return AgentReport(
        throughput_params=profile.theta_true,
        grad_noise_scale=phi,
        init_batch_size=float(profile.init_batch_size),
        limits=profile.limits,
        max_gpus_seen=max_gpus_seen,
    )


def _job(job_id: str, report: AgentReport, num_nodes: int) -> SchedJobInfo:
    return SchedJobInfo(
        job_id=job_id,
        report=report,
        current_alloc=np.zeros(num_nodes, dtype=np.int64),
        gputime=0.0,
    )


class TestSurfaceBuilders:
    def test_build_surfaces_matches_separate_builders(self):
        model = _report().goodput_model()
        speedup, bsz = build_surfaces(model, 8, points_per_octave=16, speed=1.0)
        assert np.array_equal(speedup, build_speedup_table(model, 8))
        assert np.array_equal(bsz, best_batch_size_table(model, 8))

    def test_typed_surfaces_match_separate_builders(self):
        model = _report().goodput_model()
        speeds = [2.0, 1.0]
        speedup, bsz = build_typed_surfaces(model, 8, speeds)
        assert np.array_equal(
            speedup, build_typed_speedup_table(model, 8, speeds)
        )
        assert np.array_equal(
            bsz, best_batch_size_table(model, 8, type_speeds=speeds)
        )
        assert speedup.shape == (9, 2, 2)
        assert bsz.shape == (9, 2, 2)

    def test_typed_batch_size_table_per_type_columns(self):
        """Each type column equals the flat table at that type's speed."""
        model = _report().goodput_model()
        speeds = [3.2, 1.0]
        _, typed = build_typed_surfaces(model, 6, speeds)
        for t, speed in enumerate(speeds):
            flat = best_batch_size_table(model, 6, speed=speed)
            assert np.array_equal(typed[:, :, t], flat)


class TestSurfaceCache:
    def test_hit_returns_bit_identical_tables(self):
        cache = SurfaceCache()
        report = _report()
        first = cache.get_flat(report, 8, 16, 1.0)
        again = cache.get_flat(report, 8, 16, 1.0)
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert first[0] is again[0] and first[1] is again[1]
        uncached = build_surfaces(
            report.goodput_model(), 8, points_per_octave=16, speed=1.0
        )
        assert np.array_equal(first[0], uncached[0])
        assert np.array_equal(first[1], uncached[1])

    def test_equal_valued_reports_share_entries(self):
        """Fingerprints key on values, not object identity."""
        cache = SurfaceCache()
        cache.get_flat(_report(), 8, 16, 1.0)
        cache.get_flat(_report(), 8, 16, 1.0)
        assert cache.stats.hits == 1

    def test_distinct_parameters_miss(self):
        cache = SurfaceCache()
        cache.get_flat(_report(phi=120.0), 8, 16, 1.0)
        cache.get_flat(_report(phi=121.0), 8, 16, 1.0)  # different phi
        cache.get_flat(_report(phi=120.0), 6, 16, 1.0)  # different cap
        cache.get_flat(_report(phi=120.0), 8, 16, 2.0)  # different speed
        cache.get_flat(_report(phi=120.0), 8, 8, 1.0)  # different grid
        assert cache.stats.hits == 0 and cache.stats.misses == 5

    def test_phi_quantization_collides_nearby_phis(self):
        cache = SurfaceCache(phi_tol=0.05)
        cache.get_flat(_report(phi=120.0), 8, 16, 1.0)
        cache.get_flat(_report(phi=120.5), 8, 16, 1.0)
        assert cache.stats.hits == 1

    def test_lru_eviction(self):
        cache = SurfaceCache(maxsize=2)
        cache.get_flat(_report(phi=1.0), 4, 16, 1.0)
        cache.get_flat(_report(phi=2.0), 4, 16, 1.0)
        cache.get_flat(_report(phi=3.0), 4, 16, 1.0)  # evicts phi=1
        assert cache.stats.evictions == 1
        cache.get_flat(_report(phi=1.0), 4, 16, 1.0)  # rebuilt
        assert cache.stats.misses == 4

    def test_cached_tables_are_readonly(self):
        cache = SurfaceCache()
        table, bsz = cache.get_flat(_report(), 8, 16, 1.0)
        with pytest.raises(ValueError):
            table[1, 0] = 99.0
        with pytest.raises(ValueError):
            bsz[1, 0] = 99.0


class TestSchedCacheIntegration:
    def test_cached_and_uncached_rounds_identical(self):
        """Same seeds, cache on vs off: allocations must be bit-identical."""
        cluster = ClusterSpec.homogeneous(4, 4)
        reports = [_report(phi=50.0 * (i + 1), max_gpus_seen=2) for i in range(6)]
        jobs = [_job(f"j{i}", r, 4) for i, r in enumerate(reports)]
        cfg_on = PolluxSchedConfig(ga=GAConfig(population_size=10, generations=4))
        cfg_off = PolluxSchedConfig(
            ga=GAConfig(population_size=10, generations=4), surface_cache_size=0
        )
        sched_on = PolluxSched(cluster, cfg_on, seed=7)
        sched_off = PolluxSched(cluster, cfg_off, seed=7)
        assert sched_on.surface_cache is not None
        assert sched_off.surface_cache is None
        for _ in range(3):
            a = sched_on.optimize(jobs)
            b = sched_off.optimize(jobs)
            assert set(a) == set(b)
            for name in a:
                assert np.array_equal(a[name], b[name])
        assert sched_on.surface_cache.stats.misses > 0

    def test_utility_reuses_round_tables(self):
        """optimize() then utility() with the same snapshots: all hits."""
        cluster = ClusterSpec.homogeneous(4, 4)
        jobs = [_job(f"j{i}", _report(phi=80.0 + i), 4) for i in range(4)]
        sched = PolluxSched(
            cluster,
            PolluxSchedConfig(ga=GAConfig(population_size=10, generations=3)),
            seed=1,
        )
        allocs = sched.optimize(jobs)
        misses_after_round = sched.surface_cache.stats.misses
        assert misses_after_round == len(jobs)
        matrix = np.stack([allocs[f"j{i}"] for i in range(4)])
        sched.utility(jobs, matrix)
        assert sched.surface_cache.stats.misses == misses_after_round
        assert sched.surface_cache.stats.hits >= len(jobs)

    def test_get_flat_never_takes_a_scheduler_entry(self):
        """The scheduler's entries hold no batch-size table, so the same
        report, cap, grid and speed through get_flat must miss and build."""
        cluster = ClusterSpec.homogeneous(4, 4)
        report = _report(phi=80.0)
        sched = PolluxSched(cluster, PolluxSchedConfig(), seed=1)
        problem = sched.build_problem([_job("j0", report, 4)])
        cache = sched.surface_cache
        assert {key[0] for key in cache._entries} == {"speedup", "cells"}
        cap = report.exploration_cap(cluster.total_gpus)
        ppo = sched.config.table_points_per_octave
        (entry,) = (e for key, e in cache._entries.items() if key[0] == "speedup")
        assert len(entry) == 1 and entry[0] is problem.jobs[0].speedup_table
        misses = cache.stats.misses
        speedup, bsz = cache.get_flat(report, cap, ppo, 1.0)
        assert cache.stats.misses == misses + 1
        assert speedup.shape == bsz.shape == (cap + 1, 2)
        want = build_surfaces(report.goodput_model(), cap, ppo, 1.0)
        assert np.array_equal(speedup, want[0]) and np.array_equal(bsz, want[1])
        # ... and the scheduler does not take get_flat's pair for its own.
        hits = cache.stats.hits
        sched.build_problem([_job("j0", report, 4)])
        assert cache.stats.hits == hits + 1 and cache.stats.misses == misses + 1

    def test_autoscaler_probes_share_scheduler_cache(self):
        """Probes + optimize build each job's table at most once per tick.

        All jobs have small exploration caps, so every probed cluster size
        yields the same cap and the probes' table lookups must all hit the
        cache that the scheduling round populated.
        """
        cluster = ClusterSpec.homogeneous(4, 4)
        jobs = [
            _job(f"j{i}", _report(phi=60.0 + i, max_gpus_seen=1), 4)
            for i in range(4)
        ]
        sched = PolluxSched(
            cluster,
            PolluxSchedConfig(ga=GAConfig(population_size=10, generations=3)),
            seed=1,
        )
        sched.optimize(jobs)
        cache = sched.surface_cache
        assert cache.stats.misses == len(jobs)
        autoscaler = UtilityAutoscaler(
            AutoscaleConfig(min_nodes=1, max_nodes=8, probe_ga=GAConfig(
                population_size=8, generations=2, seed=3)),
        )
        decision = autoscaler.decide(
            cluster.num_nodes,
            current_utility=0.05,  # far below band -> probes run
            jobs=jobs,
            cluster=cluster,
            surface_cache=cache,
        )
        assert decision.probed  # the binary search actually probed sizes
        # Every probe evaluation hit the tables built by the round: each
        # job's surface was computed exactly once this tick.
        assert cache.stats.misses == len(jobs)
        assert cache.stats.hits >= len(jobs) * len(decision.probed)

    def test_explicit_cache_wins_over_config(self):
        shared = SurfaceCache(maxsize=16)
        sched = PolluxSched(
            ClusterSpec.homogeneous(2, 4),
            PolluxSchedConfig(surface_cache_size=0),
            surface_cache=shared,
        )
        assert sched.surface_cache is shared

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PolluxSchedConfig(surface_cache_size=-1)


class TestTableBatchTuning:
    def test_table_choice_near_search_optimum(self):
        """Goodput at the table's batch size ~= the search optimum."""
        from repro.core.agent import PolluxAgent

        profile = MODEL_ZOO["resnet18-cifar10"]
        agent = PolluxAgent(
            init_batch_size=float(profile.init_batch_size),
            init_lr=profile.init_lr,
            limits=profile.limits,
        )
        model_true = profile.throughput_true
        for gpus, nodes in ((1, 1), (4, 1), (8, 2)):
            t = float(model_true.t_iter(nodes, gpus, 512.0))
            agent.record_iteration(nodes, gpus, 512.0, t)
        agent.record_grad_stats(var=2.0, sqr=1.0)

        for gpus, nodes in ((1, 1), (2, 1), (4, 1), (8, 2), (12, 3)):
            m_search, lr_search = agent.tune_batch_size(
                nodes, gpus, method="search"
            )
            m_table, lr_table = agent.tune_batch_size(nodes, gpus, method="table")
            model = agent.goodput_model()
            g_search = model.goodput_scalar(nodes, gpus, m_search)
            g_table = model.goodput_scalar(nodes, gpus, m_table)
            # The geometric grid (TABLE_TUNING_POINTS_PER_OCTAVE = 32)
            # brackets the optimum; goodput is flat near the top, so the
            # table's pick is within a fraction of a percent of the search
            # optimum.
            assert g_table >= 0.995 * g_search

    def test_unknown_method_rejected(self):
        from repro.core.agent import PolluxAgent

        profile = MODEL_ZOO["resnet18-cifar10"]
        agent = PolluxAgent(
            init_batch_size=float(profile.init_batch_size),
            init_lr=profile.init_lr,
            limits=profile.limits,
        )
        with pytest.raises(ValueError):
            agent.tune_batch_size(1, 1, method="bogus")


class TestAutoscalerHookSnapshots:
    def test_decide_matches_legacy_two_snapshot_path(self):
        """The deduped decide() equals building _job_infos twice."""
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = generate_trace(
            TraceConfig(
                num_jobs=6, duration_hours=1.0, seed=3, max_gpus=8,
                gpus_per_node=4,
            )
        )
        scheduler = PolluxPolicy(
            cluster,
            PolluxSchedConfig(ga=GAConfig(population_size=10, generations=4)),
            autoscale=AutoscaleConfig(min_nodes=1, max_nodes=4),
            autoscale_interval=600.0,
        )
        sim = Simulator(
            cluster, scheduler, trace, SimConfig(seed=4, max_hours=5.0)
        )
        sim.run()
        jobs = [j for j in sim.jobs if not j.complete] or sim.jobs
        # Replay a decision with explicit snapshots: current_utility (the
        # legacy re-snapshotting entry point) must agree with utility_of on
        # the deduped snapshots the hook now builds once.
        infos = [
            SchedJobInfo(
                job_id=j.name,
                report=j.agent.report(),
                current_alloc=j.allocation,
                gputime=j.gputime,
            )
            for j in jobs
        ]
        matrix = np.stack([j.allocation for j in jobs])
        snaps = [snapshot_job(j, with_report=True) for j in jobs]
        assert scheduler.current_utility(snaps) == scheduler.utility_of(
            infos, matrix
        )


class TestBatchSizeTableLookups:
    def test_flag_indexing_matches_direct_optimization(self):
        """Table rows land on (near) the per-placement grid optimum.

        The surface uses one global grid masked per K while
        ``optimize_batch_size_grid`` re-grids per placement, so the chosen
        points can differ by a grid step — the achieved goodput must not.
        """
        model = _report().goodput_model()
        _, bsz = build_surfaces(model, 8, points_per_octave=16, speed=1.0)
        for k, (flag, nodes) in (
            (4, (SINGLE_NODE, 1)),
            (4, (MULTI_NODE, 2)),
            (8, (SINGLE_NODE, 1)),
        ):
            m_table = float(bsz[k, flag])
            _, g_grid = model.optimize_batch_size_grid(
                nodes, k, points_per_octave=16
            )
            g_table = model.goodput_scalar(nodes, k, m_table)
            assert g_table >= 0.995 * g_grid


class TestCacheSizing:
    """Regression tests for surface-cache thrashing (the PR-2 baseline
    recorded 3154 evictions against 57 hits at the fixed 512-entry default:
    a tick's working set outgrew the LRU, evicting entries before their
    cross-round reuse)."""

    def test_ensure_capacity_grows_never_shrinks(self):
        cache = SurfaceCache(maxsize=4)
        cache.ensure_capacity(100)
        assert cache.maxsize == 100
        cache.ensure_capacity(10)
        assert cache.maxsize == 100

    def test_build_problem_autosizes_to_job_count(self):
        cluster = ClusterSpec.homogeneous(4, 4)
        sched = PolluxSched(
            cluster,
            PolluxSchedConfig(
                ga=GAConfig(population_size=8, generations=2),
                surface_cache_size=8,
            ),
            seed=0,
        )
        assert sched.surface_cache.maxsize == 8
        jobs = [_job(f"j{i}", _report(phi=10.0 + i), 4) for i in range(40)]
        sched.build_problem(jobs)
        assert sched.surface_cache.maxsize >= 40 * 16

    def test_steady_state_hit_rate_exceeds_miss_rate(self):
        """Rounds over a steady job set (reports unchanged between rounds,
        as for pending jobs or between agent refits) must be cache-hit
        dominated: hit-rate > miss-rate."""
        cluster = ClusterSpec.homogeneous(4, 4)
        config = PolluxSchedConfig(ga=GAConfig(population_size=8, generations=2))
        sched = PolluxSched(cluster, config, seed=0)
        jobs = [_job(f"j{i}", _report(phi=25.0 * (i + 1)), 4) for i in range(20)]
        matrix = np.zeros((20, 4), dtype=np.int64)
        for _ in range(4):
            sched.optimize(jobs)
            sched.utility(jobs, matrix)
        stats = sched.surface_cache.stats
        assert stats.hits > stats.misses, stats
        assert stats.evictions == 0, stats

    def test_drifting_phi_reuses_tput_cells(self):
        """The scheduler's second-level cache: when only phi moves between
        rounds (every simulator tick), the phi-free throughput cells hit
        even though the full-table key misses."""
        cluster = ClusterSpec.homogeneous(4, 4)
        sched = PolluxSched(
            cluster,
            PolluxSchedConfig(ga=GAConfig(population_size=8, generations=2)),
            seed=0,
        )
        for round_idx in range(4):
            jobs = [
                _job(f"j{i}", _report(phi=25.0 * (i + 1) + round_idx), 4)
                for i in range(10)
            ]
            sched.optimize(jobs)
        stats = sched.surface_cache.stats
        # Rounds 2-4: full-table keys miss (phi moved) but the cells keys
        # hit, so no throughput surface is re-evaluated after round 1.
        assert stats.misses == 40  # every round's tables re-assembled
        assert stats.cells_hits >= 30, stats
        assert stats.cells_misses == 10, stats  # built in round 1 only
        # All 10 jobs share one theta_sys here, so their cells collapse
        # onto a single cache entry.
        cells_entries = [
            k for k in sched.surface_cache._entries if k[0] == "cells"
        ]
        assert len(cells_entries) == 1

    def test_tput_cells_give_identical_tables(self):
        """Tables assembled from cached cells match tables built fresh."""
        cluster = ClusterSpec.homogeneous(4, 4)

        def tables_for(sched, phi_offset):
            jobs = [
                _job(f"j{i}", _report(phi=40.0 + 13 * i + phi_offset), 4)
                for i in range(6)
            ]
            problem = sched.build_problem(jobs)
            return problem.tables.copy()

        warm = PolluxSched(
            cluster,
            PolluxSchedConfig(ga=GAConfig(population_size=8, generations=2)),
            seed=0,
        )
        tables_for(warm, 0.0)  # populate the cells cache
        from_cells = tables_for(warm, 7.5)  # phi moved: assemble from cells
        cold = PolluxSched(
            cluster,
            PolluxSchedConfig(
                ga=GAConfig(population_size=8, generations=2),
                surface_cache_size=0,
            ),
            seed=0,
        )
        fresh = tables_for(cold, 7.5)
        np.testing.assert_array_equal(from_cells, fresh)
