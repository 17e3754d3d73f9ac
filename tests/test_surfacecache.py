"""Tests for the scheduler's throughput-cell cache (and its consumers)."""

import dataclasses

import numpy as np
import pytest

import repro.core.surfacecache as surfacecache

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
)
from repro.core.agent import TABLE_TUNING_PHI_TOL
from repro.core.sched import TABLE_POINTS_PER_OCTAVE
from repro.core.speedup import (
    MULTI_NODE,
    SINGLE_NODE,
    build_speedup_tables_batch,
    build_tput_cells,
)
from repro.core.surfacecache import RowCells
from repro.sim import SimConfig, Simulator
from repro.workload import MODEL_ZOO, TraceConfig, generate_trace
from repro.policy import ClusterState, JobSnapshot, PolluxPolicy, snapshot_job


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


def _get(cache, report, cap, speeds=(1.0,)):
    """One job's entry through the two-phase protocol, every row built."""
    key = cache.cells_key(report, cap, speeds)
    cells = cache.lookup(key)
    if cells is None:
        cells = cache.store(key, RowCells(cap))
        built = build_tput_cells(
            [report.goodput_model()],
            [cap],
            points_per_octave=TABLE_POINTS_PER_OCTAVE,
            type_speeds=speeds,
        )
        cells.add(range(1, cap + 1), built)
    return cells


def _fold(report, cap, cells=None):
    """The report's flat speedup table, folded from entry ``cells`` if
    given."""
    [table] = build_speedup_tables_batch(
        [report.goodput_model()],
        [cap],
        points_per_octave=TABLE_POINTS_PER_OCTAVE,
        cells=None if cells is None else cells.full,
    )
    return table


class TestSurfaceBuilders:
    def test_typed_batch_size_table_per_type_columns(self):
        """Each type column equals the flat table at that type's speed."""
        model = _report().goodput_model()
        speeds = (3.2, 1.0)
        [(_, typed)] = build_speedup_tables_batch(
            [model], [6], type_speeds=speeds, batch_sizes=True
        )
        for t, speed in enumerate(speeds):
            [(_, flat)] = build_speedup_tables_batch(
                [model], [6], type_speeds=(speed,), batch_sizes=True
            )
            assert np.array_equal(typed[:, :, t], flat)


class TestSurfaceCache:
    def test_hit_returns_bit_identical_tables(self):
        cache = SurfaceCache()
        report = _report()
        first = _get(cache, report, 8)
        again = _get(cache, report, 8)
        assert cache.stats.cells_hits == 1 and cache.stats.cells_misses == 1
        assert first is again
        assert np.array_equal(_fold(report, 8, again), _fold(report, 8))

    def test_equal_valued_reports_share_entries(self):
        """Keys are values, not object identity."""
        cache = SurfaceCache()
        _get(cache, _report(), 8)
        _get(cache, _report(), 8)
        assert cache.stats.cells_hits == 1

    def test_distinct_parameters_miss(self):
        cache = SurfaceCache()
        _get(cache, _report(), 8)
        _get(cache, _report(), 6)  # different cap
        _get(cache, _report(), 8, speeds=(2.0,))  # different speed
        other = dataclasses.replace(
            _report(), throughput_params=MODEL_ZOO["yolov3-voc"].theta_true
        )
        _get(cache, other, 8)  # different theta
        assert cache.stats.cells_hits == 0 and cache.stats.cells_misses == 4
        _get(cache, _report(phi=121.0), 8)  # phi is not part of the key
        assert cache.stats.cells_hits == 1

    def test_phi_quantization_collides_nearby_phis(self):
        """Nearby phis share an agent's tuning bucket; the scheduler's
        cache keys on no phi at all, yet each table folds in its exact phi."""
        near, far = _report(phi=120.0), _report(phi=120.5)
        tol = TABLE_TUNING_PHI_TOL
        assert near.fingerprint(tol) == far.fingerprint(tol)
        assert near.fingerprint() != far.fingerprint()
        cache = SurfaceCache()
        cells = _get(cache, near, 8)
        assert _get(cache, far, 8) is cells
        assert cache.stats.cells_hits == 1 and cache.stats.cells_misses == 1
        assert np.array_equal(_fold(far, 8, cells), _fold(far, 8))
        assert not np.array_equal(_fold(near, 8, cells), _fold(far, 8, cells))

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(surfacecache, "INITIAL_MAXSIZE", 2)
        cache = SurfaceCache()
        _get(cache, _report(), 2)
        _get(cache, _report(), 4)
        _get(cache, _report(), 6)  # evicts cap 2
        assert cache.stats.evictions == 1 and len(cache) == 2
        _get(cache, _report(), 2)  # rebuilt
        assert cache.stats.cells_misses == 4

    def test_cached_cells_are_readonly(self):
        cells = _get(SurfaceCache(), _report(), 8)
        assert cells.has(8)
        tput, m_cells = cells.row(8)  # splits the whole job into row views
        for array in (cells.full.tput, cells.full.counts, tput, m_cells):
            with pytest.raises(ValueError):
                array[0] = 99


class TestSchedCacheIntegration:
    def test_cached_and_uncached_rounds_identical(self):
        """Same seeds, a kept cache vs one cleared before every round (so
        all cells are built fresh): allocations must be bit-identical."""
        cluster = ClusterSpec.homogeneous(4, 4)
        reports = [_report(phi=50.0 * (i + 1), max_gpus_seen=2) for i in range(6)]
        jobs = [_job(f"j{i}", r, 4) for i, r in enumerate(reports)]
        cfg = PolluxSchedConfig(ga=GAConfig(population_size=10, generations=4))
        kept = PolluxSched(cluster, cfg, seed=7)
        cleared = PolluxSched(cluster, cfg, seed=7)
        for _ in range(3):
            a = kept.optimize(jobs)
            cleared.surface_cache.clear()
            b = cleared.optimize(jobs)
            assert set(a) == set(b)
            for name in a:
                assert np.array_equal(a[name], b[name])
        assert kept.surface_cache.stats.cells_hits == 2 * len(jobs)
        assert cleared.surface_cache.stats.cells_hits == 0
        assert cleared.surface_cache.stats.cells_misses == 3 * len(jobs)

    def test_utility_reuses_round_cells(self):
        """optimize() then utility() with the same snapshots: the tables
        fold again, every one from the round's cells."""
        cluster = ClusterSpec.homogeneous(4, 4)
        jobs = [_job(f"j{i}", _report(phi=80.0 + i), 4) for i in range(4)]
        sched = PolluxSched(
            cluster,
            PolluxSchedConfig(ga=GAConfig(population_size=10, generations=3)),
            seed=1,
        )
        allocs = sched.optimize(jobs)
        stats = sched.surface_cache.stats
        assert stats.cells_misses == len(jobs)
        matrix = np.stack([allocs[f"j{i}"] for i in range(4)])
        sched.utility(jobs, matrix)
        assert stats.cells_misses == len(jobs)
        assert stats.cells_hits == len(jobs)
        assert stats.misses == 2 * len(jobs)  # tables folded

    def test_autoscaler_probes_share_scheduler_cache(self):
        """Probes + optimize build each job's cells at most once per tick.

        All jobs have small exploration caps, so every probed cluster size
        yields the same cap and the probes' cells lookups must all hit the
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
        assert cache.stats.cells_misses == len(jobs)
        autoscaler = UtilityAutoscaler(
            AutoscaleConfig(min_nodes=1, max_nodes=8, probe_ga=GAConfig(
                population_size=8, generations=2, seed=3)),
            cache,
        )
        decision = autoscaler.decide(
            0.05,  # far below band -> probes run
            jobs,
            cluster,
        )
        assert decision.probed  # the binary search actually probed sizes
        # Every probe folded its tables from the cells the round built:
        # each job's throughput surface was evaluated once this tick.
        assert cache.stats.cells_misses == len(jobs)
        assert cache.stats.cells_hits >= len(jobs) * len(decision.probed)

    def test_explicit_cache_wins_over_config(self):
        shared = SurfaceCache()
        sched = PolluxSched(ClusterSpec.homogeneous(2, 4), surface_cache=shared)
        assert sched.surface_cache is shared


class TestPolicyClose:
    """``Policy.close()`` releases what the policy holds: its cells."""

    CONFIG = PolluxSchedConfig(ga=GAConfig(population_size=8, generations=2))

    def test_closed_policy_holds_no_cells(self):
        cluster = ClusterSpec.homogeneous(2, 4)
        trace = generate_trace(
            TraceConfig(
                num_jobs=3, duration_hours=0.2, seed=5, max_gpus=8,
                gpus_per_node=4,
            )
        )
        policy = PolluxPolicy(cluster, self.CONFIG)
        sim = Simulator(
            cluster, policy, trace, SimConfig(seed=2, max_hours=0.5)
        )
        sim.run()
        assert policy.sched.surface_cache.stats.cells_misses > 0
        assert len(policy.sched.surface_cache) == 0

    def test_rescheduled_after_close_matches_unclosed(self):
        cluster = ClusterSpec.homogeneous(4, 4)
        closed = PolluxPolicy(cluster, self.CONFIG, seed=3)
        kept = PolluxPolicy(cluster, self.CONFIG, seed=3)
        for round_idx in range(3):
            state = ClusterState(
                cluster,
                tuple(
                    JobSnapshot(
                        name=f"j{i}",
                        submission_time=0.0,
                        allocation=np.zeros(4, dtype=np.int64),
                        batch_size=128.0,
                        agent_report=_report(phi=40.0 * (i + 1) + round_idx),
                    )
                    for i in range(5)
                ),
            )
            got = closed.schedule(0.0, state).allocations
            closed.close()
            want = kept.schedule(0.0, state).allocations
            assert got.keys() == want.keys()
            for name in want:
                assert np.array_equal(got[name], want[name])
            assert closed.last_utility == kept.last_utility
        assert kept.sched.surface_cache.stats.cells_hits > 0
        assert closed.sched.surface_cache.stats.cells_hits == 0


class TestTableBatchTuning:
    def test_table_choice_near_search_optimum(self):
        """Goodput at the table's batch size ~= the golden-section optimum."""
        from repro.core.adascale import adascale_gain
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
            m_table, lr_table = agent.tune_batch_size(nodes, gpus)
            model = agent.goodput_model()
            m_search, _ = model.optimize_batch_size(nodes, gpus)
            g_search = model.goodput_scalar(nodes, gpus, m_search)
            g_table = model.goodput_scalar(nodes, gpus, m_table)
            # The geometric grid (TABLE_TUNING_POINTS_PER_OCTAVE = 32)
            # brackets the optimum; goodput is flat near the top, so the
            # table's pick is within a fraction of a percent of the search
            # optimum.
            assert g_table >= 0.995 * g_search
            assert lr_table == pytest.approx(
                profile.init_lr
                * adascale_gain(
                    agent.grad_noise_scale, profile.init_batch_size, m_table
                )
            )


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
        [(_, bsz)] = build_speedup_tables_batch([model], [8], batch_sizes=True)
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

    def test_ensure_capacity_grows_never_shrinks(self, monkeypatch):
        monkeypatch.setattr(surfacecache, "INITIAL_MAXSIZE", 4)
        cache = SurfaceCache()
        cache.ensure_capacity(100)
        assert cache.maxsize == 100
        cache.ensure_capacity(10)
        assert cache.maxsize == 100

    def test_build_problem_autosizes_to_job_count(self, monkeypatch):
        monkeypatch.setattr(surfacecache, "INITIAL_MAXSIZE", 8)
        cluster = ClusterSpec.homogeneous(4, 4)
        sched = PolluxSched(
            cluster,
            PolluxSchedConfig(ga=GAConfig(population_size=8, generations=2)),
            seed=0,
        )
        assert sched.surface_cache.maxsize == 8
        jobs = [_job(f"j{i}", _report(phi=10.0 + i), 4) for i in range(40)]
        sched.build_problem(jobs)
        assert sched.surface_cache.maxsize >= 40 * 16

    def test_steady_state_hit_rate_exceeds_miss_rate(self):
        """Rounds over a steady job set (theta unchanged between rounds,
        as for pending jobs or between agent refits) must be cache-hit
        dominated: every cell is built in the first round only."""
        cluster = ClusterSpec.homogeneous(4, 4)
        config = PolluxSchedConfig(ga=GAConfig(population_size=8, generations=2))
        sched = PolluxSched(cluster, config, seed=0)
        jobs = [_job(f"j{i}", _report(phi=25.0 * (i + 1)), 4) for i in range(20)]
        matrix = np.zeros((20, 4), dtype=np.int64)
        for _ in range(4):
            sched.optimize(jobs)
            sched.utility(jobs, matrix)
        stats = sched.surface_cache.stats
        assert stats.cells_misses == 20, stats
        assert stats.cells_hits == 7 * 20, stats
        assert stats.evictions == 0, stats

    def test_drifting_phi_reuses_tput_cells(self):
        """When only phi moves between rounds (every simulator tick), the
        phi-free throughput cells hit and only the tables fold again."""
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
        # Rounds 2-4: phi moved but the cells keys hit, so no throughput
        # surface is re-evaluated after round 1.
        assert stats.misses == 40  # every round's tables re-assembled
        assert stats.cells_hits >= 30, stats
        assert stats.cells_misses == 10, stats  # built in round 1 only
        # All 10 jobs share one theta_sys here, so their cells collapse
        # onto a single cache entry.
        assert len(sched.surface_cache) == 1

    def test_tput_cells_give_identical_tables(self):
        """Tables assembled from cached cells match tables built fresh, by
        a new scheduler and by the batch builder itself."""
        cluster = ClusterSpec.homogeneous(4, 4)
        config = PolluxSchedConfig(ga=GAConfig(population_size=8, generations=2))

        def jobs_at(phi_offset):
            return [
                _job(f"j{i}", _report(phi=40.0 + 13 * i + phi_offset), 4)
                for i in range(6)
            ]

        def tables(sched, jobs):
            problem = sched.build_problem(jobs)
            return [
                problem.tables[j, : cap + 1, :, 0]
                for j, cap in enumerate(problem.max_gpus)
            ]

        warm = PolluxSched(cluster, config, seed=0)
        tables(warm, jobs_at(0.0))  # populate the cells cache
        cells_hits = warm.surface_cache.stats.cells_hits
        # phi moved: every table is assembled from cached cells.
        from_cells = tables(warm, jobs_at(7.5))
        assert warm.surface_cache.stats.cells_hits == cells_hits + 6
        cold = PolluxSched(cluster, config, seed=0)
        fresh = tables(cold, jobs_at(7.5))
        assert cold.surface_cache.stats.cells_hits == 0
        reports = [job.report for job in jobs_at(7.5)]
        direct = build_speedup_tables_batch(
            [report.goodput_model() for report in reports],
            [report.exploration_cap(cluster.total_gpus) for report in reports],
            points_per_octave=TABLE_POINTS_PER_OCTAVE,
            type_speeds=tuple(float(s) for s in cluster.type_speeds()),
        )
        for got, new, built in zip(from_cells, fresh, direct):
            np.testing.assert_array_equal(got, new)
            np.testing.assert_array_equal(got, built)
