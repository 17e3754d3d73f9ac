"""PolluxSched: cluster-wide optimization (Sec. 4.2).

At a fixed interval, PolluxSched re-optimizes the allocation matrix for all
jobs in the cluster by running the genetic algorithm on the fitness function

    FITNESS(A) = sum_j w_j * SPEEDUP_j(A_j) / sum_j w_j     (Eqn. 14)

where SPEEDUP_j (Eqn. 15) is evaluated from each job's reported goodput
model, w_j is the GPU-time-decayed job weight (Eqn. 16), a RESTART_PENALTY is
charged for every running job whose allocation changes, the interference
avoidance constraint forbids two distributed jobs from sharing a node, and
each job's allocation is capped at twice its lifetime-maximum GPU count
(Sec. 4.1's exploration rule).  The GA population is preserved between
scheduling rounds to bootstrap the next optimization (Sec. 4.3).
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cluster.spec import ClusterSpec
from .agent import AgentReport
from .genetic import AllocationProblem, GAConfig, GeneticOptimizer, JobGAInfo
from .speedup import TputCells, build_speedup_tables_batch, build_tput_cells
from .surfacecache import SurfaceCache

__all__ = ["PolluxSchedConfig", "SchedJobInfo", "job_weight", "PolluxSched"]

#: Batch-size grid density of the scheduler's speedup tables (points per
#: doubling of the batch size; see :mod:`repro.core.speedup`).
TABLE_POINTS_PER_OCTAVE = 16

#: Surface-cache slots reserved per active job (see ``SurfaceCache.
#: ensure_capacity``): one slot per distinct exploration cap a job's cells
#: are built at within a tick — the round itself plus the autoscaler's
#: binary-search probes (~log2(max_nodes) cap variants) — with headroom for
#: cells kept across a theta_sys re-fit.
_CACHE_SLOTS_PER_JOB = 16

#: Jobs per batched table-build pass (``PolluxSched._tables_batched``).  One
#: pass over a 256-job round walks ~10 temporaries of 11-23 MB each (1.43 M
#: feasible cells x 2 placement flags), every one fresh memory: 28-32
#: thousand first-touch page faults per steady fold, more than half its
#: time.  At 64 jobs a pass the allocator hands each block the pages the
#: last one freed and the fold takes no fault at all.  Measured steady fold:
#: 111-128 ms in one pass, 73-104 ms at 128 jobs a pass, 50-52 ms at 64,
#: 50-51 ms at 32, 52-54 ms at 16; a fresh scheduler's first build 299-431
#: -> 192-219 ms at 64.  Tables are elementwise identical at any block size.
_TABLE_BLOCK_JOBS = 64


def _blocks(items: list):
    """``items`` in runs of at most ``_TABLE_BLOCK_JOBS``, in order."""
    for start in range(0, len(items), _TABLE_BLOCK_JOBS):
        yield items[start : start + _TABLE_BLOCK_JOBS]


@dataclass(frozen=True)
class PolluxSchedConfig:
    """Operator-facing configuration of PolluxSched (Sec. 5.1 defaults).

    Every scheduler keeps its throughput cells in an in-memory
    :class:`~repro.core.surfacecache.SurfaceCache` keyed on exact values, so
    caching never changes a decision and has nothing to configure.
    """

    restart_penalty: float = 0.25
    forbid_interference: bool = True
    gputime_thres: float = 4.0 * 3600.0  # 4 GPU-hours, in GPU-seconds
    weight_decay: float = 0.5  # lambda in Eqn. 16
    ga: GAConfig = field(default_factory=GAConfig)

    def __post_init__(self) -> None:
        if self.restart_penalty < 0:
            raise ValueError("restart_penalty must be non-negative")
        if self.gputime_thres <= 0:
            raise ValueError("gputime_thres must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")


@dataclass
class SchedJobInfo:
    """Snapshot of one job as seen by PolluxSched at a scheduling round."""

    job_id: str
    report: AgentReport
    current_alloc: np.ndarray
    gputime: float  # total GPU-seconds consumed so far

    def __post_init__(self) -> None:
        self.current_alloc = np.asarray(self.current_alloc, dtype=np.int64)
        if self.gputime < 0:
            raise ValueError("gputime must be non-negative")


def job_weight(gputime: float, gputime_thres: float, decay: float) -> float:
    """w_j = min(1, GPUTIME_THRES / GPUTIME(j)) ** lambda (Eqn. 16)."""
    if gputime_thres <= 0:
        raise ValueError("gputime_thres must be positive")
    if gputime <= gputime_thres:
        return 1.0
    return float((gputime_thres / gputime) ** decay)


class PolluxSched:
    """Cluster-wide goodput-maximizing scheduler."""

    def __init__(
        self,
        cluster: ClusterSpec,
        config: Optional[PolluxSchedConfig] = None,
        seed: int = 0,
        surface_cache: Optional[SurfaceCache] = None,
    ):
        self.cluster = cluster
        self.config = config if config is not None else PolluxSchedConfig()
        self._rng = np.random.default_rng(seed)
        self._population: Optional[np.ndarray] = None
        self._population_job_ids: List[str] = []
        #: Set by :meth:`set_cluster` on a node-layout change; the next
        #: round then runs its full generation budget (patience disabled)
        #: so allocations are re-optimized for the new layout instead of
        #: early-exiting on a plateau of the stale warm-started population.
        self._resized_since_round = False
        self.rounds = 0
        #: UTILITY(A) (Eqn. 17) of the last optimized allocation matrix.
        self.last_utility = 0.0
        #: Wall-clock per phase of the last ``optimize`` round, in ms:
        #: ``table_ms`` (speedup-table builds), the GA engine's
        #: ``repair_ms``/``fitness_ms``/``select_ms``/``mutate_ms``, and
        #: ``total_ms``; under a :attr:`ga_gate` also ``wait_ms``, the wait
        #: for it, which ``total_ms`` leaves out.  Lets perf regressions
        #: localize to a phase: the perf ledger's traced runs read it every
        #: round into its ``core.*_ms_mean`` rows (``benchmarks/e2e/``).
        self.last_phase_timings: Dict[str, float] = {}
        #: Lock held around the GA (not the table builds), or None.  Set by
        #: whoever runs several schedulers on threads of one interpreter
        #: (``repro.shard.executor.ThreadCellExecutor``): two GAs at once
        #: trade the GIL at every numpy call and finish no sooner.
        self.ga_gate: Optional[threading.Lock] = None
        #: Shared throughput-cell cache.  An explicitly passed cache (e.g.
        #: the live scheduler's, handed to an autoscaler probe) wins over a
        #: fresh one of its own; see surfacecache.py.
        self.surface_cache = (
            surface_cache if surface_cache is not None else SurfaceCache()
        )

    # ------------------------------------------------------------------

    def set_cluster(self, cluster: ClusterSpec) -> None:
        """Replace the cluster (cloud auto-scaling).

        When the node layout (count, per-node GPUs, or GPU types) changed,
        the saved GA population is *remapped* onto the new layout — dropped
        nodes truncate from the end, new nodes start empty, exactly like
        the simulator reshapes live allocations — so warm starts survive
        autoscaling resizes; only a GPU-type-set change (which invalidates
        the per-type speedup semantics) resets it.
        """
        if cluster.nodes != self.cluster.nodes:
            self._resized_since_round = True
            if (
                self._population is None
                or cluster.gpu_types != self.cluster.gpu_types
            ):
                self._population = None
                self._population_job_ids = []
            else:
                old = self._population
                keep = min(old.shape[2], cluster.num_nodes)
                remapped = np.zeros(
                    (old.shape[0], old.shape[1], cluster.num_nodes),
                    dtype=np.int64,
                )
                remapped[:, :, :keep] = old[:, :, :keep]
                self._population = remapped
        self.cluster = cluster

    def _bootstrap_population(self, job_ids: Sequence[str]) -> Optional[np.ndarray]:
        """Re-index the saved population for this round's job set."""
        if self._population is None or self._population.size == 0:
            return None
        old_index = {jid: i for i, jid in enumerate(self._population_job_ids)}
        # One take along the job axis; an arrival's -1 picks some old row,
        # which is then zeroed.
        old_rows = np.array(
            [old_index.get(jid, -1) for jid in job_ids], dtype=np.intp
        )
        out = self._population.take(old_rows, axis=1)
        arrived = old_rows < 0
        if arrived.any():
            out[:, arrived] = 0
        return out

    def _tables_batched(
        self,
        jobs: Sequence[SchedJobInfo],
        caps: Sequence[int],
        type_speeds: np.ndarray,
    ) -> List[np.ndarray]:
        """One speedup table per job, folded from cached or batch-built cells.

        Each job's phi-free cells are looked up per job (two-phase
        protocol); the misses are built by :func:`build_tput_cells` and
        stored, and every table is then folded by
        :func:`build_speedup_tables_batch`, both at most
        ``_TABLE_BLOCK_JOBS`` jobs a pass.
        """
        cache = self.surface_cache
        ppo = TABLE_POINTS_PER_OCTAVE
        speeds = tuple(float(s) for s in type_speeds)
        keys = [
            cache.cells_key(job.report, cap, speeds) for job, cap in zip(jobs, caps)
        ]
        cells: List[Optional[TputCells]] = [cache.lookup(key) for key in keys]
        models = [job.report.goodput_model() for job in jobs]
        to_build = [idx for idx, entry in enumerate(cells) if entry is None]
        # Both passes run in blocks of jobs (see ``_TABLE_BLOCK_JOBS``), all
        # cells before any table, so values, store order and with it the
        # LRU state are those of one unblocked pass.
        for block in _blocks(to_build):
            built = build_tput_cells(
                [models[idx] for idx in block],
                [caps[idx] for idx in block],
                points_per_octave=ppo,
                type_speeds=speeds,
            )
            for idx, fresh in zip(block, built):
                # Copy out of the batch's shared backing arrays: a cached
                # view would pin the whole block's buffer for as long as
                # any one entry survives the LRU.  The fold below reads the
                # copies too, so the next block reuses this block's memory.
                cells[idx] = cache.store(
                    keys[idx],
                    TputCells(
                        fresh.tput.copy(), fresh.m_cells.copy(), fresh.counts.copy()
                    ),
                )
        cache.stats.misses += len(jobs)
        tables: List[np.ndarray] = []
        for block_models, block_caps, block_cells in zip(
            _blocks(models), _blocks(caps), _blocks(cells)
        ):
            tables += build_speedup_tables_batch(
                block_models,
                block_caps,
                points_per_octave=ppo,
                type_speeds=speeds,
                cells=block_cells,
            )
        return tables

    def build_problem(self, jobs: Sequence[SchedJobInfo]) -> AllocationProblem:
        """Construct the GA allocation problem for one scheduling round.

        Each call folds every job's speedup table from its throughput
        cells.  The cells come from the shared :class:`SurfaceCache`, so
        ``optimize``, ``utility``, and autoscaler probes build them at most
        once per (theta_sys, cap, type set).  The cache is grown to the
        round's working-set size first (see ``_CACHE_SLOTS_PER_JOB``); the
        misses are built in ragged batched surface passes.
        """
        cfg = self.config
        total_gpus = self.cluster.total_gpus
        type_speeds = self.cluster.type_speeds()
        self.surface_cache.ensure_capacity(len(jobs) * _CACHE_SLOTS_PER_JOB)
        caps = [job.report.exploration_cap(total_gpus) for job in jobs]
        tables = self._tables_batched(jobs, caps, type_speeds)
        ga_jobs: List[JobGAInfo] = []
        for job, cap, table in zip(jobs, caps, tables):
            weight = job_weight(job.gputime, cfg.gputime_thres, cfg.weight_decay)
            ga_jobs.append(
                JobGAInfo(
                    speedup_table=table,
                    weight=weight,
                    max_gpus=cap,
                    current_alloc=job.current_alloc,
                    running=bool(job.current_alloc.sum() > 0),
                )
            )
        return AllocationProblem(
            self.cluster,
            ga_jobs,
            restart_penalty=cfg.restart_penalty,
            forbid_interference=cfg.forbid_interference,
        )

    def optimize(
        self, jobs: Sequence[SchedJobInfo]
    ) -> Dict[str, np.ndarray]:
        """Run one scheduling round; return job_id -> allocation vector."""
        self.rounds += 1
        job_ids = [job.job_id for job in jobs]
        if len(set(job_ids)) != len(job_ids):
            raise ValueError("duplicate job ids in scheduling round")
        if not jobs:
            self._population = None
            self._population_job_ids = []
            self.last_utility = 0.0
            self.last_phase_timings = {}
            return {}

        t_start = time.perf_counter()
        problem = self.build_problem(jobs)
        t_tables = time.perf_counter()
        ga_config = self.config.ga
        if self._resized_since_round:
            # First round on a changed node layout: force the full budget
            # (the warm-started population is tuned to the old layout and
            # would otherwise plateau-exit before adapting, e.g. before
            # ever occupying freshly grown nodes).
            if ga_config.patience > 0:
                ga_config = replace(ga_config, patience=0)
            self._resized_since_round = False
        optimizer = GeneticOptimizer(problem, ga_config, rng=self._rng)
        initial = self._bootstrap_population(job_ids)
        gate = self.ga_gate
        t_gate = time.perf_counter()
        with gate if gate is not None else nullcontext():
            t_ga = time.perf_counter()
            best, _, population = optimizer.run(initial=initial)

        self._population = population
        self._population_job_ids = list(job_ids)
        self.last_utility = problem.utility(best)
        self.last_phase_timings = {
            "table_ms": (t_tables - t_start) * 1000.0,
            **optimizer.phase_ms,
            "total_ms": (time.perf_counter() - t_start) * 1000.0,
        }
        if gate is not None:
            wait_ms = (t_ga - t_gate) * 1000.0
            self.last_phase_timings["wait_ms"] = wait_ms
            self.last_phase_timings["total_ms"] -= wait_ms
        return {jid: best[j].copy() for j, jid in enumerate(job_ids)}

    def utility(self, jobs: Sequence[SchedJobInfo], matrix: np.ndarray) -> float:
        """UTILITY(A) of an allocation matrix for these jobs (Eqn. 17)."""
        problem = self.build_problem(jobs)
        return problem.utility(matrix)
