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

#: Surface-cache slots reserved per active job (see ``SurfaceCache.
#: ensure_capacity``): one slot per distinct (exploration cap, phi) pair a
#: job's tables are built at within a round — the round itself plus the
#: autoscaler's binary-search probes (~log2(max_nodes) cap variants) — with
#: headroom for cross-round reuse of unchanged reports.
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

    The two ``surface_*`` knobs control the shared
    :class:`~repro.core.surfacecache.SurfaceCache`:
    ``surface_cache_size = 0`` disables caching entirely (every round
    rebuilds every table, the pre-cache behavior); ``surface_phi_tol``
    quantizes phi in the cache key for opt-in cross-round reuse — at the
    default 0.0 the cache is keyed on exact values and scheduling decisions
    are bit-for-bit identical to the uncached path.  ``surface_cache_size``
    is a *floor*: each round the cache is grown to at least
    ``_CACHE_SLOTS_PER_JOB`` entries per active job, so large job counts
    cannot thrash the LRU (growing never changes decisions).

    ``cells_path`` points at a phi-free ``TputCells`` snapshot written by
    :meth:`PolluxSched.save_cells` (``SurfaceCache.to_file``); when set,
    a fresh scheduler pre-warms its surface cache from it, closing most of
    the cold-start gap across restarts.  A missing file is ignored (the
    first run has nothing persisted yet).

    ``incremental`` (default off) enables dirty-set rounds: a
    round whose inputs are unchanged — same job set, same
    ``theta_fingerprint()`` per job, same exploration caps, allocations
    still exactly what the previous round assigned — skips the GA entirely
    and replays the previous allocations; a round where only *some* jobs
    changed restricts mutation to those jobs' rows while carrying the rest
    from the warm population.  phi drift alone deliberately does not dirty
    a job (the skip trades bounded goodput-model staleness for round
    cost, like ``surface_phi_tol``); ``incremental_refresh_every`` forces
    an unrestricted round every that-many rounds (0 = never) to bound the
    staleness.  Departures, cluster resizes, and external allocation
    changes always force a full round.
    """

    restart_penalty: float = 0.25
    forbid_interference: bool = True
    gputime_thres: float = 4.0 * 3600.0  # 4 GPU-hours, in GPU-seconds
    weight_decay: float = 0.5  # lambda in Eqn. 16
    ga: GAConfig = field(default_factory=GAConfig)
    table_points_per_octave: int = 16
    surface_cache_size: int = 512
    surface_phi_tol: float = 0.0
    cells_path: Optional[str] = None
    incremental: bool = False
    incremental_refresh_every: int = 10

    def __post_init__(self) -> None:
        if self.restart_penalty < 0:
            raise ValueError("restart_penalty must be non-negative")
        if self.gputime_thres <= 0:
            raise ValueError("gputime_thres must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.surface_cache_size < 0:
            raise ValueError("surface_cache_size must be non-negative")
        if self.surface_phi_tol < 0:
            raise ValueError("surface_phi_tol must be non-negative")
        if self.incremental_refresh_every < 0:
            raise ValueError("incremental_refresh_every must be non-negative")


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
        #: Shared speedup/batch-size surface cache (None = caching off).  An
        #: explicitly passed cache (e.g. from the scheduler owning this
        #: probe instance) wins over the config's own; see surfacecache.py.
        if surface_cache is not None:
            self.surface_cache: Optional[SurfaceCache] = surface_cache
        elif self.config.surface_cache_size > 0:
            self.surface_cache = SurfaceCache(
                maxsize=self.config.surface_cache_size,
                phi_tol=self.config.surface_phi_tol,
            )
        else:
            self.surface_cache = None
        if self.config.cells_path and self.surface_cache is not None:
            try:
                self.surface_cache.load_file(self.config.cells_path)
            except FileNotFoundError:
                pass  # first run: nothing persisted yet
        #: Incremental-round bookkeeping (``config.incremental``): the
        #: per-job dirty signature and the allocation vector handed out
        #: last round, plus a counter driving the periodic forced refresh.
        self._last_sigs: Dict[str, tuple] = {}
        self._last_allocs: Dict[str, np.ndarray] = {}
        self._rounds_since_full = 0

    # ------------------------------------------------------------------

    def save_cells(self, path: Optional[str] = None) -> int:
        """Persist the cache's phi-free ``TputCells`` for warm restarts.

        Writes to ``path`` (default: ``config.cells_path``) via
        :meth:`SurfaceCache.to_file`; returns the number of entries
        written, 0 when there is no cache or no target path.
        """
        target = path if path is not None else self.config.cells_path
        if target is None or self.surface_cache is None:
            return 0
        return self.surface_cache.to_file(target)

    def export_cells(self) -> list:
        """Picklable warm-cells snapshot (``SurfaceCache.export_cells``).

        The in-memory counterpart of :meth:`save_cells`: the sharded
        policy's process executor ships these between worker generations
        so a replacement scheduler starts with warm throughput cells
        instead of re-deriving every surface.  Returns ``[]`` when
        caching is off.
        """
        if self.surface_cache is None:
            return []
        return self.surface_cache.export_cells()

    def import_cells(self, entries) -> int:
        """Merge an :meth:`export_cells` snapshot; 0 when caching is off.

        Decision-safe: a cells hit feeds the identical table assembly a
        rebuild would (the same guarantee ``cells_path`` loading makes).
        """
        if self.surface_cache is None:
            return 0
        return self.surface_cache.import_cells(entries)

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
        """One speedup table per job, the round's misses built in batches.

        Cache hits are looked up per job (two-phase protocol); all misses
        are then built by :func:`build_speedup_tables_batch`, at most
        ``_TABLE_BLOCK_JOBS`` jobs a pass, and stored.  Values match the
        per-job builders (``build_speedup_table`` and friends) up to
        pow-kernel rounding.
        """
        cache = self.surface_cache
        ppo = self.config.table_points_per_octave
        speeds = tuple(float(s) for s in type_speeds)
        tables: List[Optional[np.ndarray]] = [None] * len(jobs)
        # Jobs without a cached table: (index, table key, cells key, cells).
        missing: List[tuple] = []
        if cache is not None:
            for idx, (job, cap) in enumerate(zip(jobs, caps)):
                key = cache.speedup_key(job.report, cap, ppo, speeds)
                entry = cache.lookup(key)
                if entry is not None:
                    tables[idx] = entry[0]
                    continue
                # Second level: phi-free throughput cells survive across
                # rounds while only phi drifted (the steady-state case).
                ckey = cache.cells_key(job.report, cap, ppo, speeds)
                centry = cache.lookup(ckey)
                cells = TputCells(*centry) if centry is not None else None
                missing.append((idx, key, ckey, cells))
        else:
            missing = [(idx, None, None, None) for idx in range(len(jobs))]
        if missing:
            models = [jobs[idx].report.goodput_model() for idx, _, _, _ in missing]
            miss_caps = [caps[idx] for idx, _, _, _ in missing]
            to_build = [
                pos for pos, (_, _, _, cells) in enumerate(missing)
                if cells is None
            ]
            # Both passes run in blocks of jobs (see ``_TABLE_BLOCK_JOBS``),
            # all cells before any table, so values, store order and with
            # it the LRU state are those of one unblocked pass.
            for block in _blocks(to_build):
                built_cells = build_tput_cells(
                    [models[pos] for pos in block],
                    [miss_caps[pos] for pos in block],
                    points_per_octave=ppo,
                    type_speeds=speeds,
                )
                for pos, cells in zip(block, built_cells):
                    idx, key, ckey, _ = missing[pos]
                    if cache is not None:
                        # Copy out of the batch's shared backing arrays:
                        # a cached view would pin the whole block's buffer
                        # for as long as any one entry survives the LRU.
                        # The fold below reads the copies too, so the next
                        # block reuses this block's memory.
                        cells = TputCells(
                            *cache.store(
                                ckey,
                                (
                                    cells.tput.copy(),
                                    cells.m_cells.copy(),
                                    cells.counts.copy(),
                                ),
                            )
                        )
                    missing[pos] = (idx, key, ckey, cells)
            for block, block_models, block_caps in zip(
                _blocks(missing), _blocks(models), _blocks(miss_caps)
            ):
                built = build_speedup_tables_batch(
                    block_models,
                    block_caps,
                    points_per_octave=ppo,
                    type_speeds=speeds,
                    cells=[cells for _, _, _, cells in block],
                )
                for (idx, key, _, _), table in zip(block, built):
                    if cache is not None:
                        # A copy for the reason the cells are copied above.
                        (table,) = cache.store(key, (table.copy(),))
                    tables[idx] = table
        return tables

    def build_problem(self, jobs: Sequence[SchedJobInfo]) -> AllocationProblem:
        """Construct the GA allocation problem for one scheduling round.

        Speedup tables come from the shared :class:`SurfaceCache` when one
        is configured, so ``optimize``, ``utility``, and autoscaler probes
        that see the same reports within a tick build each job's table at
        most once; with caching disabled every table is rebuilt in place.
        The cache is grown to the round's working-set size first (see
        ``_CACHE_SLOTS_PER_JOB``); the misses are built in ragged batched
        surface passes.
        """
        cfg = self.config
        cache = self.surface_cache
        total_gpus = self.cluster.total_gpus
        type_speeds = self.cluster.type_speeds()
        if cache is not None and jobs:
            cache.ensure_capacity(
                max(cfg.surface_cache_size, len(jobs) * _CACHE_SLOTS_PER_JOB)
            )
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

    def _dirty_rows(
        self, jobs: Sequence[SchedJobInfo], sigs: Dict[str, tuple]
    ) -> np.ndarray:
        """(J,) bool mask of jobs whose scheduling inputs moved.

        A job is dirty when it is new, its phi-free signature
        (``theta_fingerprint()`` + exploration cap) changed, or its current
        allocation is no longer exactly what the previous round assigned
        (external reshapes, restarts mid-flight).  phi drift alone is
        clean by design — see ``PolluxSchedConfig.incremental``.
        """
        dirty = np.zeros(len(jobs), dtype=bool)
        for idx, job in enumerate(jobs):
            prev = self._last_sigs.get(job.job_id)
            last = self._last_allocs.get(job.job_id)
            if (
                prev is None
                or prev != sigs[job.job_id]
                or last is None
                or not np.array_equal(job.current_alloc, last)
            ):
                dirty[idx] = True
        return dirty

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
            self._last_sigs = {}
            self._last_allocs = {}
            self.last_utility = 0.0
            self.last_phase_timings = {}
            return {}

        t_start = time.perf_counter()
        cfg = self.config
        mutate_rows: Optional[np.ndarray] = None
        sigs: Dict[str, tuple] = {}
        if cfg.incremental:
            total_gpus = self.cluster.total_gpus
            sigs = {
                job.job_id: (
                    job.report.theta_fingerprint(),
                    job.report.exploration_cap(total_gpus),
                )
                for job in jobs
            }
            # Departures, resizes, a missing warm population, and the
            # periodic refresh all force an unrestricted round.
            full = (
                self._resized_since_round
                or self._population is None
                or bool(set(self._last_sigs) - set(job_ids))
                or (
                    cfg.incremental_refresh_every > 0
                    and self._rounds_since_full >= cfg.incremental_refresh_every
                )
            )
            if not full:
                dirty = self._dirty_rows(jobs, sigs)
                if not dirty.any():
                    # Clean round: nothing the GA could act on has moved —
                    # skip table builds and the GA, replay last round.
                    self._rounds_since_full += 1
                    self.last_phase_timings = {
                        "table_ms": 0.0,
                        "repair_ms": 0.0,
                        "fitness_ms": 0.0,
                        "select_ms": 0.0,
                        "mutate_ms": 0.0,
                        "skipped": 1.0,
                        "total_ms": (time.perf_counter() - t_start) * 1000.0,
                    }
                    return {
                        jid: self._last_allocs[jid].copy() for jid in job_ids
                    }
                mutate_rows = dirty
                self._rounds_since_full += 1
            else:
                self._rounds_since_full = 0

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
            best, _, population = optimizer.run(
                initial=initial, mutate_rows=mutate_rows
            )

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
        result = {jid: best[j].copy() for j, jid in enumerate(job_ids)}
        if cfg.incremental:
            self._last_sigs = sigs
            self._last_allocs = {
                jid: alloc.copy() for jid, alloc in result.items()
            }
        return result

    def utility(self, jobs: Sequence[SchedJobInfo], matrix: np.ndarray) -> float:
        """UTILITY(A) of an allocation matrix for these jobs (Eqn. 17)."""
        problem = self.build_problem(jobs)
        return problem.utility(matrix)
