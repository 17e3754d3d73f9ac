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

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.spec import ClusterSpec
from .agent import AgentReport
from .genetic import AllocationProblem, GAConfig, GeneticOptimizer, JobGAInfo
from .speedup import (
    SINGLE_NODE,
    TputCells,
    all_rows,
    build_tput_cells,
    fold_rows,
    normalization_rows,
    normalize_rows,
)
from .surfacecache import RowCells, SurfaceCache

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

#: Round size, in table rows (the sum of the jobs' exploration caps),
#: below which ``build_problem`` fills every row at construction; larger
#: rounds fill only the rows their GA reaches.  Each on-demand fill is one
#: more pass of the row kernel, ~0.3-1 ms of mostly fixed numpy overhead,
#: and a round makes one per fitness call that reaches a new row (10-15 of
#: them), so small rounds are cheaper built whole.  Measured on cold
#: rounds (process CPU time, 2-core host): eager wins at 200 rows (a
#: 16-GPU trace simulation's largest), the two tie at 400-800, on-demand
#: wins by 15-20% at ~1,150 rows and by ~2x at 4-8k; steady rounds tie at
#: every size.  1,024 sits just above the tie, where the 12-job live
#: rounds of a 64-GPU service (up to ~700 rows) stay on one side.
_EAGER_MAX_ROWS = 1024


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


class _RowFill:
    """The on-demand speedup rows of one round (``AllocationProblem``'s fill).

    Holds each job's cache entry, looked up once per job at construction;
    a call folds the requested (job, k) rows from the entries' cells,
    building the missing cells first in one :func:`build_tput_cells` pass
    and adding them to the entries.  The first call must hold every job's
    :func:`normalization_rows` row: it fixes the SPEEDUP denominators.
    """

    def __init__(
        self,
        cache: SurfaceCache,
        jobs: Sequence[SchedJobInfo],
        caps: np.ndarray,
        speeds: tuple,
    ):
        keys = [
            cache.cells_key(job.report, cap, speeds) for job, cap in zip(jobs, caps)
        ]
        entries: List[Optional[RowCells]] = [cache.lookup(key) for key in keys]
        for idx, entry in enumerate(entries):
            if entry is None:
                entries[idx] = cache.store(keys[idx], RowCells(int(caps[idx])))
        self.entries = entries
        self.stats = cache.stats
        self.models = [job.report.goodput_model() for job in jobs]
        self.caps = caps
        self.speeds = speeds
        self.norm_k, self.has_norm = normalization_rows(self.models, caps)
        self.denom: Optional[np.ndarray] = None

    def _models(self, job: np.ndarray) -> Tuple[list, np.ndarray, np.ndarray]:
        """The models and caps ``job`` (sorted) reaches, and ``job``
        re-indexed into them."""
        new = job[1:] != job[:-1]
        used = job[np.concatenate(([True], new))]
        local = np.concatenate(([0], np.cumsum(new)))
        return [self.models[j] for j in used.tolist()], self.caps[used], local

    def _build(self, job: np.ndarray, k: np.ndarray) -> TputCells:
        """Build the cells of rows (job, k), sorted by job, into the
        entries: one copy per job's run of rows."""
        models, caps, local = self._models(job)
        built = build_tput_cells(
            models, caps, TABLE_POINTS_PER_OCTAVE, self.speeds, rows=(local, k)
        )
        runs = np.flatnonzero(np.diff(job)) + 1
        row_bounds = [0, *runs.tolist(), len(job)]
        cell_bounds = np.concatenate([[0], np.cumsum(built.counts)])[row_bounds]
        for r0, r1, c0, c1 in zip(
            row_bounds, row_bounds[1:], cell_bounds.tolist(), cell_bounds[1:].tolist()
        ):
            self.entries[int(job[r0])].add(
                k[r0:r1].tolist(),
                TputCells(
                    built.tput[:, :, c0:c1], built.m_cells[c0:c1], built.counts[r0:r1]
                ),
            )
        return built

    def _cells(self, job: np.ndarray, k: np.ndarray) -> List[TputCells]:
        """The cells of rows (job, k) in pieces, built where no entry
        holds them."""
        entries = self.entries
        if len(job) == int(self.caps.sum()):
            # Every row: an eager round, read whole jobs.
            missing = [j for j, entry in enumerate(entries) if entry.full is None]
            if missing:
                miss = np.array(missing)
                local, rows_k = all_rows(self.caps[miss])
                built = self._build(miss[local], rows_k)
                if len(missing) == len(entries):
                    return [built]
            return [entry.full for entry in entries]
        pairs = list(zip(job.tolist(), k.tolist()))
        missing = [i for i, (j, kk) in enumerate(pairs) if not entries[j].has(kk)]
        if missing:
            built = self._build(job[missing], k[missing])
            if len(missing) == len(pairs):
                return [built]
        tput, m_cells = zip(*[entries[j].row(kk) for j, kk in pairs])
        return [
            TputCells(
                np.concatenate(tput, axis=-1),
                np.concatenate(m_cells),
                np.array([m.size for m in m_cells], dtype=np.int64),
            )
        ]

    def __call__(self, job: np.ndarray, k: np.ndarray) -> np.ndarray:
        cells = self._cells(job, k)
        models, _, local = self._models(job)
        best, _ = fold_rows(models, (local, k), cells)
        if self.denom is None:
            stride = int(self.caps.max()) + 1
            at = np.searchsorted(
                job * stride + k, np.arange(len(self.caps)) * stride + self.norm_k
            )
            ref_type = int(np.argmin(self.speeds))
            self.denom = np.where(self.has_norm, best[SINGLE_NODE, ref_type, at], 0.0)
        self.stats.rows_folded += len(job)
        return normalize_rows(best, job, self.denom).transpose(2, 0, 1)


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
        #: ``table_ms`` (speedup-table rows: the prefill and every fill
        #: the GA's lookups make, which ``fitness_ms`` leaves out), the GA
        #: engine's ``repair_ms``/``fitness_ms``/``select_ms``/``mutate_ms``, and
        #: ``total_ms``.  Lets perf regressions localize to a phase: the
        #: perf ledger's traced runs read it every round into its
        #: ``core.*_ms_mean`` rows (``benchmarks/e2e/``).
        self.last_phase_timings: Dict[str, float] = {}
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

    def build_problem(
        self,
        jobs: Sequence[SchedJobInfo],
        population: Optional[np.ndarray] = None,
    ) -> AllocationProblem:
        """Construct the GA allocation problem for one scheduling round.

        The problem's speedup table fills on demand (:class:`_RowFill`):
        built here are each job's normalization row, the row of its
        current allocation and those of ``population`` (the bootstrap the
        GA will seed from), or every row of a round under
        ``_EAGER_MAX_ROWS``; the GA's lookups fill the rest as they reach
        them.  Cells come from the shared :class:`SurfaceCache`, so
        ``optimize``, ``utility``, and autoscaler probes build each row's
        cells at most once per (theta_sys, cap, type set).  The cache is grown
        to the round's working-set size first (see
        ``_CACHE_SLOTS_PER_JOB``).
        """
        cfg = self.config
        total_gpus = self.cluster.total_gpus
        speeds = tuple(float(s) for s in self.cluster.type_speeds())
        cache = self.surface_cache
        cache.ensure_capacity(len(jobs) * _CACHE_SLOTS_PER_JOB)
        caps = np.array(
            [job.report.exploration_cap(total_gpus) for job in jobs], dtype=np.int64
        )
        fill = _RowFill(cache, jobs, caps, speeds)
        cache.stats.misses += len(jobs)
        ga_jobs = [
            JobGAInfo(
                speedup_table=None,
                weight=job_weight(job.gputime, cfg.gputime_thres, cfg.weight_decay),
                max_gpus=int(cap),
                current_alloc=job.current_alloc,
                running=bool(job.current_alloc.sum() > 0),
            )
            for job, cap in zip(jobs, caps)
        ]
        problem = AllocationProblem(
            self.cluster,
            ga_jobs,
            restart_penalty=cfg.restart_penalty,
            forbid_interference=cfg.forbid_interference,
            fill=fill,
        )
        if caps.sum() < _EAGER_MAX_ROWS:
            problem.ensure_rows(*all_rows(caps))
        else:
            held = [problem.current.sum(axis=-1)[None]]
            if population is not None:
                held.append(population.sum(axis=-1))
            k = np.minimum(np.concatenate([fill.norm_k[None], *held]), caps)
            problem.ensure_rows(np.broadcast_to(np.arange(len(jobs)), k.shape), k)
        return problem

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
        initial = self._bootstrap_population(job_ids)
        problem = self.build_problem(jobs, initial)
        t_tables = time.perf_counter()
        prefill_ms = problem.fill_ms
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
        best, _, population = optimizer.run(initial=initial)

        self._population = population
        self._population_job_ids = list(job_ids)
        self.last_utility = problem.utility(best)
        self.last_phase_timings = {
            "table_ms": (t_tables - t_start) * 1000.0 + problem.fill_ms - prefill_ms,
            **optimizer.phase_ms,
            "total_ms": (time.perf_counter() - t_start) * 1000.0,
        }
        return {jid: best[j].copy() for j, jid in enumerate(job_ids)}

    def utility(self, jobs: Sequence[SchedJobInfo], matrix: np.ndarray) -> float:
        """UTILITY(A) of an allocation matrix for these jobs (Eqn. 17)."""
        problem = self.build_problem(jobs)
        return problem.utility(matrix)
