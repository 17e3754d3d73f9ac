"""``pollux-sharded``: per-cell Pollux scheduling behind the Policy API.

One warm-started :class:`~repro.core.sched.PolluxSched` per cell, a cheap
top-level balancer for arrivals and migrations, and a full-cluster decision
stitched from the per-cell results each round.  See the package docstring
(:mod:`repro.shard`) for the scaling-out walkthrough.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.spec import ClusterSpec
from ..core.sched import PolluxSched, PolluxSchedConfig, SchedJobInfo
from ..policy.base import Policy, PolicyCapabilities, ScheduleDecision
from ..policy.registry import register
from ..policy.views import ClusterState, JobSnapshot
from .executor import CellResult, make_executor
from .partition import Cell, CellPartitioner, TypeCellPartitioner, validate_partition

__all__ = ["ShardedPolicy"]


class ShardedPolicy(Policy):
    """Sharded goodput-optimizing scheduling: one Pollux GA per cell.

    Args:
        cluster: The cluster to schedule; partitioned into cells at
            construction (and re-partitioned whenever the node layout
            changes).
        config: Per-cell :class:`~repro.core.sched.PolluxSchedConfig`
            (every cell scheduler gets the same one — including
            ``incremental`` and ``cells_path``, which compose with
            sharding unchanged).
        seed: Cell ``i`` seeds its scheduler with ``seed + i``, so the
            single-cell default on a homogeneous cluster runs the exact
            RNG stream of an unsharded ``PolluxSched(cluster, config,
            seed)`` (pinned bit-for-bit in ``tests/test_shard.py``).
        partitioner: Cell strategy; defaults to
            :class:`~repro.shard.partition.TypeCellPartitioner` (one cell
            per GPU type).
        execution: Cell-round backend: ``"thread"`` (default, in-process
            schedulers on a ``shard-cell`` thread pool) or ``"process"``
            (persistent worker processes, one warm scheduler per cell,
            fed compact deltas — see :mod:`repro.shard.executor`).  Both
            produce the same decision stream bit-for-bit at a fixed seed.
        max_workers: Concurrency width for cell rounds (threads or worker
            processes), capped at the cell count; defaults to the usable
            core count (:func:`~repro.shard.executor.fanout_width`).
        start_method: ``multiprocessing`` start method for
            ``execution="process"`` (``None`` = fork where available,
            else spawn); ignored by the thread backend.
        round_timeout: Per-round worker reply timeout in seconds for
            ``execution="process"``; a timed-out worker's cells fall back
            to an in-process round (never a lost dispatch).  ``None``
            (default) waits indefinitely, like the thread backend.
        migrate_every: Balance check cadence in rounds (0 disables
            migration).
        migration_threshold: Minimum donor/receiver load ratio (jobs per
            GPU-equivalent) before one job migrates per check.
    """

    name = "pollux-sharded"

    def __init__(
        self,
        cluster: ClusterSpec,
        config: Optional[PolluxSchedConfig] = None,
        seed: int = 0,
        partitioner: Optional[CellPartitioner] = None,
        execution: str = "thread",
        max_workers: Optional[int] = None,
        start_method: Optional[str] = None,
        round_timeout: Optional[float] = None,
        migrate_every: int = 5,
        migration_threshold: float = 1.5,
    ):
        if migrate_every < 0:
            raise ValueError("migrate_every must be non-negative")
        if migration_threshold < 1.0:
            raise ValueError("migration_threshold must be >= 1.0")
        self.cluster = cluster
        self.config = config if config is not None else PolluxSchedConfig()
        self.seed = seed
        self.partitioner = (
            partitioner if partitioner is not None else TypeCellPartitioner()
        )
        self.execution = execution
        self.max_workers = max_workers
        self.migrate_every = int(migrate_every)
        self.migration_threshold = float(migration_threshold)
        self.capabilities = PolicyCapabilities(
            adapts_batch_size=True, needs_agent=True
        )
        self.last_utility = 0.0
        self.last_phase_timings: Dict[str, float] = {}
        #: Cluster-level round report: per-cell utility/timings, per-phase
        #: sum and max aggregates and the fan-out width the round ran at
        #: (see :meth:`_update_telemetry`).
        self.last_round_report: Dict[str, object] = {}
        #: Jobs migrated between cells so far (telemetry).
        self.migrations = 0
        self._assignment: Dict[str, int] = {}
        self._executor = make_executor(
            execution,
            max_workers=max_workers,
            start_method=start_method,
            round_timeout=round_timeout,
        )
        self._rounds = 0
        self._build_cells(cluster)

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------

    @property
    def cells(self) -> Tuple[Cell, ...]:
        """The current partition (read-only)."""
        return self._cells

    @property
    def cell_schedulers(self) -> Tuple[PolluxSched, ...]:
        """Per-cell schedulers, aligned with :attr:`cells`.

        Thread backend only: under ``execution="process"`` the schedulers
        live inside worker processes and this is ``()``.
        """
        return self._executor.schedulers

    @property
    def fallback_rounds(self) -> int:
        """Cell rounds that fell back in-process after a worker failure."""
        return self._executor.fallback_rounds

    @property
    def assignment(self) -> Dict[str, int]:
        """job name -> cell index (a copy)."""
        return dict(self._assignment)

    def _build_cells(self, cluster: ClusterSpec) -> None:
        self._cells = tuple(self.partitioner.partition(cluster))
        validate_partition(cluster, self._cells)
        self._index_arrays = [
            np.asarray(cell.node_indices, dtype=np.int64) for cell in self._cells
        ]
        self._capacity_eq = np.array(
            [cell.capacity_eq(cluster) for cell in self._cells]
        )
        self._executor.configure(cluster, self._cells, self.config, self.seed)

    def close(self) -> None:
        """Release executor resources (threads or worker processes).

        Idempotent, and not final: a closed policy revives its executor
        on the next :meth:`schedule` (the process backend even re-ships
        the warm throughput cells it harvested at close).  Hosts call
        this at the end of a run; ``__del__`` is only the safety net.
        """
        self._executor.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety
        try:
            executor = getattr(self, "_executor", None)
            if executor is not None:
                executor.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Balancer
    # ------------------------------------------------------------------

    def _cell_job_counts(self) -> np.ndarray:
        counts = np.zeros(len(self._cells), dtype=np.int64)
        for cell_idx in self._assignment.values():
            counts[cell_idx] += 1
        return counts

    def _assign_arrivals(self, jobs: Sequence[JobSnapshot]) -> None:
        """Place new jobs on the cell with the most headroom.

        The signal is GPU-equivalents per resident job *after* placement —
        a cheap stand-in for the marginal goodput a cell can offer the
        arrival; ties break toward the lowest cell index (deterministic,
        RNG-free, so sharding adds no random draws of its own).
        """
        counts = self._cell_job_counts()
        for snap in jobs:
            if snap.name in self._assignment:
                continue
            scores = self._capacity_eq / (1.0 + counts)
            cell_idx = int(np.argmax(scores))
            self._assignment[snap.name] = cell_idx
            counts[cell_idx] += 1

    def _rebalance(self, jobs: Sequence[JobSnapshot]) -> None:
        """Migrate one job from the most- to the least-loaded cell.

        Load is resident jobs per GPU-equivalent.  A migration only fires
        when the donor/receiver ratio exceeds ``migration_threshold``, and
        moves the donor job with the smallest current allocation (pending
        jobs first — their move is restart-free; a running job's move is
        charged as a restart by the host's normal allocation-change
        accounting, since its old-cell GPUs are explicitly zeroed in the
        stitched decision).  One job per check keeps the balancer cheap
        and monotonically converging.
        """
        if len(self._cells) < 2 or not jobs:
            return
        counts = self._cell_job_counts()
        load = counts / self._capacity_eq
        donor = int(np.argmax(load))
        receiver = int(np.argmin(load))
        if donor == receiver or counts[donor] == 0:
            return
        if load[donor] <= self.migration_threshold * load[receiver]:
            return
        candidates = [
            snap for snap in jobs if self._assignment.get(snap.name) == donor
        ]
        if not candidates:
            return
        mover = min(candidates, key=lambda snap: int(snap.allocation.sum()))
        self._assignment[mover.name] = receiver
        self.migrations += 1

    # ------------------------------------------------------------------
    # Policy API
    # ------------------------------------------------------------------

    def schedule(self, now: float, state: ClusterState) -> ScheduleDecision:
        del now
        if state.cluster.nodes != self.cluster.nodes:
            # Node layout changed: re-partition from scratch.  Warm GA
            # state does not survive (cells may have been redrawn
            # arbitrarily); the next round per cell is a cold start.
            self.cluster = state.cluster
            self._build_cells(state.cluster)
            self._assignment = {}
        active = {snap.name for snap in state.jobs}
        for name in [n for n in self._assignment if n not in active]:
            del self._assignment[name]
        self._assign_arrivals(state.jobs)
        self._rounds += 1
        if self.migrate_every > 0 and self._rounds % self.migrate_every == 0:
            self._rebalance(state.jobs)

        per_cell_jobs: List[List[JobSnapshot]] = [[] for _ in self._cells]
        for snap in state.jobs:
            per_cell_jobs[self._assignment[snap.name]].append(snap)

        rounds = [
            self._infos(per_cell_jobs[idx], self._index_arrays[idx])
            for idx in range(len(self._cells))
        ]
        results = self._executor.run_rounds(rounds)

        num_nodes = self.cluster.num_nodes
        allocations: Dict[str, np.ndarray] = {}
        for snap in state.jobs:
            cell_idx = self._assignment[snap.name]
            full = np.zeros(num_nodes, dtype=np.int64)
            full[self._index_arrays[cell_idx]] = results[cell_idx].allocations[
                snap.name
            ]
            allocations[snap.name] = full

        self._update_telemetry(results)
        return ScheduleDecision(allocations=allocations)

    @staticmethod
    def _infos(
        jobs: Sequence[JobSnapshot], node_indices: np.ndarray
    ) -> List[SchedJobInfo]:
        infos = []
        for snap in jobs:
            if snap.agent_report is None:
                raise ValueError(
                    f"job {snap.name!r} has no agent report; the sharded "
                    "Pollux policy requires a host that honors needs_agent"
                )
            infos.append(
                SchedJobInfo(
                    job_id=snap.name,
                    report=snap.agent_report,
                    current_alloc=snap.allocation[node_indices],
                    gputime=snap.gputime,
                )
            )
        return infos

    def _update_telemetry(self, results: Sequence[CellResult]) -> None:
        """Aggregate per-cell utility and phase timings.

        ``last_utility`` is the capacity-weighted mean of the cells' own
        UTILITY values — each cell normalizes against its *own* slowest
        GPU type, so the aggregate is a telemetry approximation (exact
        when there is one cell, which is also the only case compared
        against unsharded numbers bit-for-bit).

        ``last_phase_timings`` stays the per-phase *sum* across cells
        (the unsharded policy's shape — e.g. a summed ``skipped`` still
        means "at least one cell skipped").  The richer
        :attr:`last_round_report` adds the per-phase max (the critical
        path under a concurrent executor), the full per-cell breakdown —
        including ``ipc_ms`` under the process executor and ``wait_ms``
        under the thread pool's GA gate, neither inside ``total_ms`` — and the
        executor's cumulative fallback count, so a regression localizes
        to a phase *and* a cell under either backend.  ``width`` is the
        number of threads or worker processes the round ran on:
        ``sum.total_ms / (max.total_ms * width)`` reads as the fan-out's
        efficiency, and a width above the host's core count is itself
        the finding (cell wall clocks then stretch to the whole round,
        so that ratio looks healthy while the work is serialized).
        """
        total_cap = float(self._capacity_eq.sum())
        self.last_utility = float(
            sum(
                result.utility * cap
                for result, cap in zip(results, self._capacity_eq)
            )
            / total_cap
        )
        summed: Dict[str, float] = {}
        maxed: Dict[str, float] = {}
        per_cell = []
        for cell, result in zip(self._cells, results):
            for key, value in result.phase_timings.items():
                summed[key] = summed.get(key, 0.0) + float(value)
                maxed[key] = max(maxed.get(key, 0.0), float(value))
            per_cell.append(
                {
                    "cell": cell.name,
                    "utility": float(result.utility),
                    "fallback": bool(result.fallback),
                    "timings": dict(result.phase_timings),
                }
            )
        self.last_phase_timings = summed
        self.last_round_report = {
            "sum": summed,
            "max": maxed,
            "per_cell": per_cell,
            "width": self._executor.width,
            "fallback_rounds": self._executor.fallback_rounds,
        }


register(
    "pollux-sharded",
    ShardedPolicy,
    description=(
        "Sharded Pollux: one warm-started per-cell GA (default: one cell "
        "per GPU type) with a top-level arrival/migration balancer; "
        "single-cell configs reproduce unsharded pollux bit-for-bit, and "
        "execution='process' runs cells in persistent worker processes "
        "with the identical decision stream"
    ),
)
