"""Optimus+Oracle baseline as a :class:`~repro.policy.base.Policy`.

Optimus [Peng et al., EuroSys 2018] learns a throughput model per job and
allocates GPUs greedily by *marginal gain*: each additional GPU goes to the
job whose predicted remaining time shrinks the most.  Following the paper's
evaluation setup (Sec. 5.2):

- the original parameter-server performance model is replaced by the
  Sec. 3.2 throughput model (here: the ground-truth model — the "+Oracle"
  idealization);
- the number of remaining iterations is known exactly (oracle), rather than
  extrapolated from the convergence curve;
- the batch size stays fixed at the user-submitted value; if that batch size
  does not fit in one GPU's memory, a minimum GPU count is enforced.

Optimus adapts *resources only*: the extra GPUs it allocates cannot be
exploited by larger batch sizes, which is exactly the gap Pollux closes.
Because it is an oracle policy, it requires job snapshots with the
ground-truth ``model`` and exact ``progress``/``target`` — i.e. a simulator
host; it declares neither ``adapts_batch_size`` nor ``needs_agent``.

On heterogeneous clusters, placement greedily prefers faster GPU types
(packing each job entirely inside the fastest group that fits); the
marginal-gain GPU counts themselves are computed with the reference-speed
oracle model.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..cluster.allocation import pack_allocation_typed
from ..cluster.spec import ClusterSpec
from .base import Policy, PolicyCapabilities, ScheduleDecision
from .registry import register
from .views import ClusterState, JobSnapshot

__all__ = ["OptimusPolicy"]


class OptimusPolicy(Policy):
    """Greedy marginal-gain GPU allocation with oracle job knowledge.

    Args:
        max_gpus_per_job: Upper bound on per-job GPU counts.
        reallocation_interval: Minimum seconds between re-computations of
            the GPU counts (the original Optimus adjusts allocations on a
            10-minute cadence; between re-computations only newly arrived
            or departed jobs trigger a fresh allocation).
        cluster: Accepted for registry uniformity; Optimus keeps no
            per-cluster state.
        seed: Recorded determinism knob; Optimus itself is deterministic.
    """

    name = "optimus+oracle"
    capabilities = PolicyCapabilities()

    def __init__(
        self,
        max_gpus_per_job: int = 64,
        reallocation_interval: float = 300.0,
        cluster: Optional[ClusterSpec] = None,
        seed: int = 0,
    ):
        del cluster
        if max_gpus_per_job < 1:
            raise ValueError("max_gpus_per_job must be >= 1")
        if reallocation_interval < 0:
            raise ValueError("reallocation_interval must be non-negative")
        self.max_gpus_per_job = max_gpus_per_job
        self.reallocation_interval = reallocation_interval
        self.seed = seed
        self._last_realloc = -float("inf")
        self._last_job_set: frozenset = frozenset()

    # ------------------------------------------------------------------
    # Oracle performance predictions
    # ------------------------------------------------------------------

    @staticmethod
    def _min_nodes_table(cluster: ClusterSpec) -> np.ndarray:
        """``table[k]``: fewest nodes that can host k GPUs (best-case
        packing onto the cluster's actual per-node capacities, so mixed
        node sizes are costed correctly; equals ceil(k / gpus_per_node) on
        homogeneous clusters)."""
        caps = np.sort(cluster.capacities())[::-1]
        cumulative = np.cumsum(caps)
        ks = np.arange(cluster.total_gpus + 1)
        return np.searchsorted(cumulative, ks) + 1

    @staticmethod
    def _rate(
        job: JobSnapshot, num_gpus: int, nodes_table: np.ndarray
    ) -> float:
        """Oracle progress rate (m0-equiv samples/s) at ``num_gpus``."""
        if num_gpus < 1:
            return 0.0
        batch_size = float(job.fixed_batch_size)
        feasible = job.model.limits.range_for(num_gpus)
        if feasible is None or not (feasible[0] <= batch_size <= feasible[1]):
            if batch_size > num_gpus * job.model.limits.max_local_bsz:
                return 0.0
        num_nodes = int(nodes_table[min(num_gpus, len(nodes_table) - 1)])
        tput = float(
            job.model.throughput_true.throughput(num_nodes, num_gpus, batch_size)
        )
        return tput * job.efficiency_true(batch_size)

    def _remaining_time(
        self, job: JobSnapshot, num_gpus: int, nodes_table: np.ndarray
    ) -> float:
        rate = self._rate(job, num_gpus, nodes_table)
        if rate <= 0:
            return float("inf")
        return job.remaining / rate

    def _min_gpus(self, job: JobSnapshot) -> int:
        """Smallest GPU count whose memory fits the fixed batch size."""
        max_local = job.model.limits.max_local_bsz
        return max(1, int(np.ceil(job.fixed_batch_size / max_local)))

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, now: float, state: ClusterState) -> ScheduleDecision:
        jobs = state.jobs
        cluster = state.cluster
        job_set = frozenset(job.name for job in jobs)
        if (
            now - self._last_realloc < self.reallocation_interval
            and job_set == self._last_job_set
        ):
            # Between reallocation points, keep all current allocations.
            return ScheduleDecision(allocations=self.keep_all(state))
        self._last_realloc = now
        self._last_job_set = job_set
        nodes_table = self._min_nodes_table(cluster)
        total_free = cluster.total_gpus
        counts: Dict[str, int] = {}

        # Base allocation: every job gets its minimum feasible GPU count,
        # shortest predicted remaining time first (Optimus minimizes the
        # average JCT, so under contention short jobs must not be starved
        # behind long ones), while capacity remains.
        ordered = sorted(
            jobs,
            key=lambda j: (
                self._remaining_time(j, self._min_gpus(j), nodes_table),
                j.submission_time,
                j.name,
            ),
        )
        for job in ordered:
            need = self._min_gpus(job)
            if need <= total_free:
                counts[job.name] = need
                total_free -= need
            else:
                counts[job.name] = 0

        # Greedy marginal gain: give each remaining GPU to the job whose
        # remaining time shrinks the most.
        def gain(job: JobSnapshot) -> float:
            k = counts[job.name]
            if k == 0 or k >= self.max_gpus_per_job:
                return 0.0
            before = self._remaining_time(job, k, nodes_table)
            after = self._remaining_time(job, k + 1, nodes_table)
            if not np.isfinite(before) or not np.isfinite(after):
                return 0.0
            return before - after

        gains = {job.name: gain(job) for job in ordered}
        by_name = {job.name: job for job in ordered}
        while total_free > 0:
            best_name = max(gains, key=lambda n: gains[n], default=None)
            if best_name is None or gains[best_name] <= 0:
                break
            counts[best_name] += 1
            total_free -= 1
            gains[best_name] = gain(by_name[best_name])

        # Placement: consolidate, largest jobs first.  Jobs whose GPU count
        # is unchanged keep their previous placement to avoid restarts.
        free = cluster.capacities().astype(np.int64)
        allocations: Dict[str, np.ndarray] = {}
        placement_order = sorted(
            ordered, key=lambda j: (-counts[j.name], j.submission_time, j.name)
        )
        for job in placement_order:
            count = counts[job.name]
            current = job.allocation
            if (
                count > 0
                and int(current.sum()) == count
                and current.shape == free.shape
                and np.all(current <= free)
            ):
                allocations[job.name] = current.copy()
                free = free - current
                continue
            alloc = pack_allocation_typed(cluster, count, free)
            if int(alloc.sum()) == count and count > 0:
                allocations[job.name] = alloc
                free = free - alloc
            else:
                allocations[job.name] = np.zeros(
                    cluster.num_nodes, dtype=np.int64
                )
        return ScheduleDecision(allocations=allocations)


register(
    "optimus",
    OptimusPolicy,
    aliases=("optimus+oracle",),
    description=(
        "Greedy marginal-gain GPU allocation with oracle job knowledge "
        "(resource-adaptive only; Peng et al., EuroSys 2018)"
    ),
)
