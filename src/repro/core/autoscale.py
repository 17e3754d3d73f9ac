"""Cloud auto-scaling (Sec. 4.2.2).

In cloud environments PolluxSched can provision and release GPU nodes.  It
defines the cluster resource utility of an allocation matrix A as

    UTILITY(A) = sum_j SPEEDUP_j(A_j) / TOTAL_GPUS          (Eqn. 17)

which always lies in [0, 1].  On typed clusters TOTAL_GPUS generalizes to
the capacity in slowest-type-GPU equivalents (see
:meth:`repro.core.genetic.AllocationProblem.utility`), preserving that
range so the operator band below stays meaningful on mixed fleets.  The operator supplies LOW_UTIL_THRES and
HIGH_UTIL_THRES; when the utility of the currently applied allocations falls
outside this band, PolluxSched binary-searches (assuming UTILITY decreases
with cluster size) for the node count whose utility is closest to the middle
of the band, re-running its genetic algorithm to evaluate each probed size.

Because SPEEDUP is goodput-based, the utility of a fixed cluster *rises* as a
job's statistical efficiency improves during training — which is exactly why
Pollux scales out large jobs late and keeps clusters small early (Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.spec import ClusterSpec, NodeSpec
from .genetic import GAConfig, GeneticOptimizer
from .sched import PolluxSched, PolluxSchedConfig, SchedJobInfo
from .surfacecache import SurfaceCache

__all__ = ["AutoscaleConfig", "AutoscaleDecision", "UtilityAutoscaler"]


@dataclass(frozen=True)
class AutoscaleConfig:
    """Operator knobs for cloud auto-scaling."""

    min_nodes: int = 1
    max_nodes: int = 16
    low_util_thres: float = 0.55
    high_util_thres: float = 0.85
    #: GA budget for each cluster-size probe.  ``patience=0``: probes are
    #: small, cold-started, fixed-budget searches, so plateau early-exit
    #: saves almost nothing but can freeze a probe in a local optimum
    #: (under-estimating the achievable utility systematically biases the
    #: binary search toward smaller clusters).
    probe_ga: GAConfig = field(
        default_factory=lambda: GAConfig(
            population_size=20, generations=10, seed=17, patience=0
        )
    )

    def __post_init__(self) -> None:
        if self.min_nodes < 1:
            raise ValueError("min_nodes must be >= 1")
        if self.max_nodes < self.min_nodes:
            raise ValueError("max_nodes must be >= min_nodes")
        if not (0.0 < self.low_util_thres < self.high_util_thres <= 1.0):
            raise ValueError(
                "thresholds must satisfy 0 < low < high <= 1, got "
                f"low={self.low_util_thres}, high={self.high_util_thres}"
            )

    @property
    def target_utility(self) -> float:
        """(LOW_UTIL_THRES + HIGH_UTIL_THRES) / 2."""
        return 0.5 * (self.low_util_thres + self.high_util_thres)


@dataclass(frozen=True)
class AutoscaleDecision:
    """Outcome of one auto-scaling evaluation."""

    num_nodes: int
    current_utility: float
    changed: bool
    probed: Tuple[Tuple[int, float], ...] = ()


class UtilityAutoscaler:
    """Chooses cluster sizes by goodput-based utility (Sec. 4.2.2).

    ``surface_cache`` is the live scheduler's: probed clusters share its
    type set, so probes at sizes whose exploration caps coincide fold their
    tables from the cells the scheduling round already built.  The probe
    GAs draw from ``config.probe_ga.seed``.
    """

    def __init__(
        self,
        config: AutoscaleConfig,
        surface_cache: SurfaceCache,
        sched_config: Optional[PolluxSchedConfig] = None,
    ):
        self.config = config
        self.surface_cache = surface_cache
        self.sched_config = (
            sched_config if sched_config is not None else PolluxSchedConfig()
        )

    def _utility_at(
        self,
        num_nodes: int,
        jobs: Sequence[SchedJobInfo],
        cluster: ClusterSpec,
        grow_with: Optional[NodeSpec] = None,
    ) -> float:
        """Best achievable UTILITY on ``cluster`` resized to ``num_nodes``.

        Runs a (small-budget) GA on the probed cluster, which keeps
        ``cluster``'s GPU types and per-node shapes and grows with
        ``grow_with``, and evaluates Eqn. 17 on the best allocation matrix
        found.
        """
        cluster = cluster.resized(num_nodes, grow_with=grow_with)
        probe_cfg = PolluxSchedConfig(
            restart_penalty=0.0,  # probes are hypothetical; no restarts paid
            forbid_interference=self.sched_config.forbid_interference,
            gputime_thres=self.sched_config.gputime_thres,
            weight_decay=self.sched_config.weight_decay,
            ga=self.config.probe_ga,
        )
        sched = PolluxSched(cluster, probe_cfg, surface_cache=self.surface_cache)
        probe_jobs = [
            SchedJobInfo(
                job_id=j.job_id,
                report=j.report,
                current_alloc=np.zeros(num_nodes, dtype=np.int64),
                gputime=j.gputime,
            )
            for j in jobs
        ]
        problem = sched.build_problem(probe_jobs)
        best, _, _ = GeneticOptimizer(problem, probe_cfg.ga).run()
        return problem.utility(best)

    def decide(
        self,
        current_utility: float,
        jobs: Sequence[SchedJobInfo],
        cluster: ClusterSpec,
        grow_with: Optional[NodeSpec] = None,
    ) -> AutoscaleDecision:
        """Decide the next size of ``cluster``.

        If the utility of the *applied* allocations is within the operator
        band, the size is kept.  Otherwise, binary search for the size whose
        achievable utility is closest to the band's midpoint, probing
        ``cluster`` resized (grown with ``grow_with``, the node spec the
        caller will grow by) so typed fleets are evaluated as they are.
        """
        current_nodes = cluster.num_nodes
        cfg = self.config
        if not jobs:
            return AutoscaleDecision(cfg.min_nodes, 0.0, cfg.min_nodes != current_nodes)
        in_band = cfg.low_util_thres <= current_utility <= cfg.high_util_thres
        if in_band:
            return AutoscaleDecision(current_nodes, current_utility, False)

        target = cfg.target_utility
        lo, hi = cfg.min_nodes, cfg.max_nodes
        probed: List[Tuple[int, float]] = []
        # UTILITY decreases with cluster size: find the smallest size whose
        # utility is <= target, then compare with its neighbor.
        while lo < hi:
            mid = (lo + hi) // 2
            util = self._utility_at(mid, jobs, cluster, grow_with)
            probed.append((mid, util))
            if util > target:
                lo = mid + 1
            else:
                hi = mid
        best_nodes = lo
        best_util = dict(probed).get(best_nodes)
        if best_util is None:
            best_util = self._utility_at(best_nodes, jobs, cluster, grow_with)
            probed.append((best_nodes, best_util))
        if best_nodes > cfg.min_nodes:
            below = best_nodes - 1
            util_below = dict(probed).get(below)
            if util_below is None:
                util_below = self._utility_at(below, jobs, cluster, grow_with)
                probed.append((below, util_below))
            if abs(util_below - target) < abs(best_util - target):
                best_nodes = below
        return AutoscaleDecision(
            num_nodes=best_nodes,
            current_utility=current_utility,
            changed=best_nodes != current_nodes,
            probed=tuple(probed),
        )
