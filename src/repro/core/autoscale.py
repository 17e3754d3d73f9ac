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
    """Chooses cluster sizes by goodput-based utility (Sec. 4.2.2)."""

    def __init__(
        self,
        config: AutoscaleConfig,
        sched_config: Optional[PolluxSchedConfig] = None,
        gpus_per_node: int = 4,
        seed: int = 0,
    ):
        self.config = config
        self.sched_config = (
            sched_config if sched_config is not None else PolluxSchedConfig()
        )
        self.gpus_per_node = gpus_per_node
        self._seed = seed
        #: Fallback surface cache shared across this autoscaler's probes
        #: when the caller does not pass the live scheduler's cache.
        self.surface_cache = SurfaceCache()

    def _utility_at(
        self,
        num_nodes: int,
        jobs: Sequence[SchedJobInfo],
        cluster: Optional[ClusterSpec] = None,
        grow_with: Optional[NodeSpec] = None,
        surface_cache: Optional[SurfaceCache] = None,
    ) -> float:
        """Best achievable UTILITY on a cluster of ``num_nodes`` nodes.

        Runs a (small-budget) GA on the probed cluster size and evaluates
        Eqn. 17 on the best allocation matrix found.  When ``cluster`` is
        given, the probe resizes *that* cluster (preserving its GPU types
        and per-node shapes, growing with ``grow_with``); otherwise it
        probes a homogeneous reference fleet of ``gpus_per_node``-GPU nodes.
        ``surface_cache`` (typically the live scheduler's) lets the probe
        reuse the speedup tables the round already built: probed clusters
        share the live type set, so probes at sizes whose exploration caps
        coincide hit the cache instead of rebuilding every job's table.
        """
        if surface_cache is None:
            surface_cache = self.surface_cache
        if cluster is not None:
            cluster = cluster.resized(num_nodes, grow_with=grow_with)
        else:
            cluster = ClusterSpec.homogeneous(num_nodes, self.gpus_per_node)
        probe_cfg = PolluxSchedConfig(
            restart_penalty=0.0,  # probes are hypothetical; no restarts paid
            forbid_interference=self.sched_config.forbid_interference,
            gputime_thres=self.sched_config.gputime_thres,
            weight_decay=self.sched_config.weight_decay,
            ga=self.config.probe_ga,
        )
        sched = PolluxSched(
            cluster, probe_cfg, seed=self._seed, surface_cache=surface_cache
        )
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
        current_nodes: int,
        current_utility: float,
        jobs: Sequence[SchedJobInfo],
        cluster: Optional[ClusterSpec] = None,
        grow_with: Optional[NodeSpec] = None,
        surface_cache: Optional[SurfaceCache] = None,
    ) -> AutoscaleDecision:
        """Decide the next cluster size.

        If the utility of the *applied* allocations is within the operator
        band, the size is kept.  Otherwise, binary search for the size whose
        achievable utility is closest to the band's midpoint.  On typed
        fleets pass ``cluster`` (and the ``grow_with`` node spec the caller
        will grow by) so the probes evaluate the real node types instead of
        the homogeneous reference fleet.  ``surface_cache`` (normally the
        live scheduler's) deduplicates speedup-table builds across the
        probes and the scheduling round itself.
        """
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
            util = self._utility_at(mid, jobs, cluster, grow_with, surface_cache)
            probed.append((mid, util))
            if util > target:
                lo = mid + 1
            else:
                hi = mid
        best_nodes = lo
        best_util = dict(probed).get(best_nodes)
        if best_util is None:
            best_util = self._utility_at(
                best_nodes, jobs, cluster, grow_with, surface_cache
            )
            probed.append((best_nodes, best_util))
        if best_nodes > cfg.min_nodes:
            below = best_nodes - 1
            util_below = dict(probed).get(below)
            if util_below is None:
                util_below = self._utility_at(
                    below, jobs, cluster, grow_with, surface_cache
                )
                probed.append((below, util_below))
            if abs(util_below - target) < abs(best_util - target):
                best_nodes = below
        return AutoscaleDecision(
            num_nodes=best_nodes,
            current_utility=current_utility,
            changed=best_nodes != current_nodes,
            probed=tuple(probed),
        )
