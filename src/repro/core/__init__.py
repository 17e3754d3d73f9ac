"""Pollux core: goodput modeling, job-level and cluster-wide optimization."""

from .adascale import adascale_gain
from .agent import AgentReport, PolluxAgent, optimistic_params
from .autoscale import AutoscaleConfig, AutoscaleDecision, UtilityAutoscaler
from .efficiency import EfficiencyModel, GradientStats, efficiency, gradient_noise_scale
from .genetic import AllocationProblem, GAConfig, GeneticOptimizer, JobGAInfo
from .goldensection import golden_section_search
from .goodput import BatchSizeLimits, GoodputModel, batch_size_grid
from .sched import PolluxSched, PolluxSchedConfig, SchedJobInfo, job_weight
from .speedup import build_speedup_tables_batch
from .surfacecache import CacheStats, SurfaceCache
from .throughput import (
    ExplorationState,
    ProfileEntry,
    ThroughputModel,
    ThroughputParams,
    fit_throughput_params,
    project_throughput_params,
    t_iter_scalar,
    throughput_scalar,
)

__all__ = [
    "adascale_gain",
    "AgentReport",
    "PolluxAgent",
    "optimistic_params",
    "AutoscaleConfig",
    "AutoscaleDecision",
    "UtilityAutoscaler",
    "EfficiencyModel",
    "GradientStats",
    "efficiency",
    "gradient_noise_scale",
    "AllocationProblem",
    "GAConfig",
    "GeneticOptimizer",
    "JobGAInfo",
    "golden_section_search",
    "BatchSizeLimits",
    "GoodputModel",
    "batch_size_grid",
    "PolluxSched",
    "PolluxSchedConfig",
    "SchedJobInfo",
    "job_weight",
    "build_speedup_tables_batch",
    "CacheStats",
    "SurfaceCache",
    "ExplorationState",
    "ProfileEntry",
    "ThroughputModel",
    "ThroughputParams",
    "fit_throughput_params",
    "project_throughput_params",
    "t_iter_scalar",
    "throughput_scalar",
]
