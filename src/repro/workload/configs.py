"""Job configuration procedures used by the paper's evaluation.

Two ways the baseline schedulers' jobs get their fixed (#GPUs, batch size):

**TunedJobs (Sec. 5.2)** — the idealized setting.  The paper measures every
model offline and considers a number of GPUs *valid* if, using the optimal
batch size for that number of GPUs, the job achieves 50-80 % of the ideal
(linear) speedup versus the optimal batch size on a single GPU.  A tuned job
samples uniformly from its valid configurations.

**User-configured jobs (Sec. 5.3.1)** — the realistic setting.  The number
of GPUs comes from the (Philly-like) trace distribution, and the batch size
is random within a factor of 2 of the most efficient batch size for that
number of GPUs.

Both procedures evaluate *true* goodput (the offline measurement the paper
performs on its testbed), at a representative mid-training moment.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from ..core.efficiency import EfficiencyModel
from ..core.goodput import GoodputModel
from ..core.speedup import MULTI_NODE, SINGLE_NODE, build_speedup_tables_batch
from .models import MODEL_ZOO, Category, ModelProfile

__all__ = [
    "true_goodput_model",
    "valid_tuned_configs",
    "sample_tuned_config",
    "sample_user_config",
    "USER_GPU_DISTRIBUTIONS",
]

#: Progress fraction at which offline tuning measures goodput.  Mid-training
#: is representative of the paper's "fully trained each model" measurement.
TUNING_PROGRESS = 0.35

#: Speedup band (as fraction of ideal linear speedup) for valid tuned
#: configurations (Sec. 5.2).
TUNED_SPEEDUP_BAND = (0.5, 0.8)

#: Philly-like #GPU request distributions per category, for user-configured
#: jobs (Sec. 5.3.1: "the number of GPUs as specified in the Microsoft
#: traces").  Most users request few GPUs; larger jobs request more.
USER_GPU_DISTRIBUTIONS: Dict[str, Tuple[Tuple[int, float], ...]] = {
    Category.SMALL: ((1, 0.85), (2, 0.10), (4, 0.05)),
    Category.MEDIUM: ((1, 0.50), (2, 0.25), (4, 0.15), (8, 0.10)),
    Category.LARGE: ((1, 0.30), (2, 0.20), (4, 0.25), (8, 0.15), (16, 0.10)),
    Category.XLARGE: ((4, 0.20), (8, 0.40), (16, 0.30), (32, 0.10)),
}


def true_goodput_model(
    profile: ModelProfile, progress: float = TUNING_PROGRESS
) -> GoodputModel:
    """Ground-truth goodput model of a workload model at a progress point."""
    phi = profile.gns.phi(progress)
    return GoodputModel(
        profile.theta_true,
        EfficiencyModel(float(profile.init_batch_size), float(phi)),
        profile.limits,
    )


def _placement_flag(num_gpus: int, gpus_per_node: int) -> int:
    """Best-case placement flag: co-located if the job fits on one node."""
    return SINGLE_NODE if num_gpus <= gpus_per_node else MULTI_NODE


@lru_cache(maxsize=None)
def _tuning_tables(model_name: str, max_gpus: int) -> Tuple[np.ndarray, np.ndarray]:
    """(speedup table, best-batch-size table) at the tuning progress point."""
    profile = MODEL_ZOO[model_name]
    model = true_goodput_model(profile)
    [tables] = build_speedup_tables_batch([model], [max_gpus], batch_sizes=True)
    return tables


def valid_tuned_configs(
    profile: ModelProfile,
    max_gpus: int = 64,
    gpus_per_node: int = 4,
) -> List[Tuple[int, int]]:
    """All (num_gpus, batch_size) pairs valid per the Sec. 5.2 procedure.

    A GPU count K is valid when the speedup at its optimal batch size lies
    within 50-80 % of the ideal speedup K.  Below 50 % the job would
    under-utilize its GPUs; above 80 % it "can still be further parallelized
    efficiently" — which excludes K = 1 for every model (its speedup is
    100 % of ideal by definition).  If no K falls inside the band (a model
    that scales either perfectly or not at all), K = 1 is the fallback.
    """
    table, best_bs = _tuning_tables(profile.name, max_gpus)
    lo_frac, hi_frac = TUNED_SPEEDUP_BAND
    configs: List[Tuple[int, int]] = []
    for num_gpus in range(2, max_gpus + 1):
        flag = _placement_flag(num_gpus, gpus_per_node)
        sp = table[num_gpus, flag]
        if sp <= 0:
            continue
        if lo_frac * num_gpus <= sp <= hi_frac * num_gpus:
            configs.append((num_gpus, int(round(best_bs[num_gpus, flag]))))
    if not configs:
        configs.append((1, int(round(best_bs[1, SINGLE_NODE]))))
    return configs


def sample_tuned_config(
    profile: ModelProfile,
    rng: np.random.Generator,
    max_gpus: int = 64,
    gpus_per_node: int = 4,
) -> Tuple[int, int]:
    """Sample one ideal (num_gpus, batch_size) configuration (Sec. 5.2)."""
    configs = valid_tuned_configs(profile, max_gpus, gpus_per_node)
    idx = int(rng.integers(0, len(configs)))
    return configs[idx]


def sample_user_config(
    profile: ModelProfile,
    rng: np.random.Generator,
    max_gpus: int = 64,
    gpus_per_node: int = 4,
) -> Tuple[int, int]:
    """Sample one realistic user (num_gpus, batch_size) pair (Sec. 5.3.1).

    The GPU count follows the Philly-like per-category distribution; the
    batch size is log-uniform within a factor of 2 of the most efficient
    batch size for that GPU count, clipped to feasibility.
    """
    dist = USER_GPU_DISTRIBUTIONS[profile.category]
    choices = np.array([c for c, _ in dist], dtype=int)
    probs = np.array([p for _, p in dist], dtype=float)
    probs = probs / probs.sum()
    num_gpus = int(rng.choice(choices, p=probs))
    num_gpus = max(num_gpus, profile.limits.min_gpus())
    num_gpus = min(num_gpus, max_gpus)

    _, best_bs = _tuning_tables(profile.name, max_gpus)
    flag = _placement_flag(num_gpus, gpus_per_node)
    optimal = float(best_bs[num_gpus, flag])
    factor = float(np.exp(rng.uniform(-np.log(2.0), np.log(2.0))))
    batch_size = optimal * factor
    feasible = profile.limits.range_for(num_gpus)
    assert feasible is not None
    lo, hi = feasible
    batch_size = float(np.clip(batch_size, lo, hi))
    return num_gpus, int(round(batch_size))
