"""The goodput of DL training (Sec. 3, Definition 3.1).

    GOODPUT_t(a, m) = THROUGHPUT(a, m) * EFFICIENCY_t(m)    (Eqn. 6)

A job's goodput is the rate at which it makes *statistical* progress,
measured in m0-equivalent training samples per second.  It is always at most
the throughput, with equality only at perfect statistical efficiency.

This module combines a :class:`~repro.core.throughput.ThroughputModel` with
an :class:`~repro.core.efficiency.EfficiencyModel` and provides the
batch-size maximization of Eqn. 13: golden-section over the unimodal
GOODPUT(a, .), and the geometric-grid argmax an agent tunes by
(``PolluxAgent.tune_batch_size``).  The speedup tables the genetic
algorithm reads take the same grid maximum for every (K, placement) at
once, in :mod:`repro.core.speedup`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .efficiency import EfficiencyModel, efficiency_scalar
from .goldensection import golden_section_search
from .throughput import ThroughputModel, ThroughputParams, t_iter_scalar

__all__ = ["BatchSizeLimits", "GoodputModel", "batch_size_grid"]


@dataclass(frozen=True)
class BatchSizeLimits:
    """Constraints on the total batch size m for one job.

    Pollux only considers m >= m0 (Sec. 3) and a GPU can hold at most
    ``max_local_bsz`` samples, so K GPUs support m <= K * max_local_bsz.
    ``max_batch_size`` is an application-level cap (beyond which the user
    forbids scaling, e.g. for generalization concerns).
    """

    init_batch_size: float
    max_batch_size: float
    max_local_bsz: float

    def __post_init__(self) -> None:
        if self.init_batch_size <= 0:
            raise ValueError("init_batch_size must be positive")
        if self.max_batch_size < self.init_batch_size:
            raise ValueError("max_batch_size must be >= init_batch_size")
        if self.max_local_bsz <= 0:
            raise ValueError("max_local_bsz must be positive")

    def range_for(self, num_gpus: int) -> Optional[Tuple[float, float]]:
        """Feasible [lo, hi] total batch size for K GPUs, or None.

        ``None`` means the initial batch size itself does not fit on the
        given number of GPUs (the job needs more GPUs to run at all).
        """
        if num_gpus < 1:
            return None
        hi = min(self.max_batch_size, num_gpus * self.max_local_bsz)
        lo = self.init_batch_size
        if hi < lo:
            return None
        return lo, hi

    def min_gpus(self) -> int:
        """Minimum number of GPUs on which the initial batch size fits."""
        return int(np.ceil(self.init_batch_size / self.max_local_bsz))


def batch_size_grid(lo: float, hi: float, points_per_octave: int = 16) -> np.ndarray:
    """Geometric grid of candidate batch sizes in [lo, hi], inclusive.

    Used for vectorized maximization of the (unimodal) goodput over m.
    """
    if lo <= 0 or hi < lo:
        raise ValueError(f"invalid range [{lo}, {hi}]")
    if hi == lo:
        return np.array([lo], dtype=float)
    num = max(2, int(np.ceil(np.log2(hi / lo) * points_per_octave)) + 1)
    return np.geomspace(lo, hi, num=num)


class GoodputModel:
    """GOODPUT(a, m) for one job at one training moment (Eqn. 6)."""

    def __init__(
        self,
        throughput_params: ThroughputParams,
        efficiency_model: EfficiencyModel,
        limits: BatchSizeLimits,
    ):
        self.throughput_model = ThroughputModel(throughput_params)
        self.efficiency_model = efficiency_model
        self.limits = limits
        if efficiency_model.init_batch_size != limits.init_batch_size:
            raise ValueError(
                "efficiency model and batch size limits disagree on m0: "
                f"{efficiency_model.init_batch_size} vs {limits.init_batch_size}"
            )

    def throughput(self, num_nodes, num_gpus, batch_size, speed=1.0):
        """THROUGHPUT(a, m) in samples/second.

        ``speed`` is the allocated GPU type's relative compute speed (see
        :mod:`repro.core.throughput`); 1.0 is the reference device.
        """
        return self.throughput_model.throughput(
            num_nodes, num_gpus, batch_size, speed
        )

    def efficiency(self, batch_size):
        """EFFICIENCY_t(m) in (0, 1]."""
        return self.efficiency_model.efficiency(batch_size)

    def goodput(self, num_nodes, num_gpus, batch_size, speed=1.0):
        """GOODPUT_t(a, m) in m0-equivalent samples/second (Eqn. 6)."""
        return self.throughput(
            num_nodes, num_gpus, batch_size, speed
        ) * self.efficiency(batch_size)

    def goodput_scalar(
        self,
        num_nodes: int,
        num_gpus: int,
        batch_size: float,
        speed: float = 1.0,
    ) -> float:
        """Scalar fast path for :meth:`goodput`, bit-identical to it.

        Avoids the array path's per-call broadcasting overhead; used by the
        golden-section search (one call per probe) and the simulator's
        per-tick ground truth.  Equality with the array path is asserted by
        ``tests/test_perf_paths.py``.
        """
        tput = batch_size / t_iter_scalar(
            self.throughput_model.params, num_nodes, num_gpus, batch_size, speed
        )
        eff = efficiency_scalar(
            self.efficiency_model.grad_noise_scale,
            self.efficiency_model.init_batch_size,
            batch_size,
        )
        return tput * eff

    def optimize_batch_size(
        self,
        num_nodes: int,
        num_gpus: int,
        tol: float = 1.0,
        speed: float = 1.0,
    ) -> Tuple[float, float]:
        """argmax_m GOODPUT(a, m) via golden-section search (Eqn. 13).

        GOODPUT(a, .) is unimodal in m (Sec. 4.1), so golden-section search
        finds the global maximum.

        Args:
            num_nodes: Number of physical nodes in the placement.
            num_gpus: Total number of GPUs in the placement.
            tol: Absolute tolerance on the located batch size.
            speed: Relative compute speed of the allocated GPU type.

        Returns:
            Tuple ``(m_star, goodput_at_m_star)``.

        Raises:
            ValueError: If no feasible batch size exists for this placement.
        """
        rng = self.limits.range_for(num_gpus)
        if rng is None:
            raise ValueError(
                f"initial batch size {self.limits.init_batch_size} does not fit "
                f"on {num_gpus} GPU(s) with max_local_bsz "
                f"{self.limits.max_local_bsz}"
            )
        lo, hi = rng

        def objective(m: float) -> float:
            return self.goodput_scalar(num_nodes, num_gpus, m, speed)

        return golden_section_search(objective, lo, hi, tol=tol)

    def optimize_batch_size_grid(
        self,
        num_nodes: int,
        num_gpus: int,
        points_per_octave: int = 16,
        speed: float = 1.0,
    ) -> Tuple[float, float]:
        """Grid-search variant of :meth:`optimize_batch_size`.

        Evaluates the goodput on a dense geometric grid over the
        placement's feasible range and returns the first maximum; since
        the goodput is unimodal and smooth in m, the grid optimum matches
        golden-section to within grid resolution.  The one-placement case
        of :meth:`grid_argmaxes`, which is the body of an agent's batch
        tuning (``PolluxAgent.tune_batch_size``); speedup tables take the
        same maximum for every (K, placement) at once in
        :mod:`repro.core.speedup`.
        """
        (best,) = self.grid_argmaxes((num_nodes,), num_gpus, points_per_octave, speed)
        return best

    def grid_argmaxes(
        self,
        node_counts: Sequence[int],
        num_gpus: int,
        points_per_octave: int = 16,
        speed: float = 1.0,
    ) -> Tuple[Tuple[float, float], ...]:
        """:meth:`optimize_batch_size_grid` on ``num_gpus`` GPUs spread over
        each of ``node_counts`` nodes, as ``(m_star, goodput)`` per count.

        Only T_sync depends on the node count, so the grid, T_grad and
        the efficiency are evaluated once for all of them.
        """
        rng = self.limits.range_for(num_gpus)
        if rng is None:
            raise ValueError(
                f"initial batch size {self.limits.init_batch_size} does not fit "
                f"on {num_gpus} GPU(s)"
            )
        grid = batch_size_grid(*rng, points_per_octave=points_per_octave)
        model = self.throughput_model
        t_grad = model.t_grad(num_gpus, grid, speed)
        efficiency = self.efficiency(grid)
        best = []
        for num_nodes in node_counts:
            t_iter = model.overlap(t_grad, model.t_sync(num_nodes, num_gpus))
            values = grid / t_iter * efficiency
            idx = int(np.argmax(values))
            best.append((float(grid[idx]), float(values[idx])))
        return tuple(best)
