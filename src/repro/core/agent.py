"""PolluxAgent: job-level optimization (Sec. 4.1).

One agent runs with each training job.  It continually measures the job's
gradient noise scale and system throughput, periodically fits theta_sys to
the observed (placement, batch size, T_iter) triples, reports
(theta_sys, phi_t, m0) to PolluxSched, and tunes the job's batch size (and,
through AdaScale, its learning rate) for the job's *current* allocation by
maximizing GOODPUT(a, m) over m (Eqn. 13).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .adascale import adascale_gain
from .efficiency import EfficiencyModel, GradientStats
from .goodput import BatchSizeLimits, GoodputModel
from .speedup import MULTI_NODE, SINGLE_NODE
from .throughput import (
    ExplorationState,
    ProfileEntry,
    ThroughputParams,
    fit_throughput_params,
)

__all__ = ["AgentReport", "PolluxAgent", "optimistic_params"]

#: Batch sizes are bucketed at ~5% resolution: bucket = round(ln m / ln 1.05).
_BUCKET_LOG_BASE = float(np.log(1.05))

#: Relative phi quantization for grid batch tuning: the argmax batch size
#: is insensitive to small phi changes (both throughput and efficiency vary
#: smoothly), so a tuned pair is reused while phi stays within a 5% bucket
#: instead of being recomputed on every noisy EMA update.
TABLE_TUNING_PHI_TOL = 0.05

#: Batch-size grid density of that tuning.  Twice the scheduler's
#: ``sched.TABLE_POINTS_PER_OCTAVE``: the grid optimum has to land within a
#: fraction of a percent of the golden-section optimum's goodput (>= 0.995x,
#: asserted by ``tests/test_surfacecache.py``).
TABLE_TUNING_POINTS_PER_OCTAVE = 32

#: Tuned (single-node, multi-node) batch-size pairs an agent keeps.
_TUNE_CACHE_SIZE = 8


def optimistic_params(beta_grad: float = 1.0, alpha_grad: float = 0.0) -> ThroughputParams:
    """Prior-driven optimistic theta_sys: throughput scales perfectly.

    All synchronization parameters are zero (Sec. 4.1 priors), so
    THROUGHPUT(a, m) = m / (alpha_grad + beta_grad * m / K) grows linearly
    with K.  Used before a job has produced enough observations to fit.
    """
    return ThroughputParams(
        alpha_grad=alpha_grad,
        beta_grad=beta_grad,
        alpha_sync_local=0.0,
        beta_sync_local=0.0,
        alpha_sync_node=0.0,
        beta_sync_node=0.0,
        gamma=1.0,
    )


@dataclass(frozen=True)
class AgentReport:
    """What a PolluxAgent periodically reports to PolluxSched (Sec. 4.3)."""

    throughput_params: ThroughputParams
    grad_noise_scale: float
    init_batch_size: float
    limits: BatchSizeLimits
    max_gpus_seen: int

    def goodput_model(self) -> GoodputModel:
        """The GOODPUT function specified by (theta_sys, phi_t, m0)."""
        return GoodputModel(
            self.throughput_params,
            EfficiencyModel(self.init_batch_size, self.grad_noise_scale),
            self.limits,
        )

    def exploration_cap(self, hard_cap: int) -> int:
        """Max GPUs PolluxSched may allocate: 2x lifetime max (Sec. 4.1)."""
        cap = max(1, 2 * self.max_gpus_seen)
        return int(min(cap, hard_cap))

    def fingerprint(self, phi_tol: float = 0.0) -> Tuple[float, ...]:
        """Cheap value key identifying the goodput surface this report spans.

        Two reports with equal fingerprints produce bit-identical speedup
        tables (for the same table shape parameters) and tuned batch sizes.

        The key covers theta_sys (7 floats), phi_t, and the batch-size
        limits; ``max_gpus_seen`` is deliberately excluded — it enters the
        table only through the exploration cap, which the cache keys
        separately.  With ``phi_tol > 0``, phi is quantized to relative
        buckets of that width (e.g. 0.05 = 5%-wide buckets on a log scale),
        so fingerprints also collide *across* scheduling rounds while phi
        drifts within a bucket — the approximation an agent's batch-tuning
        cache makes for cross-round reuse (``TABLE_TUNING_PHI_TOL``).
        """
        phi = self.grad_noise_scale
        if phi_tol > 0.0:
            phi_key = float(round(np.log1p(phi) / np.log1p(phi_tol)))
        else:
            phi_key = phi
        return self.theta_fingerprint() + (phi_key,)

    def theta_fingerprint(self) -> Tuple[float, ...]:
        """The phi-free part of :meth:`fingerprint`.

        Covers theta_sys (7 floats), m0, and the batch-size limits — every
        input of the *throughput* half of the goodput surface.  phi_t
        drifts on every simulator tick while theta_sys re-fits only every
        ``refit_every`` observations, so this key identifies the
        :class:`~repro.core.speedup.TputCells` a round can reuse across
        many phi values (the scheduler's steady-state table path).
        """
        p = self.throughput_params
        return (
            p.alpha_grad,
            p.beta_grad,
            p.alpha_sync_local,
            p.beta_sync_local,
            p.alpha_sync_node,
            p.beta_sync_node,
            p.gamma,
            self.init_batch_size,
            # limits.init_batch_size normally equals init_batch_size (the
            # goodput model asserts it), but a hand-built report can
            # disagree — and the surface depends on it through min_gpus and
            # the grid's lower bound, so it must be part of the key.
            self.limits.init_batch_size,
            self.limits.max_batch_size,
            self.limits.max_local_bsz,
        )


class PolluxAgent:
    """Measures, models, and tunes a single training job.

    Args:
        init_batch_size: The user-provided initial batch size m0.
        init_lr: The user-provided initial learning rate eta0.
        limits: Batch-size feasibility constraints for this job.
        smoothing: EMA smoothing for gradient statistics.
        profile_noise_key: Seed for the fitting restarts, so that agents of
            different jobs do not share random state.
    """

    def __init__(
        self,
        init_batch_size: float,
        init_lr: float,
        limits: BatchSizeLimits,
        smoothing: float = 0.95,
        profile_noise_key: int = 0,
    ):
        if limits.init_batch_size != init_batch_size:
            raise ValueError("limits.init_batch_size must equal init_batch_size")
        self.init_batch_size = float(init_batch_size)
        self.init_lr = float(init_lr)
        self.limits = limits
        self.grad_stats = GradientStats(smoothing=smoothing)
        self.exploration = ExplorationState()
        self._seed = int(profile_noise_key)
        # Profile: (num_nodes, num_gpus, batch-size bucket, device speed) ->
        # running means of (count, t_iter, batch_size).  Batch sizes are
        # bucketed at ~5% resolution so that the continuous drift of the
        # tuned batch size does not create an unbounded number of
        # configurations; the device speed keys observations from different
        # GPU types separately so the fit can normalize them.
        self._profile: Dict[
            Tuple[int, int, int, float], Tuple[int, float, float]
        ] = {}
        self._placements_seen: set = set()
        self._params: Optional[ThroughputParams] = None
        self._fit_dirty = False
        self._obs_since_fit = 0
        # LRU of tuned (single-node, multi-node) batch sizes, keyed on
        # (fingerprint, num_gpus, speed).  phi drifts a little on every
        # observation, so the keys quantize it (TABLE_TUNING_PHI_TOL) —
        # otherwise no tuning tick would ever hit.
        self._tuned: "OrderedDict[tuple, Tuple[float, float]]" = OrderedDict()
        #: Re-fit after this many observations even without new configs, to
        #: absorb measurement noise into the running means.
        self.refit_every = 50
        self.max_gpus_seen = 0
        self.total_iterations = 0

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def record_iteration(
        self,
        num_nodes: int,
        num_gpus: int,
        batch_size: float,
        t_iter: float,
        speed: float = 1.0,
    ) -> None:
        """Record one observed iteration time for the current configuration.

        ``speed`` is the relative compute speed of the GPU type the job is
        running on (1.0 = reference); the fit uses it to express theta_sys
        in reference-device units, so profiles measured on one type project
        onto the others.
        """
        if num_gpus < 1 or num_nodes < 1:
            raise ValueError("placement must include at least one GPU on one node")
        if t_iter <= 0:
            raise ValueError("t_iter must be positive")
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.exploration.observe(num_nodes, num_gpus)
        self.max_gpus_seen = max(self.max_gpus_seen, num_gpus)
        self.total_iterations += 1
        bucket = int(round(np.log(max(batch_size, 1.0)) / _BUCKET_LOG_BASE))
        key = (num_nodes, num_gpus, bucket, float(speed))
        placement = (num_nodes, num_gpus)
        if placement not in self._placements_seen:
            # A placement never profiled before is load-bearing for the
            # exploration priors: refresh the fit immediately.
            self._placements_seen.add(placement)
            self._fit_dirty = True
        count, mean_t, mean_bs = self._profile.get(key, (0, 0.0, 0.0))
        count += 1
        mean_t += (t_iter - mean_t) / count
        mean_bs += (batch_size - mean_bs) / count
        self._profile[key] = (count, mean_t, mean_bs)
        self._obs_since_fit += 1
        if self._obs_since_fit >= self.refit_every:
            # New batch-size buckets on known placements refine the fit
            # lazily, amortized over many observations.
            self._fit_dirty = True

    def record_grad_stats(self, var: float, sqr: float) -> None:
        """Record one gradient (variance, squared-norm) estimate at m0 scale."""
        self.grad_stats.update(var, sqr)

    @property
    def grad_noise_scale(self) -> float:
        """Current smoothed phi_t (0 until statistics arrive)."""
        if not self.grad_stats.has_estimate:
            return 0.0
        return self.grad_stats.noise_scale(self.init_batch_size)

    # ------------------------------------------------------------------
    # Model fitting
    # ------------------------------------------------------------------

    def profile_entries(self) -> Tuple[ProfileEntry, ...]:
        """The collected profile as immutable entries (mean T_iter each)."""
        return tuple(
            ProfileEntry(nodes, gpus, mean_bs, mean_t, speed)
            for (nodes, gpus, _, speed), (_, mean_t, mean_bs) in sorted(
                self._profile.items()
            )
        )

    def fit(self) -> ThroughputParams:
        """(Re-)fit theta_sys to the collected profile (Sec. 4.1).

        Applies the prior-driven exploration pins for regimes the job has
        not yet observed.  Cheap to call repeatedly: re-fits only when new
        observations arrived since the last fit.
        """
        if not self._profile:
            raise RuntimeError("no profile observations to fit")
        if self._fit_dirty or self._params is None:
            # Warm starts need fewer restarts than the initial cold fit.
            restarts = 4 if self._params is None else 1
            self._params = fit_throughput_params(
                self.profile_entries(),
                exploration=self.exploration,
                initial=self._params,
                num_restarts=restarts,
                seed=self._seed,
            )
            self._fit_dirty = False
            self._obs_since_fit = 0
        return self._params

    @property
    def throughput_params(self) -> ThroughputParams:
        """Latest fitted theta_sys, or the optimistic prior if unfitted."""
        if self._profile:
            return self.fit()
        return optimistic_params()

    # ------------------------------------------------------------------
    # Reporting and tuning
    # ------------------------------------------------------------------

    def report(self) -> AgentReport:
        """Build the periodic report for PolluxSched."""
        return AgentReport(
            throughput_params=self.throughput_params,
            grad_noise_scale=self.grad_noise_scale,
            init_batch_size=self.init_batch_size,
            limits=self.limits,
            max_gpus_seen=self.max_gpus_seen,
        )

    def goodput_model(self) -> GoodputModel:
        """GOODPUT function at the job's current training moment."""
        return self.report().goodput_model()

    def tune_batch_size(
        self,
        num_nodes: int,
        num_gpus: int,
        speed: float = 1.0,
    ) -> Tuple[float, float]:
        """Most efficient batch size for the current allocation (Eqn. 13).

        The argmax of GOODPUT over a ``TABLE_TUNING_POINTS_PER_OCTAVE``
        geometric grid of the placement's feasible batch sizes
        (:meth:`GoodputModel.optimize_batch_size_grid`).  The goodput at
        that choice matches ``GoodputModel.optimize_batch_size``'s
        golden-section optimum to within the grid's resolution (asserted
        by ``tests/test_surfacecache.py``), though the batch size itself
        can differ by up to one grid step.

        A miss computes both placement flags' argmaxes (one node, two or
        more) at once, sharing the grid, T_grad and the efficiency
        (:meth:`GoodputModel.grid_argmaxes`), and keeps the pair in
        an LRU of ``_TUNE_CACHE_SIZE`` entries keyed on the report's
        fingerprint with phi quantized at ``TABLE_TUNING_PHI_TOL``, the
        GPU count and the speed: consecutive tuning ticks hit while
        theta_sys is stable, and the pair is recomputed only after a
        re-fit or once phi drifts out of its bucket.  A GPU count the
        initial batch size does not fit is remembered as ``(0.0, 0.0)``
        and raises on every call.

        Args:
            num_nodes: Nodes hosting at least one replica.
            num_gpus: Total allocated GPUs.
            speed: Relative compute speed of the allocated GPU type.

        Returns:
            Tuple ``(batch_size, learning_rate)`` where the learning rate is
            the AdaScale-adapted eta0 * r_t for the chosen batch size.
        """
        if num_gpus < 1:
            raise ValueError("job has no GPUs allocated")
        report = self.report()
        num_gpus, speed = int(num_gpus), float(speed)
        key = (report.fingerprint(TABLE_TUNING_PHI_TOL), num_gpus, speed)
        tuned = self._tuned.get(key)
        if tuned is None:
            tuned = _grid_argmaxes(report.goodput_model(), num_gpus, speed)
            self._tuned[key] = tuned
            if len(self._tuned) > _TUNE_CACHE_SIZE:
                self._tuned.popitem(last=False)
        else:
            self._tuned.move_to_end(key)
        m_star = tuned[MULTI_NODE if num_nodes >= 2 else SINGLE_NODE]
        if m_star <= 0:
            raise ValueError(
                f"initial batch size {self.init_batch_size} does not fit "
                f"on {num_gpus} GPU(s) with max_local_bsz "
                f"{self.limits.max_local_bsz}"
            )
        lr = self.init_lr * adascale_gain(
            self.grad_noise_scale, self.init_batch_size, m_star
        )
        return m_star, lr


def _grid_argmaxes(
    model: GoodputModel, num_gpus: int, speed: float
) -> Tuple[float, float]:
    """Eqn. 13's grid argmax on ``num_gpus`` GPUs, indexed by placement flag.

    ``0.0`` marks a flag no batch size fits: every flag when the initial
    batch size needs more GPUs, and the multi-node flag of one GPU.
    """
    if model.limits.range_for(num_gpus) is None:
        return 0.0, 0.0
    ppo = TABLE_TUNING_POINTS_PER_OCTAVE
    if num_gpus < 2:
        ((single, _),) = model.grid_argmaxes((1,), num_gpus, ppo, speed)
        return single, 0.0
    (single, _), (multi, _) = model.grid_argmaxes((1, 2), num_gpus, ppo, speed)
    return single, multi
