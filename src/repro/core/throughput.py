"""The Pollux system-throughput model (Sec. 3.2 of the paper).

THROUGHPUT(a, m) = m / T_iter(a, m)                       (Eqn. 8)
T_grad(a, m)     = alpha_grad + beta_grad * m / K          (Eqn. 9)
T_sync(a)        = 0                          if K == 1    (Eqn. 10)
                 = a_loc + b_loc * (K - 2)    if N == 1, K >= 2
                 = a_node + b_node * (K - 2)  otherwise
T_iter(a, m)     = (T_grad^gamma + T_sync^gamma)^(1/gamma) (Eqn. 11)

where K is the total number of allocated GPUs and N the number of physical
nodes hosting at least one replica.  The seven learnable parameters form
theta_sys (Eqn. 12) and are fit online by minimizing the root mean squared
*logarithmic* error (RMSLE) against observed (placement, batch size, T_iter)
triples using L-BFGS-B, with alpha/beta >= 0 and gamma in [1, 10] (Sec. 4.1).

Heterogeneous GPU types are handled by a relative compute ``speed`` (Gavel's
throughput-ratio abstraction): a device with speed s computes T_grad s times
faster than the reference device, while T_sync (network-bound) is
unaffected.  All evaluation methods accept a ``speed`` argument, profile
observations carry the speed of the device they were measured on, and the
fit divides the predicted T_grad by each observation's speed — so theta_sys
is always expressed in *reference-device* units and a profile measured on
one GPU type projects onto any other type (cf. adaptdl's
``project_throughputs`` / ``gput_ratios``).  ``speed=1.0`` everywhere
reproduces the seed's homogeneous model bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ThroughputParams",
    "ThroughputModel",
    "ProfileEntry",
    "ExplorationState",
    "fit_throughput_params",
    "load_fit_kernel",
    "project_throughput_params",
    "t_iter_scalar",
    "GAMMA_MIN",
    "GAMMA_MAX",
]

GAMMA_MIN = 1.0
GAMMA_MAX = 10.0

#: Order of the parameters inside the optimization vector.
_PARAM_NAMES = (
    "alpha_grad",
    "beta_grad",
    "alpha_sync_local",
    "beta_sync_local",
    "alpha_sync_node",
    "beta_sync_node",
    "gamma",
)


@dataclass(frozen=True)
class ThroughputParams:
    """The 7-tuple theta_sys of Eqn. 12.

    All times are in seconds.  ``alpha_grad``/``beta_grad`` describe the
    per-iteration gradient computation (constant overhead + per-local-sample
    cost).  The sync parameters describe the constant and per-extra-replica
    retrogression cost of gradient synchronization, with separate values for
    co-located (single physical node) and cross-node placements.  ``gamma``
    controls the overlap between computation and communication: gamma = 1
    means no overlap (sum), gamma -> inf means perfect overlap (max).
    """

    alpha_grad: float
    beta_grad: float
    alpha_sync_local: float
    beta_sync_local: float
    alpha_sync_node: float
    beta_sync_node: float
    gamma: float

    def __post_init__(self) -> None:
        for name in _PARAM_NAMES[:-1]:
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if not (GAMMA_MIN <= self.gamma <= GAMMA_MAX):
            raise ValueError(
                f"gamma must be in [{GAMMA_MIN}, {GAMMA_MAX}], got {self.gamma}"
            )

    def as_vector(self) -> np.ndarray:
        """Return the parameters as a 7-vector in canonical order."""
        return np.array([getattr(self, n) for n in _PARAM_NAMES], dtype=float)

    @classmethod
    def from_vector(cls, vec: Sequence[float]) -> "ThroughputParams":
        """Build params from a 7-vector in canonical order."""
        if len(vec) != len(_PARAM_NAMES):
            raise ValueError(f"expected {len(_PARAM_NAMES)} values, got {len(vec)}")
        return cls(**dict(zip(_PARAM_NAMES, (float(v) for v in vec))))

    def replace(self, **kwargs: float) -> "ThroughputParams":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class ProfileEntry:
    """One observed (placement, batch size, iteration time) triple.

    ``speed`` is the relative compute speed of the GPU type the observation
    was measured on (1.0 = reference device); the fit uses it to normalize
    theta_sys to reference-device units.
    """

    num_nodes: int
    num_gpus: int
    batch_size: float
    t_iter: float
    speed: float = 1.0

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        if self.num_nodes < 1 or self.num_nodes > self.num_gpus:
            raise ValueError(
                f"num_nodes must be in [1, num_gpus], got "
                f"{self.num_nodes} with num_gpus={self.num_gpus}"
            )
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.t_iter <= 0:
            raise ValueError("t_iter must be positive")
        if self.speed <= 0:
            raise ValueError("speed must be positive")


@dataclass
class ExplorationState:
    """Which resource regimes a job has explored so far (Sec. 4.1 priors).

    Until a regime is observed, the corresponding theta_sys components are
    pinned to zero so the model optimistically assumes perfect scaling, which
    encourages PolluxSched to explore larger allocations.
    """

    seen_multi_gpu: bool = False
    seen_multi_node: bool = False
    seen_more_than_two_gpus: bool = False

    def observe(self, num_nodes: int, num_gpus: int) -> None:
        """Record that a placement with the given shape was used."""
        if num_gpus > 1:
            self.seen_multi_gpu = True
        if num_nodes > 1:
            self.seen_multi_node = True
        if num_gpus > 2:
            self.seen_more_than_two_gpus = True

    def pinned_params(self) -> Tuple[str, ...]:
        """Names of theta_sys components currently pinned to zero.

        Following Sec. 4.1: alpha_sync_local = 0 while the job has not used
        more than one GPU; alpha_sync_node (and local) = 0 while it has not
        used more than one node; the beta retrogression terms = 0 while it has
        not used more than two GPUs.
        """
        pinned: List[str] = []
        if not self.seen_multi_gpu:
            pinned.append("alpha_sync_local")
        if not self.seen_multi_node:
            pinned.append("alpha_sync_node")
        if not self.seen_more_than_two_gpus:
            pinned.append("beta_sync_local")
            pinned.append("beta_sync_node")
        return tuple(pinned)


class ThroughputModel:
    """Evaluates the throughput model for a given theta_sys.

    All evaluation methods accept scalars or numpy arrays (broadcast
    together), returning arrays of the broadcast shape.
    """

    def __init__(self, params: ThroughputParams):
        self.params = params

    def t_grad(self, num_gpus, batch_size, speed=1.0):
        """Time per iteration spent computing local gradients (Eqn. 9).

        ``speed`` is the allocated GPU type's relative compute speed; a
        device s times faster computes gradients in 1/s of the reference
        time.
        """
        p = self.params
        num_gpus = np.asarray(num_gpus, dtype=float)
        batch_size = np.asarray(batch_size, dtype=float)
        speed = np.asarray(speed, dtype=float)
        return (p.alpha_grad + p.beta_grad * batch_size / num_gpus) / speed

    def t_sync(self, num_nodes, num_gpus):
        """Time per iteration spent synchronizing gradients (Eqn. 10)."""
        p = self.params
        num_nodes = np.asarray(num_nodes, dtype=float)
        num_gpus = np.asarray(num_gpus, dtype=float)
        num_nodes, num_gpus = np.broadcast_arrays(num_nodes, num_gpus)
        extra = np.maximum(num_gpus - 2.0, 0.0)
        local = p.alpha_sync_local + p.beta_sync_local * extra
        remote = p.alpha_sync_node + p.beta_sync_node * extra
        out = np.where(num_nodes <= 1, local, remote)
        return np.where(num_gpus <= 1, 0.0, out)

    def t_iter(self, num_nodes, num_gpus, batch_size, speed=1.0):
        """Total time per training iteration (Eqn. 11)."""
        return self.overlap(
            self.t_grad(num_gpus, batch_size, speed), self.t_sync(num_nodes, num_gpus)
        )

    def overlap(self, t_grad, t_sync):
        """Eqn. 11 over given T_grad and T_sync: the iteration time.

        Lets a caller that evaluates T_grad once pair it with several
        T_sync values (one per placement flag, say).
        """
        gamma = self.params.gamma
        tg = np.asarray(t_grad, dtype=float)
        ts = np.asarray(t_sync, dtype=float)
        tg, ts = np.broadcast_arrays(tg, ts)
        # (tg^g + ts^g)^(1/g), computed stably by factoring out the max term.
        hi = np.maximum(tg, ts)
        lo = np.minimum(tg, ts)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(hi > 0, lo / np.where(hi > 0, hi, 1.0), 0.0)
        return hi * np.power(1.0 + np.power(ratio, gamma), 1.0 / gamma)

    def throughput(self, num_nodes, num_gpus, batch_size, speed=1.0):
        """Training samples processed per second (Eqn. 8)."""
        batch_size = np.asarray(batch_size, dtype=float)
        return batch_size / self.t_iter(num_nodes, num_gpus, batch_size, speed)


def t_iter_scalar(
    params: ThroughputParams,
    num_nodes: int,
    num_gpus: int,
    batch_size: float,
    speed: float = 1.0,
) -> float:
    """Scalar fast path for :meth:`ThroughputModel.t_iter` (Eqn. 11).

    Bit-identical to the array implementation for scalar inputs: the
    arithmetic (+, -, *, /, max) is IEEE-exact in either form, and the two
    ``pow`` evaluations go through the same numpy ufunc the array loop uses
    (``float ** float`` and ``math.pow`` round differently in ~5% of cases,
    so they must not be substituted here).  Used on hot per-job paths —
    golden-section batch-size search and the simulator's ground-truth
    goodput — where the array version's broadcasting overhead dominates.
    """
    t_grad = (params.alpha_grad + params.beta_grad * batch_size / num_gpus) / speed
    if num_gpus <= 1:
        t_sync = 0.0
    else:
        extra = max(num_gpus - 2.0, 0.0)
        if num_nodes <= 1:
            t_sync = params.alpha_sync_local + params.beta_sync_local * extra
        else:
            t_sync = params.alpha_sync_node + params.beta_sync_node * extra
    if t_grad >= t_sync:
        hi, lo = t_grad, t_sync
    else:
        hi, lo = t_sync, t_grad
    ratio = lo / hi if hi > 0 else 0.0
    gamma = params.gamma
    return float(
        hi * np.power(1.0 + np.power(ratio, gamma), 1.0 / gamma)
    )


#: Floor under ``max(T_grad, T_sync)``: keeps the ratio, the logs and the
#: reciprocals below finite when every free alpha/beta sits at its zero
#: bound.  Far below the prediction clamp, so it never changes a loss.
_T_FLOOR = 1e-300

#: Predictions are clamped at 1e-12 s before taking logs (so an all-zero
#: theta has a finite loss); a clamped observation has zero gradient.
_LOG_PRED_FLOOR = float(np.log(1e-12))

#: scipy's default L-BFGS-B ``ftol``: the solver stops once an iteration
#: lowers the loss by less than this (absolute, for losses under 1), so it
#: cannot improve on a fit this close.  Beneath it, which start ends lower
#: is rounding residue; the multi-start treats such a fit as exact.
_EXACT_FIT_LOSS = 2.220446049250313e-09


#: scipy 1.17's L-BFGS-B defaults, with the fit's 60-iteration cap: 10
#: corrections, factr = ftol / eps, pgtol 1e-5, 20 line-search steps,
#: 15000 evaluations.
_LBFGSB_MAXCOR = 10
_LBFGSB_FACTR = _EXACT_FIT_LOSS / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-5
_LBFGSB_MAXLS = 20
_LBFGSB_MAXITER = 60
_LBFGSB_MAXFUN = 15000

#: ``setulb``'s task codes (``task[0]``): evaluate f and g at ``x``; a new
#: iterate was accepted; converged.  Anything else ends the run.
_TASK_FG, _TASK_NEW_X, _TASK_CONVERGENCE = 3, 1, 4


def load_fit_kernel():
    """Import and return scipy's L-BFGS-B kernel module (``_lbfgsb``).

    The import loads all of ``scipy.optimize``, about 0.6 s and 45-50 MB of
    RSS, so nothing imports it at module level: a process that only
    schedules (external reports, Tiresias, Optimus, cell workers) never
    pays for it.  The first fit does; a live host calls this up front
    (:meth:`repro.host.PolicyHost.start`) so that its first fit does not
    import under the dispatch lock.  Later calls cost a module lookup.
    """
    from scipy.optimize import _lbfgsb

    return _lbfgsb


def _run_lbfgsb(
    objective, x0: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> Tuple[np.ndarray, int]:
    """Minimize ``objective`` from ``x0`` within ``[lower, upper]``.

    scipy 1.17.1's ``_minimize_lbfgsb`` loop over its ``setulb`` kernel,
    with the settings above and none of the ``minimize`` wrapper stack
    around it (function memoization, argument copies, result objects),
    which took about two thirds of a fit's time.  ``objective(x) ->
    (loss, grad)`` must be deterministic: scipy evaluates ``x0`` up front
    and answers the kernel's first request from that, this loop evaluates
    on the request — the same point, so the same iterates.  Every lower
    bound is finite; an infinite upper bound means ``[lower, inf)``.

    Returns ``(x, status)`` with scipy's ``status``: 0 converged, 1 hit the
    iteration or evaluation limit, 2 stopped abnormally (a failed line
    search).  ``x`` is the kernel's last accepted iterate.
    """
    m = _LBFGSB_MAXCOR
    n = x0.size
    x = np.array(x0, dtype=np.float64)
    bounded = np.isfinite(upper)
    low = np.array(lower, dtype=np.float64)
    up = np.where(bounded, upper, 0.0)
    nbd = np.where(bounded, 2, 1).astype(np.int32)
    f = np.array(0.0)
    g = np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    setulb = load_fit_kernel().setulb
    nfev = 0
    nit = 0
    while True:
        setulb(
            m,
            x,
            low,
            up,
            nbd,
            f,
            g,
            _LBFGSB_FACTR,
            _LBFGSB_PGTOL,
            wa,
            iwa,
            task,
            lsave,
            isave,
            dsave,
            _LBFGSB_MAXLS,
            ln_task,
        )
        if task[0] == _TASK_FG:
            f, g = objective(x)
            nfev += 1
        elif task[0] == _TASK_NEW_X:
            nit += 1
            # scipy's limits, checked once per iteration: stop with task 5.
            if nit >= _LBFGSB_MAXITER:
                task[:] = 5, 504
            elif nfev > _LBFGSB_MAXFUN:
                task[:] = 5, 502
        else:
            break
    if task[0] == _TASK_CONVERGENCE:
        return x, 0
    if nfev > _LBFGSB_MAXFUN or nit >= _LBFGSB_MAXITER:
        return x, 1
    return x, 2


class _RmsleObjective:
    """RMSLE of Eqn. 11 against a profile, with its exact gradient.

    ``objective(x) -> (loss, grad)`` over the free parameters, what
    :func:`_run_lbfgsb` asks for; the fitting hot path.  T_grad and T_sync
    are linear in the alpha/beta parameters, so one stacked design matrix
    maps ``x[:-1]`` to both (rows ``[:n]`` and ``[n:]``) and chains the
    gradient back.  With ``hi/lo = max/min(T_grad, T_sync)``,
    ``r = lo / hi`` and ``q = r^gamma``::

        log T_iter        = log hi + log1p(q) / gamma
        d log T_iter/d hi = 1 / (hi (1 + q))
        d log T_iter/d lo = r^(gamma - 1) / (hi (1 + q))
        d log T_iter/d g  = (q ln r / (1 + q) - log1p(q) / gamma) / gamma

    and d RMSLE / d log T_iter = err / (n RMSLE).  L-BFGS-B only evaluates
    feasible points, so ``x`` is taken as is (no ``abs``, no gamma clip):
    the gradient at a zero bound is the one-sided derivative from inside,
    which is what lets a parameter the priors just unpinned leave 0.0.
    Every expression stays finite at the corners the solver visits — all
    alpha/beta at zero, ``lo == 0`` with gamma == 1 (numpy's ``0**0`` is 1,
    the right limit), profiles without any sync term, T_grad == T_sync ties
    (both one-sided derivatives agree there).
    """

    def __init__(
        self,
        free_idx: np.ndarray,
        nodes: np.ndarray,
        gpus: np.ndarray,
        batch: np.ndarray,
        speeds: np.ndarray,
        t_obs: np.ndarray,
    ):
        n = gpus.size
        extra = np.maximum(gpus - 2.0, 0.0)
        local = (gpus > 1) & (nodes <= 1)
        remote = (gpus > 1) & (nodes > 1)
        design = np.zeros((2 * n, len(_PARAM_NAMES) - 1))
        design[:n, 0] = 1.0 / speeds
        design[:n, 1] = batch / gpus / speeds
        design[n:, 2] = local
        design[n:, 3] = local * extra
        design[n:, 4] = remote
        design[n:, 5] = remote * extra
        # gamma is the last free parameter and is never pinned.
        self._design = np.ascontiguousarray(design[:, free_idx[:-1]])
        self._log_t_obs = np.log(t_obs)

    def __call__(self, x: np.ndarray) -> Tuple[float, np.ndarray]:
        n = self._log_t_obs.size
        gamma = float(x[-1])
        t = self._design @ x[:-1]
        t_grad = t[:n]
        t_sync = t[n:]
        hi = np.maximum(np.maximum(t_grad, t_sync), _T_FLOOR)
        ratio = np.minimum(t_grad, t_sync) / hi
        q = np.power(ratio, gamma)
        one_q = 1.0 + q
        overlap = np.log1p(q) / gamma
        log_pred = np.log(hi) + overlap
        err = np.maximum(log_pred, _LOG_PRED_FLOOR) - self._log_t_obs
        loss = math.sqrt(err.dot(err) / n)
        grad = np.zeros(x.size)
        if loss == 0.0:
            # Exact fit: sqrt is not differentiable here; 0 is a
            # subgradient and stops the solver where it stands.
            return loss, grad
        d_log = err * (log_pred > _LOG_PRED_FLOOR)
        d_log /= n * loss
        d_hi = d_log / (hi * one_q)
        d_lo = d_hi * np.power(ratio, gamma - 1.0)
        sync_bound = t_sync > t_grad
        d_t = np.concatenate(
            (np.where(sync_bound, d_lo, d_hi), np.where(sync_bound, d_hi, d_lo))
        )
        grad[:-1] = d_t @ self._design
        log_ratio = np.log(np.maximum(ratio, _T_FLOOR))
        grad[-1] = d_log.dot(q * log_ratio / one_q - overlap) / gamma
        return loss, grad


def project_throughput_params(
    params: ThroughputParams, speed_ratio: float
) -> ThroughputParams:
    """Project theta_sys onto a GPU type ``speed_ratio`` times faster.

    Scales the gradient-computation parameters by 1/speed_ratio and leaves
    the (network-bound) synchronization parameters untouched — the explicit
    form of the throughput-ratio projection that evaluating the model with a
    ``speed`` argument performs implicitly.
    """
    if speed_ratio <= 0:
        raise ValueError("speed_ratio must be positive")
    return params.replace(
        alpha_grad=params.alpha_grad / speed_ratio,
        beta_grad=params.beta_grad / speed_ratio,
    )


def fit_throughput_params(
    observations: Iterable[ProfileEntry],
    exploration: Optional[ExplorationState] = None,
    initial: Optional[ThroughputParams] = None,
    num_restarts: int = 4,
    seed: int = 0,
) -> ThroughputParams:
    """Fit theta_sys to observed profile entries (Sec. 4.1, online fitting).

    Minimizes RMSLE between Eqn. 11 and the observations using L-BFGS-B with
    non-negativity bounds on the alpha/beta parameters and gamma in [1, 10].
    Parameters pinned by the exploration priors are held at zero and excluded
    from the optimization.

    Args:
        observations: Profile entries collected during training.
        exploration: Exploration state controlling the Sec. 4.1 priors.  When
            ``None``, all parameters are free.
        initial: Optional warm-start parameters (e.g. the previous fit).
        num_restarts: Number of random restarts in addition to the warm start.
        seed: Seed for the random restarts.

    Returns:
        The fitted :class:`ThroughputParams`.

    Raises:
        ValueError: If no observations are provided.
    """
    obs = list(observations)
    if not obs:
        raise ValueError("cannot fit throughput model with no observations")

    nodes = np.array([o.num_nodes for o in obs], dtype=float)
    gpus = np.array([o.num_gpus for o in obs], dtype=float)
    batch = np.array([o.batch_size for o in obs], dtype=float)
    t_obs = np.array([o.t_iter for o in obs], dtype=float)
    speeds = np.array([o.speed for o in obs], dtype=float)

    pinned = exploration.pinned_params() if exploration is not None else ()
    free_names = [n for n in _PARAM_NAMES if n not in pinned]
    free_idx = np.array([_PARAM_NAMES.index(n) for n in free_names], dtype=int)

    base = np.zeros(len(_PARAM_NAMES), dtype=float)
    base[-1] = GAMMA_MIN  # gamma placeholder; always a free parameter

    # Scale-aware initial guesses: alpha_grad near the smallest observed
    # iteration time, beta_grad near t_iter / local batch size.  Observed
    # times are converted to reference-device units (t * speed) first.
    t_ref = t_obs * speeds
    t_min = float(np.min(t_ref))
    local_bsz = batch / gpus
    beta_guess = float(np.median(t_ref / np.maximum(local_bsz, 1e-9)))
    default = {
        "alpha_grad": 0.5 * t_min,
        "beta_grad": 0.5 * beta_guess,
        "alpha_sync_local": 0.1 * t_min,
        "beta_sync_local": 0.01 * t_min,
        "alpha_sync_node": 0.2 * t_min,
        "beta_sync_node": 0.01 * t_min,
        "gamma": 2.0,
    }

    starts: List[np.ndarray] = []
    if initial is not None:
        starts.append(initial.as_vector()[free_idx])
    starts.append(np.array([default[n] for n in free_names], dtype=float))
    rng = np.random.default_rng(seed)
    for _ in range(num_restarts):
        jitter = rng.lognormal(mean=0.0, sigma=1.0, size=len(free_names))
        start = np.array([default[n] for n in free_names], dtype=float) * jitter
        if "gamma" in free_names:
            gidx = free_names.index("gamma")
            start[gidx] = rng.uniform(GAMMA_MIN, GAMMA_MAX)
        starts.append(start)

    # alpha/beta in [0, inf), gamma (always free, always last) in [1, 10].
    lb = np.zeros(len(free_names))
    lb[-1] = GAMMA_MIN
    ub = np.full(len(free_names), np.inf)
    ub[-1] = GAMMA_MAX
    objective = _RmsleObjective(free_idx, nodes, gpus, batch, speeds, t_obs)
    best_vec: Optional[np.ndarray] = None
    best_loss = np.inf
    for start in starts:
        x, _ = _run_lbfgsb(objective, np.clip(start, lb, ub), lb, ub)
        # Score the vector that comes back: after an aborted line search
        # the kernel's last loss belongs to a trial point, not to ``x``.
        loss = objective(x)[0]
        if loss < best_loss:
            best_loss = loss
            best_vec = x
        if best_loss <= _EXACT_FIT_LOSS:
            # No later start can end meaningfully lower.  Every job's first
            # fit (one observation, three free parameters) ends here at 0.0
            # from the default start; an under-determined profile keeps the
            # exact fit next to its warm (else default) start.
            break

    if best_vec is None:
        raise RuntimeError(
            f"theta_sys fit produced no finite loss from {len(starts)} starts "
            f"over {len(obs)} observations"
        )
    full = base.copy()
    full[free_idx] = np.clip(best_vec, lb, ub)
    return ThroughputParams.from_vector(full)
