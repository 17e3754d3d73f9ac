"""The theta_sys multi-start fit through ``scipy.optimize.minimize``, as an
oracle.

:func:`repro.core.throughput.fit_throughput_params` drives scipy's
L-BFGS-B kernel (``scipy.optimize._lbfgsb.setulb``) itself, through the
module-private ``_run_lbfgsb``.  Before that it called ``minimize(...,
method="L-BFGS-B", jac=True)`` once per start.  That loop is kept here
unchanged, except that it also returns each start's ``status``, so the
tests can hold the library's fit to it bit for bit.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np
from scipy.optimize import minimize

from repro.core.throughput import (
    _EXACT_FIT_LOSS,
    _PARAM_NAMES,
    GAMMA_MAX,
    GAMMA_MIN,
    ExplorationState,
    ProfileEntry,
    ThroughputParams,
    _RmsleObjective,
)


def reference_fit(
    observations: Iterable[ProfileEntry],
    exploration: Optional[ExplorationState] = None,
    initial: Optional[ThroughputParams] = None,
    num_restarts: int = 4,
    seed: int = 0,
) -> Tuple[ThroughputParams, List[int]]:
    """``fit_throughput_params`` through ``minimize``: the fitted params and
    the ``result.status`` of every start it ran, in order."""
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
    base[-1] = GAMMA_MIN

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

    bounds = []
    for name in free_names:
        if name == "gamma":
            bounds.append((GAMMA_MIN, GAMMA_MAX))
        else:
            bounds.append((0.0, None))

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

    lb = np.array([b[0] for b in bounds], dtype=float)
    ub = np.array(
        [b[1] if b[1] is not None else np.inf for b in bounds], dtype=float
    )
    objective = _RmsleObjective(free_idx, nodes, gpus, batch, speeds, t_obs)
    best_vec: Optional[np.ndarray] = None
    best_loss = np.inf
    statuses: List[int] = []
    for start in starts:
        result = minimize(
            objective,
            np.clip(start, lb, ub),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 60},
        )
        statuses.append(int(result.status))
        loss = objective(result.x)[0]
        if loss < best_loss:
            best_loss = loss
            best_vec = np.asarray(result.x, dtype=float)
        if best_loss <= _EXACT_FIT_LOSS:
            break

    if best_vec is None:
        raise RuntimeError(
            f"theta_sys fit produced no finite loss from {len(starts)} starts "
            f"over {len(obs)} observations"
        )
    full = base.copy()
    full[free_idx] = np.clip(best_vec, lb, ub)
    return ThroughputParams.from_vector(full), statuses
