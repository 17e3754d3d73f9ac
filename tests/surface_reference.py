"""Per-job goodput-surface builders and the table-driven agent, as oracles.

The library builds every goodput surface through one batched builder,
:func:`repro.core.speedup.build_speedup_tables_batch`, and agents tune by
Eqn. 13 on their own placement
(:meth:`repro.core.goodput.GoodputModel.optimize_batch_size_grid`).
Before that, three paths built the surface: the batched builder, the
per-job :func:`build_surfaces` an agent's cache called, and the
:func:`build_speedup_table` / :func:`best_batch_size_table` pair the
workload configs read.  The per-job builders and the golden-section
:func:`speedup` are kept here, unchanged, so the tests can hold the
library's paths to them, and :class:`ReferenceAgent` is ``PolluxAgent``
tuning through its old table cache.  :func:`grid_argmax` is the grid
argmax of one placement flag as it was before both flags shared one grid.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence, Tuple

import numpy as np

from repro.core.adascale import adascale_gain
from repro.core.agent import (
    TABLE_TUNING_PHI_TOL,
    TABLE_TUNING_POINTS_PER_OCTAVE,
    PolluxAgent,
)
from repro.core.goodput import GoodputModel, batch_size_grid
from repro.core.speedup import MULTI_NODE, SINGLE_NODE


def _reference_goodput(
    model: GoodputModel, tol: float = 0.5, speed: float = 1.0
) -> float:
    """max_m GOODPUT(single process, m): the SPEEDUP denominator."""
    min_gpus = model.limits.min_gpus()
    _, best = model.optimize_batch_size(1, min_gpus, tol=tol, speed=speed)
    return best


def speedup(
    model: GoodputModel,
    num_nodes: int,
    num_gpus: int,
    tol: float = 0.5,
    speed: float = 1.0,
) -> float:
    """SPEEDUP for one placement, via golden-section search (Eqn. 15)."""
    if num_gpus == 0:
        return 0.0
    rng = model.limits.range_for(num_gpus)
    if rng is None:
        return 0.0
    _, numer = model.optimize_batch_size(num_nodes, num_gpus, tol=tol, speed=speed)
    denom = _reference_goodput(model, tol=tol, speed=speed)
    if denom <= 0:
        return 0.0
    return numer / denom


def _surface_inputs(model: GoodputModel, max_gpus: int, points_per_octave: int):
    """The speed-independent pieces: ``(grid, k_col, m_row, feasible, eff)``."""
    limits = model.limits
    global_hi = min(limits.max_batch_size, max_gpus * limits.max_local_bsz)
    grid = batch_size_grid(
        limits.init_batch_size,
        max(global_hi, limits.init_batch_size),
        points_per_octave=points_per_octave,
    )
    ks = np.arange(1, max_gpus + 1, dtype=float)
    k_col = ks[:, None]
    m_row = grid[None, :]
    feasible = m_row <= np.minimum(limits.max_batch_size, k_col * limits.max_local_bsz)
    eff = model.efficiency_model.efficiency(grid)[None, :]
    return grid, k_col, m_row, feasible, eff


def _surface_at_speed(
    model: GoodputModel, max_gpus: int, inputs, speed: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Goodput surface and its argmax batch sizes for one device speed."""
    grid, k_col, m_row, feasible, eff = inputs
    num_ks = k_col.shape[0]
    surfaces = np.zeros((max_gpus + 1, 2), dtype=float)
    argmax_m = np.zeros((max_gpus + 1, 2), dtype=float)
    for flag, nodes in ((SINGLE_NODE, 1), (MULTI_NODE, 2)):
        tput = model.throughput_model.throughput(nodes, k_col, m_row, speed)
        good = np.where(feasible, tput * eff, -np.inf)
        best_idx = np.argmax(good, axis=1)
        best_val = good[np.arange(num_ks), best_idx]
        valid = np.isfinite(best_val)
        surfaces[1:, flag] = np.where(valid, best_val, 0.0)
        argmax_m[1:, flag] = np.where(valid, grid[best_idx], 0.0)
    surfaces[1, MULTI_NODE] = 0.0
    argmax_m[1, MULTI_NODE] = 0.0
    return surfaces, argmax_m


def _goodput_surface(
    model: GoodputModel, max_gpus: int, points_per_octave: int, speed: float = 1.0
) -> Tuple[np.ndarray, np.ndarray]:
    inputs = _surface_inputs(model, max_gpus, points_per_octave)
    return _surface_at_speed(model, max_gpus, inputs, speed)


def build_surfaces(
    model: GoodputModel,
    max_gpus: int,
    points_per_octave: int = 16,
    speed: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(speedup_table, batch_size_table)``, each ``(max_gpus + 1, 2)``."""
    if max_gpus < 1:
        raise ValueError("max_gpus must be >= 1")
    surfaces, argmax_m = _goodput_surface(model, max_gpus, points_per_octave, speed)
    min_gpus = model.limits.min_gpus()
    denom = surfaces[min_gpus, SINGLE_NODE] if min_gpus <= max_gpus else 0.0
    if denom <= 0:
        return np.zeros_like(surfaces), argmax_m
    return surfaces / denom, argmax_m


def build_speedup_table(
    model: GoodputModel,
    max_gpus: int,
    points_per_octave: int = 16,
    speed: float = 1.0,
) -> np.ndarray:
    """Speedup lookup table of shape ``(max_gpus + 1, 2)``."""
    return build_surfaces(model, max_gpus, points_per_octave, speed)[0]


def build_typed_surfaces(
    model: GoodputModel,
    max_gpus: int,
    type_speeds: Sequence[float],
    points_per_octave: int = 16,
) -> Tuple[np.ndarray, np.ndarray]:
    """Typed ``(speedup_table, batch_size_table)``, ``(max_gpus + 1, 2, T)``."""
    if max_gpus < 1:
        raise ValueError("max_gpus must be >= 1")
    speeds = np.asarray(type_speeds, dtype=float)
    if speeds.ndim != 1 or speeds.size < 1:
        raise ValueError("type_speeds must be a non-empty 1-D sequence")
    if np.any(speeds <= 0):
        raise ValueError("type_speeds must be positive")
    inputs = _surface_inputs(model, max_gpus, points_per_octave)
    per_type = [_surface_at_speed(model, max_gpus, inputs, float(s)) for s in speeds]
    surfaces = np.stack([s for s, _ in per_type], axis=-1)
    argmax_m = np.stack([a for _, a in per_type], axis=-1)
    ref_type = int(np.argmin(speeds))
    min_gpus = model.limits.min_gpus()
    denom = surfaces[min_gpus, SINGLE_NODE, ref_type] if min_gpus <= max_gpus else 0.0
    if denom <= 0:
        return np.zeros_like(surfaces), argmax_m
    return surfaces / denom, argmax_m


def build_typed_speedup_table(
    model: GoodputModel,
    max_gpus: int,
    type_speeds: Sequence[float],
    points_per_octave: int = 16,
) -> np.ndarray:
    """Per-GPU-type speedup table of shape ``(max_gpus + 1, 2, T)``."""
    return build_typed_surfaces(model, max_gpus, type_speeds, points_per_octave)[0]


def best_batch_size_table(
    model: GoodputModel,
    max_gpus: int,
    points_per_octave: int = 16,
    speed: float = 1.0,
    type_speeds=None,
) -> np.ndarray:
    """argmax_m GOODPUT per (K, placement-flag[, type])."""
    if type_speeds is not None:
        return build_typed_surfaces(model, max_gpus, type_speeds, points_per_octave)[1]
    if max_gpus < 1:
        raise ValueError("max_gpus must be >= 1")
    _, argmax_m = _goodput_surface(model, max_gpus, points_per_octave, speed)
    return argmax_m


def grid_argmax(
    model: GoodputModel,
    num_nodes: int,
    num_gpus: int,
    points_per_octave: int = 16,
    speed: float = 1.0,
) -> Tuple[float, float]:
    """``GoodputModel.optimize_batch_size_grid`` as it was before
    :meth:`~repro.core.goodput.GoodputModel.grid_argmaxes` shared one grid
    across placement flags: the whole goodput evaluated per call."""
    rng = model.limits.range_for(num_gpus)
    if rng is None:
        raise ValueError(
            f"initial batch size {model.limits.init_batch_size} does not fit "
            f"on {num_gpus} GPU(s)"
        )
    grid = batch_size_grid(*rng, points_per_octave=points_per_octave)
    values = np.asarray(model.goodput(num_nodes, num_gpus, grid, speed))
    idx = int(np.argmax(values))
    return float(grid[idx]), float(values[idx])


def reference_tuning_tables(model_name: str, max_gpus: int):
    """``repro.workload.configs._tuning_tables`` through the per-job builders."""
    from repro.workload.configs import MODEL_ZOO, true_goodput_model

    model = true_goodput_model(MODEL_ZOO[model_name])
    return (
        build_speedup_table(model, max_gpus=max_gpus),
        best_batch_size_table(model, max_gpus=max_gpus),
    )


class ReferenceAgent(PolluxAgent):
    """A ``PolluxAgent`` that tunes from a memoized argmax table.

    Each cache miss builds the whole ``(num_gpus + 1, 2)`` surface pair
    with :func:`build_surfaces` and keeps it in an 8-entry LRU under
    ``("flat", fingerprint, num_gpus, grid, speed)``, phi bucketed at
    ``TABLE_TUNING_PHI_TOL``; the agent reads the one cell
    ``[num_gpus, flag]``.
    """

    TABLE_CACHE_SIZE = 8

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.table_cache: "OrderedDict[tuple, tuple]" = OrderedDict()

    def _get_flat(self, report, max_gpus, points_per_octave, speed):
        cache = self.table_cache
        key = (
            "flat",
            report.fingerprint(TABLE_TUNING_PHI_TOL),
            int(max_gpus),
            int(points_per_octave),
            float(speed),
        )
        entry = cache.get(key)
        if entry is not None:
            cache.move_to_end(key)
            return entry
        entry = cache[key] = build_surfaces(
            report.goodput_model(),
            max_gpus,
            points_per_octave=points_per_octave,
            speed=speed,
        )
        if len(cache) > self.TABLE_CACHE_SIZE:
            cache.popitem(last=False)
        return entry

    def tune_batch_size(self, num_nodes, num_gpus, speed=1.0):
        if num_gpus < 1:
            raise ValueError("job has no GPUs allocated")
        report = self.report()
        _, bsz_table = self._get_flat(
            report, num_gpus, TABLE_TUNING_POINTS_PER_OCTAVE, float(speed)
        )
        flag = MULTI_NODE if num_nodes >= 2 else SINGLE_NODE
        m_star = float(bsz_table[num_gpus, flag])
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
