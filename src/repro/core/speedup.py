"""SPEEDUP_j(A_j) (Sec. 4.2, Eqn. 15) as per-job lookup tables.

    SPEEDUP_j(A_j) = max_m GOODPUT_j(A_j, m) / max_m GOODPUT_j(1, m)

A single allocated GPU always yields a speedup of 1, and speedup grows
sub-linearly with more GPUs.  Because the paper's T_sync model (Eqn. 10)
distinguishes placements only by K (total GPUs) and whether all replicas are
co-located on one node, SPEEDUP depends on the placement A_j only through
(K, min(N, 2)).  We exploit this to precompute per-job speedup *tables* of
shape (K_max + 1, 2) which the genetic algorithm evaluates with O(1) lookups,
and we take the inner max over the batch size on a dense geometric grid
(GOODPUT is unimodal in m, so the grid optimum matches golden-section).

One row kernel makes every table entry: :func:`build_tput_cells`
evaluates THROUGHPUT once per feasible grid cell of an explicit set of
(job, K) rows, :func:`fold_rows` folds in each job's efficiency curve, and
:func:`normalize_rows` divides by each job's :func:`normalization_rows`
row.  The scheduler runs it on the rows its GA reaches (``repro.core.
sched``); :func:`build_speedup_tables_batch` runs it on every row for the
workload configs, and its ``batch_sizes=True`` also returns each cell's
argmax batch size, which the configs need and the GA does not.  An agent
tunes its batch size for its own placement alone (Eqn. 13,
``GoodputModel.optimize_batch_size_grid``) and builds no table.

**Typed GPU nodes.**  On a heterogeneous cluster every placement the genetic
algorithm considers lives inside a single GPU-type group (the type-group
repair in :mod:`repro.core.genetic`), so SPEEDUP additionally depends only on
the group's relative compute speed.  With several ``type_speeds`` (or
``squeeze=False``) the builder evaluates the same surface once per type
into a ``(K_max + 1, 2, num_types)`` table, normalized by the *slowest*
type's smallest feasible co-located placement — so the slowest type's single
GPU has speedup 1 and faster types score proportionally higher, which is
what steers the GA toward fast nodes.  The GA lookup stays O(1):
``table[K, flag, type]``.  With a single type at speed 1.0 the typed table
collapses exactly to the ``(K_max + 1, 2)`` table.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .goodput import GoodputModel

__all__ = [
    "all_rows",
    "build_speedup_tables_batch",
    "build_tput_cells",
    "fold_rows",
    "normalization_rows",
    "normalize_rows",
    "TputCells",
]

#: Column index for placements co-located on a single node.
SINGLE_NODE = 0
#: Column index for placements spanning two or more nodes.
MULTI_NODE = 1


class TputCells:
    """Phi-independent throughput cells of a set of (job, k) table rows.

    The expensive part of a speedup-table build — evaluating THROUGHPUT
    (Eqns. 9-11) on every feasible (k, placement-flag, type, batch-size)
    grid cell — does not depend on the gradient noise scale phi_t, which
    is the *only* part of a job's report that drifts on every simulator
    tick.  Caching these cells (per row, keyed on theta_sys + cap + type
    speeds, see ``SurfaceCache.cells_key``) turns every table fold into
    one efficiency multiply plus a segmented max; a row's surface pass is
    only paid again when theta_sys actually re-fits.

    Attributes:
        tput: ``(2, T, C)`` throughput at every feasible cell.
        m_cells: ``(C,)`` batch size of each cell (ascending per row).
        counts: ``(R,)`` feasible-cell count per row, in row-set order.
    """

    __slots__ = ("tput", "m_cells", "counts")

    def __init__(self, tput: np.ndarray, m_cells: np.ndarray, counts: np.ndarray):
        self.tput = tput
        self.m_cells = m_cells
        self.counts = counts


def _check_batch_args(models, caps, type_speeds):
    num_jobs = len(models)
    caps = np.asarray(caps, dtype=np.int64)
    if caps.shape != (num_jobs,):
        raise ValueError("caps must align with models")
    if num_jobs and caps.min() < 1:
        raise ValueError("caps must be >= 1")
    speeds = np.asarray(type_speeds, dtype=float)
    if speeds.ndim != 1 or speeds.size < 1 or np.any(speeds <= 0):
        raise ValueError("type_speeds must be a non-empty positive 1-D sequence")
    return caps, speeds


def all_rows(caps: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Every table row (job, k), k = 1..cap_j, job-major: the eager row set."""
    caps = np.asarray(caps, dtype=np.int64)
    offsets = np.cumsum(caps) - caps
    row_job = np.repeat(np.arange(caps.size), caps)
    return row_job, np.arange(row_job.size) - offsets[row_job] + 1


def normalization_rows(
    models: Sequence[GoodputModel], caps: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Each job's SPEEDUP denominator row and whether it exists.

    Row ``min(min_gpus, cap)``, read co-located on the slowest type; a job
    whose smallest feasible placement exceeds its cap has none (``False``)
    and an all-zero table.
    """
    caps = np.asarray(caps, dtype=np.int64)
    min_gpus = np.array([model.limits.min_gpus() for model in models], dtype=np.int64)
    return np.minimum(min_gpus, caps), min_gpus <= caps


def build_tput_cells(
    models: Sequence[GoodputModel],
    caps: Sequence[int],
    points_per_octave: int = 16,
    type_speeds: Sequence[float] = (1.0,),
    rows: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> TputCells:
    """Throughput cells of a set of (job, k) rows in one flattened ragged pass.

    ``rows`` is a pair of aligned arrays, the job index into ``models`` and
    the GPU count k in ``1..caps[job]`` of every row, by default
    :func:`all_rows`.  Eqns. 9-11 are evaluated over every *feasible* grid
    cell of those rows only — one flattened row per (job, k) pair, one
    ragged cell axis instead of a padded rectangle — so a round's surface
    evaluation is a handful of large array operations whatever rows it
    asks for.  Every cell is an elementwise function of its own job and k:
    it comes out the same in any row set.  The result is phi-independent
    (see :class:`TputCells`); :func:`fold_rows` folds in each job's
    current efficiency curve.
    """
    num_jobs = len(models)
    caps, speeds = _check_batch_args(models, caps, type_speeds)
    job_of_row, k = all_rows(caps) if rows is None else rows
    if num_jobs == 0 or len(job_of_row) == 0:
        return TputCells(
            np.zeros((2, speeds.size, 0)), np.zeros(0), np.zeros(0, dtype=np.int64)
        )

    # Vectorized replica of batch_size_grid for every job at once: the
    # same geometric grid (10 ** linspace of log10 endpoints, exact
    # endpoints patched in), padded to the longest grid.
    lo = np.array([model.limits.init_batch_size for model in models])
    max_bs_job = np.array([model.limits.max_batch_size for model in models])
    max_local_job = np.array([model.limits.max_local_bsz for model in models])
    hi_grid = np.maximum(np.minimum(max_bs_job, caps * max_local_job), lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        octaves = np.log2(hi_grid / lo)
    num_points = np.where(
        hi_grid == lo,
        1,
        np.maximum(2, np.ceil(octaves * points_per_octave).astype(np.int64) + 1),
    )
    m_max = int(num_points.max())
    m_idx = np.arange(m_max, dtype=float)
    log_lo = np.log10(lo)
    step = (np.log10(hi_grid) - log_lo) / np.maximum(num_points - 1, 1)
    m = np.power(10.0, m_idx[None, :] * step[:, None] + log_lo[:, None])
    m[:, 0] = lo
    m[np.arange(num_jobs), num_points - 1] = hi_grid
    on_grid = m_idx[None, :] < num_points[:, None]

    # One flattened row per (job, k) pair — no K padding, only the (small)
    # M padding to the longest grid.
    k_row = np.asarray(k, dtype=float)
    params = [model.throughput_model.params for model in models]

    def per_row(values) -> np.ndarray:
        return np.asarray(values, dtype=float)[job_of_row]

    alpha_grad = per_row([p.alpha_grad for p in params])
    beta_grad = per_row([p.beta_grad for p in params])
    alpha_sl = per_row([p.alpha_sync_local for p in params])
    beta_sl = per_row([p.beta_sync_local for p in params])
    alpha_sn = per_row([p.alpha_sync_node for p in params])
    beta_sn = per_row([p.beta_sync_node for p in params])
    gamma = per_row([p.gamma for p in params])
    max_bs = max_bs_job[job_of_row]
    max_local = max_local_job[job_of_row]

    m_rows = m[job_of_row]  # (R, M)

    # Restrict all evaluation to the *feasible cells*: grid points with
    # m <= min(max_batch_size, k * max_local_bsz), flattened into one
    # ragged axis with per-row segments.  The grid is ascending, so each
    # row's feasible cells are a prefix; infeasible cells (typically >half
    # of the padded (R, M) rectangle) are never touched, and a masked max
    # over the rectangle turns into segment reductions over exactly the
    # cells it would have kept.
    feasible = on_grid[job_of_row] & (
        m_rows <= np.minimum(max_bs, k_row * max_local)[:, None]
    )  # (R, M)
    counts = feasible.sum(axis=-1)  # (R,)
    cell_row = np.nonzero(feasible)[0]  # (C,) row of each cell, row-major
    m_cells = m_rows[feasible]  # (C,) ascending within each row segment

    # Eqn. 9 at reference speed; divided per type below.
    t_grad_ref = (
        alpha_grad[cell_row] + beta_grad[cell_row] * m_cells / k_row[cell_row]
    )  # (C,)
    t_grad = t_grad_ref[None, :] / speeds[:, None]  # (T, C)

    # Eqn. 10 per placement flag (single/multi node); 0 for single-GPU rows.
    extra = np.maximum(k_row - 2.0, 0.0)
    single_gpu = k_row <= 1.0
    local = np.where(single_gpu, 0.0, alpha_sl + beta_sl * extra)
    remote = np.where(single_gpu, 0.0, alpha_sn + beta_sn * extra)
    t_sync = np.stack([local, remote])[:, cell_row][:, None, :]  # (2, 1, C)

    gamma_c = gamma[cell_row]
    # Eqn. 11: (tg^g + ts^g)^(1/g), factored by the max term for stability
    # (same formulation as ThroughputModel.t_iter), with in-place ufuncs to
    # keep the (2, T, C) temporary count down.
    hi = np.maximum(t_grad[None], t_sync)  # (2, T, C)
    lo_t = np.minimum(t_grad[None], t_sync)
    with np.errstate(divide="ignore", invalid="ignore"):
        # lo == 0 wherever hi == 0 (both times are non-negative), so adding
        # the hi == 0 indicator to the denominator yields the same guarded
        # ratio as ThroughputModel.t_iter's where(hi > 0, lo / hi, 0) — hi +
        # 0.0 is exact for hi > 0 — at a fraction of np.where's cost.
        work = np.divide(lo_t, hi + (hi == 0.0), out=lo_t)
        np.power(work, gamma_c, out=work)
        work += 1.0
        np.power(work, 1.0 / gamma_c, out=work)
        t_iter = np.multiply(hi, work, out=work)
        tput = np.divide(m_cells, t_iter, out=t_iter)  # (2, T, C)
    return TputCells(tput, m_cells, counts)


def fold_rows(
    models: Sequence[GoodputModel],
    rows: Tuple[np.ndarray, np.ndarray],
    cells: Sequence[TputCells],
    batch_sizes: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``max_m GOODPUT`` of every row of ``cells``: the fold of Eqn. 15.

    ``cells`` is a sequence of pieces whose rows, in order, are ``rows``
    (job index into ``models``, k).  Folds each job's current efficiency
    curve (Eqn. 7, from its phi) into the cells and takes a segmented max
    per row.  Returns the ``(2, T, R)`` maxima — 0 for a row without a
    feasible cell and for the multi-node column of k == 1, which cannot
    span nodes — and with ``batch_sizes`` the batch size of each (the
    first maximum on ties), else ``None``.  Like the cells, each row comes
    out the same in any row set.
    """
    row_job, k = rows
    counts = np.concatenate([c.counts for c in cells])
    if batch_sizes:
        m_cells = np.concatenate([c.m_cells for c in cells])
    # EFFICIENCY_t(m) (Eqn. 7) at each cell, from its job's current phi:
    # (phi + m0) / (phi + m), spread per run of one job's rows.
    phi_job = np.array([model.efficiency_model.grad_noise_scale for model in models])
    m0_job = np.array([model.efficiency_model.init_batch_size for model in models])
    run_starts = np.concatenate(([0], np.flatnonzero(row_job[1:] != row_job[:-1]) + 1))
    run_job = row_job[run_starts]
    run_cells = np.add.reduceat(counts, run_starts)
    den = np.concatenate([c.m_cells for c in cells])  # (C,)
    den += np.repeat(phi_job[run_job], run_cells)
    eff = np.repeat((phi_job + m0_job)[run_job], run_cells)
    eff /= den
    del den
    # The concatenation is this call's own copy of the cells (which may be
    # the cache's, read-only), so the curve is multiplied into it in place.
    # What the fold costs is memory traffic and, whenever the allocator has
    # trimmed what the last call freed, first-touch page faults, so the
    # live set stays small: two (C,) arrays while the curve is built, then
    # one (2, T, C) array beside one (C,) temporary.
    goodput = np.concatenate([c.tput for c in cells], axis=-1)  # (2, T, C)
    goodput *= eff
    del eff
    num_types = goodput.shape[1]

    # Segmented max over each row's cells (rows with no feasible cell —
    # min feasible m needs more than k GPUs — stay zero).
    num_rows = len(row_job)
    best_val = np.zeros((2, num_types, num_rows), dtype=float)
    best_m = np.zeros_like(best_val) if batch_sizes else None
    if goodput.shape[-1]:
        rows_nz = counts > 0
        starts_nz = np.concatenate([[0], np.cumsum(counts[rows_nz])[:-1]])
        seg_max = np.maximum.reduceat(goodput, starts_nz, axis=-1)
        best_val[:, :, rows_nz] = seg_max
        if batch_sizes:
            # The first cell of each segment that reaches its maximum.
            num_cells = m_cells.size
            seg_of_cell = np.repeat(np.arange(starts_nz.size), counts[rows_nz])
            cand = np.where(
                goodput == seg_max[:, :, seg_of_cell],
                np.arange(num_cells, dtype=np.int32),
                np.int32(num_cells),
            )
            seg_arg = np.minimum.reduceat(cand, starts_nz, axis=-1)
            best_m[:, :, rows_nz] = m_cells[seg_arg]
    del goodput

    # A placement spanning >= 2 nodes needs >= 2 GPUs.
    single_gpu = np.asarray(k) == 1
    best_val[MULTI_NODE, :, single_gpu] = 0.0
    if batch_sizes:
        best_m[MULTI_NODE, :, single_gpu] = 0.0
    return best_val, best_m


def normalize_rows(
    best_val: np.ndarray, row_job: np.ndarray, denom: np.ndarray
) -> np.ndarray:
    """SPEEDUP (Eqn. 15) of :func:`fold_rows` maxima, ``(2, T, R)``.

    ``denom`` is each job's maximum at its :func:`normalization_rows` row
    (slowest type, co-located), 0 where it has none; a job whose
    denominator is not positive gets all-zero rows.
    """
    pos = denom > 0
    denom_rows = np.where(pos, denom, 1.0)[row_job]
    return (best_val / denom_rows) * pos[row_job]


def build_speedup_tables_batch(
    models: Sequence[GoodputModel],
    caps: Sequence[int],
    points_per_octave: int = 16,
    type_speeds: Sequence[float] = (1.0,),
    squeeze: bool = True,
    cells: Optional[TputCells] = None,
    batch_sizes: bool = False,
) -> list:
    """Whole speedup tables for many jobs: every row, in one ragged pass.

    The eager use of the row kernel (:func:`build_tput_cells`,
    :func:`fold_rows`, :func:`normalize_rows`) over :func:`all_rows`; the
    workload configs and the tests read it, and the scheduler's on-demand
    rows equal its entries bit for bit.  Passing previously built ``cells``
    of all rows skips the throughput evaluation and only folds in each
    job's current efficiency curve.

    ``table[k, flag]`` is the speedup of k GPUs co-located on one node
    (``flag == SINGLE_NODE``) or spanning two or more (``MULTI_NODE``);
    row 0 and infeasible cells are 0, and a job whose smallest feasible
    co-located placement exceeds its cap gets an all-zero table.

    Args:
        models: One goodput model per job.
        caps: Per-job maximum GPU count (table row count - 1), each >= 1.
        points_per_octave: Batch-size grid density (shared).
        type_speeds: Relative compute speed per GPU type; tables gain a
            trailing type axis when more than one (or ``squeeze=False``).
        squeeze: With a single type, drop the trailing type axis so the
            tables have the flat ``(cap + 1, 2)`` shape.
        cells: Optional throughput cells of :func:`all_rows` to reuse (must
            have been built with the same caps/grid/type speeds).
        batch_sizes: Also take each cell's goodput-maximizing batch size
            (the first maximum on ties): the workload configs read it, the
            GA does not.

    Returns:
        One speedup table per job, all views into one shared backing
        array; with ``batch_sizes`` one ``(speedup_table,
        batch_size_table)`` pair of equal shapes per job instead.
    """
    num_jobs = len(models)
    caps, speeds = _check_batch_args(models, caps, type_speeds)
    if num_jobs == 0:
        return []
    num_types = speeds.size
    flat = squeeze and num_types == 1
    rows = all_rows(caps)
    if cells is None:
        cells = build_tput_cells(models, caps, points_per_octave, type_speeds, rows)
    if len(cells.counts) != len(rows[0]):
        raise ValueError("cells must hold every row of every job")
    best_val, best_m = fold_rows(models, rows, [cells], batch_sizes)

    offsets = np.cumsum(caps) - caps
    k_ref, has_ref = normalization_rows(models, caps)
    ref_type = int(np.argmin(speeds))
    denom = np.where(
        has_ref, best_val[SINGLE_NODE, ref_type, offsets + k_ref - 1], 0.0
    )
    sp_val = normalize_rows(best_val, rows[0], denom)

    # Assemble every job's (cap + 1, 2[, T]) table as a view into one
    # contiguous backing array — one scatter for all jobs instead of a
    # per-job copy loop.  Job j's block spans rows offsets[j] + j ..
    # offsets[j] + j + cap_j; its first row is the all-zero k == 0 row.
    target = rows[0] + offsets[rows[0]] + rows[1]
    sp_full = np.zeros((len(target) + num_jobs, 2, num_types), dtype=float)
    sp_full[target] = sp_val.transpose(2, 0, 1)
    if batch_sizes:
        bm_full = np.zeros_like(sp_full)
        bm_full[target] = best_m.transpose(2, 0, 1)

    out: list = []
    for j, cap in enumerate(caps):
        start = int(offsets[j]) + j
        block = slice(start, start + int(cap) + 1)
        speedup = sp_full[block, :, 0] if flat else sp_full[block]
        if batch_sizes:
            bsz = bm_full[block, :, 0] if flat else bm_full[block]
            out.append((speedup, bsz))
        else:
            out.append(speedup)
    return out
