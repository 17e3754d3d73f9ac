"""The table fold against its own parent.

``build_speedup_tables_batch`` folds each job's current efficiency curve
into its cached throughput cells and takes a segmented max: the speedup
tables the GA reads.  Its parent, ``build_surfaces_batch``, also took the
segmented argmax into a batch-size table on every call; that body is kept
here as the oracle.  Every job's speedup table must come back
``array_equal`` to the oracle's first element, and with
``batch_sizes=True`` (what the workload configs read) the batch-size table
to its second.
"""

import hashlib
import sys
from pathlib import Path
from typing import List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.e2e import inputs  # noqa: E402
from repro.cluster import ClusterSpec  # noqa: E402
from repro.core import (  # noqa: E402
    BatchSizeLimits,
    EfficiencyModel,
    GoodputModel,
)
from repro.core.speedup import (  # noqa: E402
    MULTI_NODE,
    SINGLE_NODE,
    TputCells,
    _check_batch_args,
    build_speedup_tables_batch,
    build_tput_cells,
)
from repro.workload import MODEL_ZOO  # noqa: E402


def reference_build_surfaces_batch(
    models, caps, points_per_octave=16, type_speeds=(1.0,), squeeze=True, cells=None
):
    """``build_surfaces_batch`` as it stood before its fold was rewritten.

    The oracle, returning ``(speedup_table, batch_size_table)`` per job: a
    second ``(2, T, C)`` goodput array, a ``(C,)`` index array with two
    gathers for the efficiency curve, ``seg_max`` spread by fancy indexing
    and the first maximum taken by a second ``reduceat`` over a ``(2, T,
    C)`` candidate-index array.
    """
    num_jobs = len(models)
    caps, speeds = _check_batch_args(models, caps, type_speeds)
    if num_jobs == 0:
        return []
    num_types = speeds.size
    flat = squeeze and num_types == 1
    ref_type = int(np.argmin(speeds))
    if cells is None:
        cells = build_tput_cells(models, caps, points_per_octave, type_speeds)

    offsets = np.concatenate([[0], np.cumsum(caps)[:-1]])
    num_rows = int(caps.sum())
    job_of_row = np.repeat(np.arange(num_jobs), caps)

    tput, m_cells, counts = cells.tput, cells.m_cells, cells.counts
    if counts.shape != (num_rows,):
        raise ValueError("cells must hold every row of every job")
    cells_per_job = np.add.reduceat(counts, offsets)
    cell_job = np.repeat(np.arange(num_jobs), cells_per_job)

    phi_job = np.array(
        [model.efficiency_model.grad_noise_scale for model in models]
    )
    m0_job = np.array(
        [model.efficiency_model.init_batch_size for model in models]
    )
    phi_c = phi_job[cell_job]
    eff = (phi_c + m0_job[cell_job]) / (phi_c + m_cells)  # (C,)
    goodput = tput * eff  # (2, T, C)

    best_val = np.zeros((2, num_types, num_rows), dtype=float)
    best_m = np.zeros((2, num_types, num_rows), dtype=float)
    rows_nz = counts > 0
    num_cells = int(m_cells.size)
    if num_cells:
        starts_all = np.concatenate([[0], np.cumsum(counts)[:-1]])
        starts_nz = starts_all[rows_nz]
        seg_max = np.maximum.reduceat(goodput, starts_nz, axis=-1)
        num_nz = int(rows_nz.sum())
        seg_of_cell = np.repeat(np.arange(num_nz), counts[rows_nz])
        is_max = goodput == seg_max[:, :, seg_of_cell]
        cand = np.where(
            is_max,
            np.arange(num_cells, dtype=np.int32)[None, None, :],
            np.int32(num_cells),
        )
        seg_arg = np.minimum.reduceat(cand, starts_nz, axis=-1)
        best_val[:, :, rows_nz] = seg_max
        best_m[:, :, rows_nz] = m_cells[seg_arg]

    best_val[MULTI_NODE, :, offsets] = 0.0
    best_m[MULTI_NODE, :, offsets] = 0.0

    min_gpus_job = np.array(
        [model.limits.min_gpus() for model in models], dtype=np.int64
    )
    has_ref = min_gpus_job <= caps
    denom_job = np.zeros(num_jobs, dtype=float)
    ref_rows = offsets + np.minimum(min_gpus_job, caps) - 1
    denom_job[has_ref] = best_val[SINGLE_NODE, ref_type, ref_rows[has_ref]]
    pos = denom_job > 0
    denom_rows = np.where(pos, denom_job, 1.0)[job_of_row]
    sp_val = (best_val / denom_rows) * pos[job_of_row]

    sp_full = np.zeros((num_rows + num_jobs, 2, num_types), dtype=float)
    bm_full = np.zeros((num_rows + num_jobs, 2, num_types), dtype=float)
    target = np.arange(num_rows) + job_of_row + 1
    sp_full[target] = sp_val.transpose(2, 0, 1)
    bm_full[target] = best_m.transpose(2, 0, 1)

    out: List[Tuple[np.ndarray, np.ndarray]] = []
    for j, cap in enumerate(caps):
        start = int(offsets[j]) + j
        block = slice(start, start + int(cap) + 1)
        if flat:
            out.append((sp_full[block, :, 0], bm_full[block, :, 0]))
        else:
            out.append((sp_full[block], bm_full[block]))
    return out


def reference_speedup_tables(models, caps, **kwargs):
    """The oracle's speedup tables: the first element of every pair."""
    return [sp for sp, _ in reference_build_surfaces_batch(models, caps, **kwargs)]


def assert_same_tables(got, want):
    assert len(got) == len(want)
    for job, (sp, ref_sp) in enumerate(zip(got, want)):
        assert sp.shape == ref_sp.shape, job
        np.testing.assert_array_equal(sp, ref_sp, err_msg=f"speedup, job {job}")


def assert_same_pairs(got, want):
    """``batch_sizes=True`` output against the oracle's pairs."""
    assert len(got) == len(want)
    for job, ((sp, bsz), (ref_sp, ref_bsz)) in enumerate(zip(got, want)):
        assert sp.shape == bsz.shape == ref_bsz.shape, job
        np.testing.assert_array_equal(sp, ref_sp, err_msg=f"speedup, job {job}")
        np.testing.assert_array_equal(bsz, ref_bsz, err_msg=f"batch, job {job}")


_ZOO = [MODEL_ZOO[name] for name in sorted(MODEL_ZOO)]


@st.composite
def fold_problems(draw):
    """Models, caps, type speeds and ``squeeze`` for one batched fold."""
    num_jobs = draw(st.integers(1, 40))
    models, caps = [], []
    for _ in range(num_jobs):
        profile = _ZOO[draw(st.integers(0, len(_ZOO) - 1))]
        limits = profile.limits
        cap = draw(st.integers(1, 64))
        if draw(st.integers(0, 5)) == 0:
            # The initial batch needs more GPUs than the cap allows: every
            # row of this job is without a feasible cell.
            limits = BatchSizeLimits(
                init_batch_size=limits.init_batch_size,
                max_batch_size=limits.max_batch_size,
                max_local_bsz=limits.init_batch_size / (cap + 1),
            )
            assert limits.min_gpus() > cap
        phi = draw(st.floats(0.0, 1e5, allow_nan=False))
        models.append(
            GoodputModel(
                profile.theta_true,
                EfficiencyModel(limits.init_batch_size, phi),
                limits,
            )
        )
        caps.append(cap)
    speeds = draw(st.sampled_from([(1.0,), (2.5,), (1.0, 2.5), (3.0, 1.0)]))
    return models, caps, speeds, draw(st.booleans())


class TestFoldAgainstParent:
    @settings(max_examples=60, deadline=None)
    @given(problem=fold_problems())
    def test_tables_equal_the_parent_body(self, problem):
        models, caps, speeds, squeeze = problem
        cells = build_tput_cells(models, caps, type_speeds=speeds)
        kwargs = dict(type_speeds=speeds, squeeze=squeeze, cells=cells)
        got = build_speedup_tables_batch(models, caps, **kwargs)
        want = reference_speedup_tables(models, caps, **kwargs)
        assert_same_tables(got, want)
        assert_same_pairs(
            build_speedup_tables_batch(models, caps, batch_sizes=True, **kwargs),
            reference_build_surfaces_batch(models, caps, **kwargs),
        )
        # The cached cells are folded from a copy, never written.
        again = build_tput_cells(models, caps, type_speeds=speeds)
        np.testing.assert_array_equal(cells.tput, again.tput)

    def test_no_job_has_a_feasible_cell(self):
        limits = BatchSizeLimits(
            init_batch_size=512.0, max_batch_size=4096.0, max_local_bsz=64.0
        )
        profile = _ZOO[0]
        models = [
            GoodputModel(profile.theta_true, EfficiencyModel(512.0, 100.0), limits)
        ] * 2
        got = build_speedup_tables_batch(models, [3, 7])
        assert_same_tables(got, reference_speedup_tables(models, [3, 7]))
        assert all(not sp.any() for sp in got)
        pairs = build_speedup_tables_batch(models, [3, 7], batch_sizes=True)
        assert_same_pairs(pairs, reference_build_surfaces_batch(models, [3, 7]))
        assert all(not bsz.any() for _, bsz in pairs)

    def test_tied_cells_share_one_maximum(self):
        # phi = 0 makes the efficiency curve m0 / m, exact at powers of
        # two, so equal goodputs can be written down: 1 * 1 == 2 * 0.5.
        limits = BatchSizeLimits(
            init_batch_size=128.0, max_batch_size=1024.0, max_local_bsz=512.0
        )
        model = GoodputModel(_ZOO[0].theta_true, EfficiencyModel(128.0, 0.0), limits)
        m_cells = np.array([128.0, 256.0, 512.0, 128.0, 256.0, 512.0, 1024.0])
        single = np.array([1.0, 2.0, 3.0, 0.5, 2.0, 4.0, 8.0])
        # goodput: [1, 1, .75 | .5, 1, 1, 1] and [2, 1, 2 | 1, 1, 1, 1]
        multi = np.array([2.0, 2.0, 8.0, 1.0, 2.0, 4.0, 8.0])
        cells = TputCells(
            np.stack([single, multi])[:, None, :], m_cells, np.array([3, 4])
        )
        got = build_speedup_tables_batch([model], [2], cells=cells)
        assert_same_tables(got, reference_speedup_tables([model], [2], cells=cells))
        [speedup] = got
        np.testing.assert_array_equal(speedup[:, SINGLE_NODE], [0.0, 1.0, 1.0])
        # k == 1 cannot span nodes; at k == 2 all four cells tie.
        np.testing.assert_array_equal(speedup[:, MULTI_NODE], [0.0, 0.0, 1.0])
        # Ties go to the first (smallest) batch size of the row.
        [(_, bsz)] = build_speedup_tables_batch(
            [model], [2], cells=cells, batch_sizes=True
        )
        np.testing.assert_array_equal(bsz[:, SINGLE_NODE], [0.0, 128.0, 256.0])
        np.testing.assert_array_equal(bsz[:, MULTI_NODE], [0.0, 0.0, 128.0])

    def test_round_dense_tables_hash_equal(self):
        # The 256 jobs of the ledger's round_dense workload at seed 1, in
        # blocks of 64 jobs.
        cluster = ClusterSpec.homogeneous(64, 8)
        state = inputs.synthetic_state(cluster, 256, inputs.sub_seed(1, "state"))
        reports = [snap.agent_report for snap in state.jobs]
        models = [report.goodput_model() for report in reports]
        caps = [report.exploration_cap(cluster.total_gpus) for report in reports]
        digests = []
        for build in (build_speedup_tables_batch, reference_speedup_tables):
            sha = hashlib.sha256()
            for lo in range(0, 256, 64):
                for sp in build(models[lo : lo + 64], caps[lo : lo + 64]):
                    sha.update(np.ascontiguousarray(sp).tobytes())
            digests.append(sha.hexdigest())
        assert digests[0] == digests[1]
