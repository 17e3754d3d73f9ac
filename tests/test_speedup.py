"""Tests for SPEEDUP (Eqn. 15) and the batched speedup tables."""

import numpy as np
import pytest

from repro.core import (
    BatchSizeLimits,
    EfficiencyModel,
    GoodputModel,
    ThroughputParams,
    build_speedup_tables_batch,
)
from repro.core.speedup import MULTI_NODE, SINGLE_NODE
from surface_reference import best_batch_size_table, speedup


def build_speedup_table(model, max_gpus, **kwargs):
    [table] = build_speedup_tables_batch([model], [max_gpus], **kwargs)
    return table


def batch_size_table(model, max_gpus, **kwargs):
    [(_, table)] = build_speedup_tables_batch(
        [model], [max_gpus], batch_sizes=True, **kwargs
    )
    return table


class TestSpeedupFunction:
    """Eqn. 15's properties, read off one placement's table cell."""

    def test_single_gpu_speedup_is_one(self, cifar_goodput):
        table = build_speedup_table(cifar_goodput, 1)
        assert table[1, SINGLE_NODE] == pytest.approx(1.0, rel=1e-3)

    def test_zero_gpus_speedup_is_zero(self, cifar_goodput):
        table = build_speedup_table(cifar_goodput, 4)
        np.testing.assert_array_equal(table[0], [0.0, 0.0])

    def test_sublinear_scaling(self, cifar_goodput):
        # SPEEDUP(K) <= K, and grows monotonically over moderate K.
        table = build_speedup_table(cifar_goodput, 16)
        previous = 0.0
        for k in (1, 2, 4, 8, 16):
            sp = table[k, SINGLE_NODE if k <= 4 else MULTI_NODE]
            assert sp <= k + 1e-6
            assert sp >= previous - 1e-6
            previous = sp

    def test_colocated_at_least_as_fast(self, cifar_goodput):
        table = build_speedup_table(cifar_goodput, 4)
        assert table[4, SINGLE_NODE] >= table[4, MULTI_NODE] - 1e-9


class TestSpeedupTable:
    def test_matches_direct_speedup(self, cifar_goodput):
        # Against golden-section search (the reference `speedup`).
        table = build_speedup_table(cifar_goodput, max_gpus=16)
        for k, nodes, flag in [
            (1, 1, SINGLE_NODE),
            (2, 1, SINGLE_NODE),
            (4, 1, SINGLE_NODE),
            (4, 2, MULTI_NODE),
            (8, 2, MULTI_NODE),
            (16, 4, MULTI_NODE),
        ]:
            direct = speedup(cifar_goodput, nodes, k, tol=0.1)
            assert table[k, flag] == pytest.approx(direct, rel=0.02)

    def test_shape_and_zero_row(self, cifar_goodput):
        table = build_speedup_table(cifar_goodput, max_gpus=8)
        assert table.shape == (9, 2)
        assert table[0, 0] == 0.0
        assert table[0, 1] == 0.0

    def test_one_gpu_multi_node_is_zero(self, cifar_goodput):
        table = build_speedup_table(cifar_goodput, max_gpus=8)
        assert table[1, MULTI_NODE] == 0.0

    def test_reference_is_one(self, cifar_goodput):
        table = build_speedup_table(cifar_goodput, max_gpus=8)
        assert table[1, SINGLE_NODE] == pytest.approx(1.0, rel=1e-6)

    def test_single_node_dominates_multi_node(self, cifar_goodput):
        table = build_speedup_table(cifar_goodput, max_gpus=16)
        for k in range(2, 17):
            assert table[k, SINGLE_NODE] >= table[k, MULTI_NODE] - 1e-9

    def test_monotone_in_gpus(self, cifar_goodput):
        table = build_speedup_table(cifar_goodput, max_gpus=16)
        assert np.all(np.diff(table[1:, SINGLE_NODE]) >= -1e-9)
        assert np.all(np.diff(table[2:, MULTI_NODE]) >= -1e-9)

    def test_higher_noise_scale_scales_further(
        self, cifar_params, cifar_limits
    ):
        low = GoodputModel(
            cifar_params, EfficiencyModel(128.0, 100.0), cifar_limits
        )
        high = GoodputModel(
            cifar_params, EfficiencyModel(128.0, 50000.0), cifar_limits
        )
        t_low = build_speedup_table(low, max_gpus=16)
        t_high = build_speedup_table(high, max_gpus=16)
        assert t_high[16, MULTI_NODE] > t_low[16, MULTI_NODE]

    def test_invalid_max_gpus(self, cifar_goodput):
        with pytest.raises(ValueError):
            build_speedup_table(cifar_goodput, max_gpus=0)


class TestBestBatchSizeTable:
    def test_within_limits(self, cifar_goodput):
        table = batch_size_table(cifar_goodput, max_gpus=16)
        limits = cifar_goodput.limits
        for k in range(1, 17):
            m = table[k, SINGLE_NODE]
            assert limits.init_batch_size <= m
            assert m <= min(limits.max_batch_size, k * limits.max_local_bsz)

    def test_grows_with_gpus(self, cifar_goodput):
        table = batch_size_table(cifar_goodput, max_gpus=16)
        assert table[16, MULTI_NODE] > table[1, SINGLE_NODE]

    def test_matches_golden_section_argmax(self, cifar_goodput):
        table = batch_size_table(cifar_goodput, max_gpus=16)
        m_gs, _ = cifar_goodput.optimize_batch_size(2, 8, tol=0.1)
        assert table[8, MULTI_NODE] == pytest.approx(m_gs, rel=0.08)

    def test_exact_tie_goes_to_the_smaller_batch_size(self):
        # A flat iteration time of 0.5 s and phi = 0 (efficiency m0 / m)
        # keep every product a power of two, so the two grid points tie
        # exactly: 128 / 0.5 * 1 == 256 / 0.5 * 0.5.
        params = ThroughputParams(0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        limits = BatchSizeLimits(
            init_batch_size=128.0, max_batch_size=256.0, max_local_bsz=256.0
        )
        model = GoodputModel(params, EfficiencyModel(128.0, 0.0), limits)
        [(surface, batch)] = build_speedup_tables_batch(
            [model], [2], points_per_octave=1, batch_sizes=True
        )
        np.testing.assert_array_equal(batch[:, SINGLE_NODE], [0.0, 128.0, 128.0])
        # k == 1 cannot span nodes.
        np.testing.assert_array_equal(batch[:, MULTI_NODE], [0.0, 0.0, 128.0])
        np.testing.assert_array_equal(surface[1:, SINGLE_NODE], [1.0, 1.0])
        np.testing.assert_array_equal(
            batch, best_batch_size_table(model, 2, points_per_octave=1)
        )
        np.testing.assert_array_equal(
            surface, build_speedup_table(model, 2, points_per_octave=1)
        )
