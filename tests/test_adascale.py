"""Tests for the AdaScale gain (Eqn. 5)."""

import numpy as np
import pytest

from repro.core.adascale import adascale_gain


class TestGain:
    def test_gain_is_one_at_m0(self):
        assert adascale_gain(500.0, 128.0, 128.0) == pytest.approx(1.0)

    def test_gain_formula(self):
        phi, m0, m = 100.0, 32.0, 128.0
        expected = (phi / m0 + 1.0) / (phi / m + 1.0)
        assert adascale_gain(phi, m0, m) == pytest.approx(expected)

    def test_large_phi_approaches_linear_scaling(self):
        # phi >> m: r_t -> m / m0 (the linear-scaling regime).
        gain = adascale_gain(1e9, 128.0, 1024.0)
        assert gain == pytest.approx(8.0, rel=1e-3)

    def test_small_phi_approaches_one(self):
        # phi << m0: no useful signal from bigger batches.
        gain = adascale_gain(1e-6, 128.0, 1024.0)
        assert gain == pytest.approx(1.0, rel=1e-3)

    def test_monotone_in_batch_size(self):
        gains = adascale_gain(500.0, 128.0, np.array([128, 256, 512, 4096]))
        assert np.all(np.diff(gains) > 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            adascale_gain(-1.0, 128.0, 256.0)
        with pytest.raises(ValueError):
            adascale_gain(1.0, 0.0, 256.0)


class TestScalingRules:
    def test_adascale_never_exceeds_linear(self):
        # r_t <= m / m0: AdaScale never scales the LR past the linear rule.
        for phi in (0.0, 10.0, 1e4, 1e8):
            assert adascale_gain(phi, 128.0, 2048.0) <= 2048.0 / 128.0 + 1e-12
