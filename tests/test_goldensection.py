"""Tests for golden-section search."""

import math

import numpy as np
import pytest

from repro.core.goldensection import golden_section_search


class TestContinuous:
    def test_finds_parabola_peak(self):
        x, fx = golden_section_search(lambda x: -((x - 3.0) ** 2), 0.0, 10.0)
        assert abs(x - 3.0) < 1e-4
        assert abs(fx) < 1e-7

    def test_peak_at_left_boundary(self):
        x, _ = golden_section_search(lambda x: -x, 2.0, 5.0, tol=1e-8)
        assert abs(x - 2.0) < 1e-5

    def test_peak_at_right_boundary(self):
        x, _ = golden_section_search(lambda x: x, 2.0, 5.0, tol=1e-8)
        assert abs(x - 5.0) < 1e-5

    def test_degenerate_interval(self):
        x, fx = golden_section_search(lambda x: -x * x, 4.0, 4.0)
        assert x == 4.0
        assert fx == -16.0

    def test_invalid_interval_raises(self):
        with pytest.raises(ValueError):
            golden_section_search(lambda x: x, 5.0, 2.0)

    def test_asymmetric_unimodal(self):
        # A skewed unimodal function: x * exp(-x / 7).
        def fn(x):
            return x * math.exp(-x / 7.0)

        x, _ = golden_section_search(fn, 0.0, 50.0, tol=1e-6)
        assert abs(x - 7.0) < 1e-3

    def test_tolerance_controls_precision(self):
        def fn(x):
            return -((x - math.pi) ** 2)

        x_coarse, _ = golden_section_search(fn, 0.0, 10.0, tol=1.0)
        x_fine, _ = golden_section_search(fn, 0.0, 10.0, tol=1e-9)
        assert abs(x_fine - math.pi) <= abs(x_coarse - math.pi) + 1e-12
        assert abs(x_fine - math.pi) < 1e-5

    def test_goodput_like_objective(self):
        # THROUGHPUT(m) * EFFICIENCY(m) shape: rises then falls.
        phi, m0 = 500.0, 32.0

        def goodput(m):
            tput = m / (0.01 + 0.0005 * m / 8.0)
            eff = (phi + m0) / (phi + m)
            return tput * eff

        x, _ = golden_section_search(goodput, m0, 10000.0, tol=0.5)
        grid = np.linspace(m0, 10000.0, 20000)
        best = grid[np.argmax([goodput(m) for m in grid])]
        assert abs(x - best) < 2.0

