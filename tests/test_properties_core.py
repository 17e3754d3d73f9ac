"""Property-based tests (hypothesis) for the core goodput machinery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchSizeLimits,
    EfficiencyModel,
    GoodputModel,
    ThroughputModel,
    ThroughputParams,
    adascale_gain,
    efficiency,
)
from repro.core.goldensection import golden_section_search

# Strategy: physically sensible throughput parameters.
params_st = st.builds(
    ThroughputParams,
    alpha_grad=st.floats(1e-4, 1.0),
    beta_grad=st.floats(1e-6, 0.05),
    alpha_sync_local=st.floats(0.0, 0.5),
    beta_sync_local=st.floats(0.0, 0.01),
    alpha_sync_node=st.floats(0.0, 1.0),
    beta_sync_node=st.floats(0.0, 0.05),
    gamma=st.floats(1.0, 10.0),
)

phi_st = st.floats(0.0, 1e7)
m0_st = st.floats(1.0, 1024.0)


class TestThroughputProperties:
    @given(params=params_st, gpus=st.integers(1, 64), m=st.floats(1.0, 65536.0))
    @settings(max_examples=200, deadline=None)
    def test_t_iter_positive(self, params, gpus, m):
        model = ThroughputModel(params)
        nodes = 1 if gpus <= 4 else 2
        assert float(model.t_iter(nodes, gpus, m)) > 0.0

    @given(params=params_st, gpus=st.integers(1, 64), m=st.floats(1.0, 65536.0))
    @settings(max_examples=200, deadline=None)
    def test_t_iter_bounded_by_sum_and_max(self, params, gpus, m):
        model = ThroughputModel(params)
        nodes = 1 if gpus <= 4 else 2
        tg = float(model.t_grad(gpus, m))
        ts = float(model.t_sync(nodes, gpus))
        ti = float(model.t_iter(nodes, gpus, m))
        assert max(tg, ts) - 1e-9 <= ti <= tg + ts + 1e-9

    @given(params=params_st, gpus=st.integers(2, 64))
    @settings(max_examples=100, deadline=None)
    def test_multi_node_sync_at_least_local(self, params, gpus):
        # Only guaranteed when node parameters dominate local ones, which we
        # enforce by construction here.
        if (
            params.alpha_sync_node < params.alpha_sync_local
            or params.beta_sync_node < params.beta_sync_local
        ):
            return
        model = ThroughputModel(params)
        assert float(model.t_sync(2, gpus)) >= float(model.t_sync(1, gpus)) - 1e-12

    @given(params=params_st, m=st.floats(32.0, 8192.0))
    @settings(max_examples=100, deadline=None)
    def test_throughput_monotone_in_batch(self, params, m):
        model = ThroughputModel(params)
        t1 = float(model.throughput(2, 8, m))
        t2 = float(model.throughput(2, 8, m * 1.5))
        assert t2 >= t1 - 1e-9 * max(t1, 1.0)


class TestEfficiencyProperties:
    @given(phi=phi_st, m0=m0_st, factor=st.floats(1.0, 1000.0))
    @settings(max_examples=300, deadline=None)
    def test_efficiency_in_unit_interval(self, phi, m0, factor):
        value = efficiency(phi, m0, m0 * factor)
        assert 0.0 < value <= 1.0 + 1e-12

    @given(phi=phi_st, m0=m0_st, f1=st.floats(1.0, 100.0), f2=st.floats(1.0, 100.0))
    @settings(max_examples=300, deadline=None)
    def test_efficiency_antitone_in_batch(self, phi, m0, f1, f2):
        lo, hi = sorted([f1, f2])
        assert efficiency(phi, m0, m0 * hi) <= efficiency(phi, m0, m0 * lo) + 1e-12

    @given(phi=phi_st, m0=m0_st, factor=st.floats(1.0, 1000.0))
    @settings(max_examples=300, deadline=None)
    def test_gain_equals_efficiency_times_ratio(self, phi, m0, factor):
        m = m0 * factor
        gain = adascale_gain(phi, m0, m)
        eff = efficiency(phi, m0, m)
        assert gain == pytest.approx(eff * m / m0, rel=1e-9)

    @given(phi=phi_st, m0=m0_st, factor=st.floats(1.0, 1000.0))
    @settings(max_examples=300, deadline=None)
    def test_gain_bounds(self, phi, m0, factor):
        m = m0 * factor
        gain = adascale_gain(phi, m0, m)
        assert 1.0 - 1e-9 <= gain <= m / m0 + 1e-9


class TestGoodputProperties:
    @given(
        params=params_st,
        phi=st.floats(1.0, 1e6),
        gpus=st.integers(1, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_optimal_batch_within_limits(self, params, phi, gpus):
        limits = BatchSizeLimits(
            init_batch_size=64.0, max_batch_size=8192.0, max_local_bsz=512.0
        )
        model = GoodputModel(params, EfficiencyModel(64.0, phi), limits)
        nodes = 1 if gpus <= 4 else 2
        m, goodput = model.optimize_batch_size(nodes, gpus)
        assert 64.0 - 1e-6 <= m <= min(8192.0, gpus * 512.0) + 1e-6
        assert goodput > 0.0

    @given(
        params=params_st,
        phi=st.floats(1.0, 1e6),
        gpus=st.integers(1, 16),
    )
    @settings(max_examples=40, deadline=None)
    def test_golden_section_matches_grid(self, params, phi, gpus):
        limits = BatchSizeLimits(
            init_batch_size=64.0, max_batch_size=8192.0, max_local_bsz=512.0
        )
        model = GoodputModel(params, EfficiencyModel(64.0, phi), limits)
        nodes = 1 if gpus <= 4 else 2
        _, g_gs = model.optimize_batch_size(nodes, gpus, tol=0.5)
        _, g_grid = model.optimize_batch_size_grid(
            nodes, gpus, points_per_octave=32
        )
        assert g_gs == pytest.approx(g_grid, rel=0.01)


class TestGoldenSectionProperties:
    @given(
        peak=st.floats(-50.0, 50.0),
        width=st.floats(0.1, 20.0),
        lo=st.floats(-100.0, -51.0),
        hi=st.floats(51.0, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_finds_quadratic_peak(self, peak, width, lo, hi):
        def fn(x):
            return -((x - peak) / width) ** 2

        x, _ = golden_section_search(fn, lo, hi, tol=1e-7)
        assert abs(x - peak) < 1e-3
