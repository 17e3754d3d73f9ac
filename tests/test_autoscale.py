"""Tests for goodput-based cloud auto-scaling (Sec. 4.2.2)."""

import pytest

from repro.cluster import ClusterSpec
from repro.core import AutoscaleConfig, SurfaceCache, UtilityAutoscaler
from tests.test_sched import make_job


@pytest.fixture
def config() -> AutoscaleConfig:
    return AutoscaleConfig(min_nodes=1, max_nodes=8)


@pytest.fixture
def autoscaler(config) -> UtilityAutoscaler:
    return UtilityAutoscaler(config, SurfaceCache())


def fleet(n: int) -> ClusterSpec:
    return ClusterSpec.homogeneous(n, 4)


class TestConfig:
    def test_target_utility_is_band_midpoint(self, config):
        assert config.target_utility == pytest.approx(
            0.5 * (config.low_util_thres + config.high_util_thres)
        )

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            AutoscaleConfig(low_util_thres=0.9, high_util_thres=0.5)
        with pytest.raises(ValueError):
            AutoscaleConfig(min_nodes=4, max_nodes=2)


class TestDecide:
    def test_keeps_size_when_in_band(self, autoscaler):
        jobs = [make_job("a")]
        decision = autoscaler.decide(0.7, jobs, fleet(4))
        assert decision.num_nodes == 4
        assert not decision.changed

    def test_no_jobs_scales_to_min(self, autoscaler, config):
        decision = autoscaler.decide(0.0, [], fleet(6))
        assert decision.num_nodes == config.min_nodes

    def test_low_utility_shrinks(self, autoscaler):
        # A job with a tiny noise scale cannot use a big cluster: speedup
        # saturates, utility is low, the autoscaler should shrink.
        jobs = [make_job("a", phi=10.0, max_gpus_seen=32)]
        decision = autoscaler.decide(0.1, jobs, fleet(8))
        assert decision.changed
        assert decision.num_nodes < 8

    def test_high_utility_grows(self, autoscaler):
        # A job with a huge noise scale scales almost linearly: utility at a
        # small cluster is ~1, so the autoscaler should grow.
        jobs = [make_job("a", phi=1e6, max_gpus_seen=64)]
        decision = autoscaler.decide(0.98, jobs, fleet(1))
        assert decision.changed
        assert decision.num_nodes > 1

    def test_growth_monotone_in_noise_scale(self, autoscaler):
        sizes = []
        for phi in (50.0, 5000.0, 1e6):
            jobs = [make_job("a", phi=phi, max_gpus_seen=64)]
            decision = autoscaler.decide(0.99, jobs, fleet(1))
            sizes.append(decision.num_nodes)
        assert sizes == sorted(sizes)

    def test_probes_recorded(self, autoscaler):
        jobs = [make_job("a", phi=10.0, max_gpus_seen=32)]
        decision = autoscaler.decide(0.1, jobs, fleet(8))
        assert len(decision.probed) >= 1
        for nodes, util in decision.probed:
            assert 1 <= nodes <= 8
            assert 0.0 <= util <= 1.0 + 1e-9
