"""Tests for the model zoo, GNS trajectories, job configs, and traces."""

import numpy as np
import pytest

from repro.workload import (
    CATEGORY_BOUNDS_GPU_HOURS,
    MODEL_ZOO,
    WORKLOAD_FRACTIONS,
    GNSTrajectory,
    TraceConfig,
    generate_trace,
    hourly_submission_weights,
    sample_tuned_config,
    sample_user_config,
    valid_tuned_configs,
)


class TestGNSTrajectory:
    def test_monotone_growth_without_jumps(self):
        traj = GNSTrajectory(phi_start=100.0, phi_end=1000.0)
        ps = np.linspace(0, 1, 50)
        phis = traj.phi(ps)
        assert np.all(np.diff(phis) > 0)
        assert phis[0] == pytest.approx(100.0)
        assert phis[-1] == pytest.approx(1000.0)

    def test_jumps_applied(self):
        traj = GNSTrajectory(
            phi_start=100.0, phi_end=100.0, decay_jumps=((0.5, 3.0),)
        )
        assert traj.phi(0.49) == pytest.approx(100.0)
        assert traj.phi(0.51) == pytest.approx(300.0)
        assert traj.final_phi == pytest.approx(300.0)

    def test_progress_clipped(self):
        traj = GNSTrajectory(phi_start=100.0, phi_end=400.0)
        assert traj.phi(-0.5) == pytest.approx(100.0)
        assert traj.phi(1.5) == pytest.approx(400.0)

    def test_ten_x_growth_documented_in_paper(self):
        # Sec. 2.2: phi grows by 10x or more during training for some models.
        imagenet = MODEL_ZOO["resnet50-imagenet"].gns
        assert imagenet.final_phi / imagenet.phi(0.0) >= 10.0

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            GNSTrajectory(phi_start=0.0, phi_end=1.0)
        with pytest.raises(ValueError):
            GNSTrajectory(100.0, 200.0, decay_jumps=((1.5, 2.0),))
        with pytest.raises(ValueError):
            GNSTrajectory(100.0, 200.0, decay_jumps=((0.5, 0.0),))


class TestModelZoo:
    def test_five_models(self):
        assert len(MODEL_ZOO) == 5

    def test_fractions_sum_to_one(self):
        assert sum(WORKLOAD_FRACTIONS.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_gpu_time_category_calibration(self, name):
        # Each model's single-GPU duration must land in its Table 1
        # GPU-time category (Sec. 5.1).
        profile = MODEL_ZOO[name]
        lo, hi = CATEGORY_BOUNDS_GPU_HOURS[profile.category]
        duration = profile.single_gpu_duration_hours()
        assert lo <= duration <= hi, (
            f"{name}: {duration:.2f} GPU-h outside {profile.category}"
        )

    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_m0_fits_on_one_gpu(self, name):
        profile = MODEL_ZOO[name]
        assert profile.limits.min_gpus() == 1

    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_throughput_scales_with_batch(self, name):
        # Larger batches must enable higher throughput (Sec. 2.1), the
        # premise the whole paper builds on.
        profile = MODEL_ZOO[name]
        truth = profile.throughput_true
        m0 = profile.init_batch_size
        hi = min(profile.max_batch_size, 8 * profile.max_local_bsz)
        t_small = float(truth.throughput(2, 8, m0))
        t_large = float(truth.throughput(2, 8, hi))
        assert t_large > t_small


class TestTunedConfigs:
    def test_every_model_has_multi_gpu_configs(self):
        # The 50-80% band excludes K=1 (always 100% of ideal); every zoo
        # model scales well enough to have in-band configurations.
        for profile in MODEL_ZOO.values():
            configs = valid_tuned_configs(profile, max_gpus=64)
            assert configs, profile.name
            assert all(k >= 2 for k, _ in configs), profile.name

    def test_band_respected(self):
        from repro.workload.configs import TUNED_SPEEDUP_BAND, true_goodput_model
        from repro.core.speedup import build_speedup_tables_batch

        profile = MODEL_ZOO["resnet18-cifar10"]
        model = true_goodput_model(profile)
        [table] = build_speedup_tables_batch([model], [32])
        lo, hi = TUNED_SPEEDUP_BAND
        for k, _ in valid_tuned_configs(profile, max_gpus=32):
            if k == 1:
                continue
            flag = 0 if k <= 4 else 1
            assert lo * k <= table[k, flag] <= hi * k

    def test_sampling_deterministic_per_seed(self):
        profile = MODEL_ZOO["yolov3-voc"]
        a = sample_tuned_config(profile, np.random.default_rng(3))
        b = sample_tuned_config(profile, np.random.default_rng(3))
        assert a == b

    def test_user_config_within_feasibility(self):
        rng = np.random.default_rng(0)
        for profile in MODEL_ZOO.values():
            for _ in range(10):
                gpus, bs = sample_user_config(profile, rng)
                assert gpus >= 1
                feasible = profile.limits.range_for(gpus)
                assert feasible is not None
                lo, hi = feasible
                assert lo - 1 <= bs <= hi + 1

    def test_user_config_within_2x_of_optimal(self):
        from repro.workload.configs import _placement_flag, _tuning_tables

        rng = np.random.default_rng(1)
        profile = MODEL_ZOO["resnet18-cifar10"]
        _, best_bs = _tuning_tables(profile.name, 64)
        for _ in range(20):
            gpus, bs = sample_user_config(profile, rng)
            optimal = best_bs[gpus, _placement_flag(gpus, 4)]
            lo, hi = profile.limits.range_for(gpus)
            low_bound = max(optimal / 2.0, lo)
            high_bound = min(optimal * 2.0, hi)
            assert low_bound - 1 <= bs <= high_bound + 1


class TestConfigsAgainstPerJobBuilders:
    def test_configs_equal_through_the_reference_builder(self, monkeypatch):
        """The batched builder's tables give the configs the per-job
        builders gave: the same valid set and the same sampled pair."""
        import surface_reference
        from repro.workload import configs

        grid = [(m, g) for m in (8, 16, 32, 64) for g in (4, 8)]

        def outcomes():
            out = []
            for profile in MODEL_ZOO.values():
                for max_gpus, per_node in grid:
                    rng = np.random.default_rng(11)
                    out.append(
                        (
                            valid_tuned_configs(profile, max_gpus, per_node),
                            [
                                sample_user_config(profile, rng, max_gpus, per_node)
                                for _ in range(4)
                            ],
                        )
                    )
            return out

        got = outcomes()
        monkeypatch.setattr(
            configs, "_tuning_tables", surface_reference.reference_tuning_tables
        )
        assert got == outcomes()


class TestTrace:
    def test_hourly_weights_peak(self):
        weights = hourly_submission_weights(8.0)
        assert len(weights) == 8
        # Fig. 6: the 4th hour peaks at ~3x the 1st hour.
        assert weights[3] == pytest.approx(3.0 * weights[0])

    def test_partial_final_hour(self):
        weights = hourly_submission_weights(1.5)
        assert len(weights) == 2
        assert weights[1] == pytest.approx(0.5 * 1.6)

    def test_trace_basics(self):
        trace = generate_trace(TraceConfig(num_jobs=50, seed=0))
        assert len(trace) == 50
        times = [j.submission_time for j in trace]
        assert times == sorted(times)
        assert all(0 <= t < 8 * 3600 for t in times)
        assert len({j.name for j in trace}) == 50

    def test_trace_deterministic(self):
        a = generate_trace(TraceConfig(num_jobs=20, seed=5))
        b = generate_trace(TraceConfig(num_jobs=20, seed=5))
        assert [(j.name, j.submission_time, j.model.name) for j in a] == [
            (j.name, j.submission_time, j.model.name) for j in b
        ]

    def test_category_mix_approximates_table1(self):
        trace = generate_trace(TraceConfig(num_jobs=2000, seed=1))
        counts = {}
        for job in trace:
            counts[job.model.name] = counts.get(job.model.name, 0) + 1
        for name, frac in WORKLOAD_FRACTIONS.items():
            assert counts.get(name, 0) / 2000 == pytest.approx(frac, abs=0.03)

    def test_user_configured_fraction(self):
        trace = generate_trace(
            TraceConfig(num_jobs=300, seed=2, user_configured_fraction=0.5)
        )
        frac = sum(j.user_configured for j in trace) / len(trace)
        assert frac == pytest.approx(0.5, abs=0.1)

    def test_diurnal_shape(self):
        trace = generate_trace(TraceConfig(num_jobs=4000, seed=3))
        hours = np.array([j.submission_time // 3600 for j in trace])
        counts = np.bincount(hours.astype(int), minlength=8)
        # The peak hour (index 3) should see ~3x hour 0.
        assert counts[3] / counts[0] == pytest.approx(3.0, rel=0.3)

    def test_rejects_unknown_model_fraction(self):
        with pytest.raises(ValueError):
            generate_trace(
                TraceConfig(num_jobs=5, model_fractions={"not-a-model": 1.0})
            )
