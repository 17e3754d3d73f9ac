"""Tests for PolluxAgent: profiling, online fitting, tuning (Sec. 4.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BatchSizeLimits, PolluxAgent, optimistic_params
from repro.core.agent import TABLE_TUNING_POINTS_PER_OCTAVE, _grid_argmaxes
from repro.core.efficiency import EfficiencyModel
from repro.core.goodput import GoodputModel
from repro.core.throughput import ThroughputModel, ThroughputParams
from repro.workload import MODEL_ZOO
from surface_reference import ReferenceAgent, grid_argmax


@pytest.fixture
def cifar_profile():
    return MODEL_ZOO["resnet18-cifar10"]


@pytest.fixture
def agent(cifar_profile) -> PolluxAgent:
    return PolluxAgent(
        init_batch_size=float(cifar_profile.init_batch_size),
        init_lr=cifar_profile.init_lr,
        limits=cifar_profile.limits,
    )


def feed_observations(agent, profile, placements, rng, batches=(128, 256, 512)):
    truth = profile.throughput_true
    for nodes, gpus in placements:
        for m in batches:
            if m > gpus * profile.max_local_bsz:
                continue
            t = float(truth.t_iter(nodes, gpus, m))
            agent.record_iteration(nodes, gpus, m, t * rng.lognormal(sigma=0.02))


class TestMeasurement:
    def test_initial_state(self, agent):
        assert agent.grad_noise_scale == 0.0
        assert agent.max_gpus_seen == 0
        assert agent.throughput_params == optimistic_params()

    def test_record_iteration_updates_exploration(self, agent):
        agent.record_iteration(1, 1, 128, 0.1)
        assert agent.max_gpus_seen == 1
        agent.record_iteration(2, 8, 512, 0.2)
        assert agent.max_gpus_seen == 8
        assert agent.exploration.seen_multi_node

    def test_rejects_bad_observations(self, agent):
        with pytest.raises(ValueError):
            agent.record_iteration(0, 1, 128, 0.1)
        with pytest.raises(ValueError):
            agent.record_iteration(1, 1, 128, -0.1)

    def test_grad_stats_to_noise_scale(self, agent):
        agent.record_grad_stats(var=4.0, sqr=1.0)
        assert agent.grad_noise_scale == pytest.approx(128.0 * 4.0)

    def test_profile_aggregates_same_config(self, agent):
        for t in (0.10, 0.12, 0.14):
            agent.record_iteration(1, 2, 256, t)
        entries = agent.profile_entries()
        assert len(entries) == 1
        assert entries[0].t_iter == pytest.approx(0.12)

    def test_profile_buckets_nearby_batch_sizes(self, agent):
        agent.record_iteration(1, 2, 256, 0.1)
        agent.record_iteration(1, 2, 258, 0.1)  # within 5% bucket
        agent.record_iteration(1, 2, 300, 0.1)  # different bucket
        assert len(agent.profile_entries()) == 2


class TestFitting:
    def test_fit_requires_observations(self, agent):
        with pytest.raises(RuntimeError):
            agent.fit()

    def test_fit_recovers_truth(self, agent, cifar_profile, rng):
        feed_observations(
            agent,
            cifar_profile,
            [(1, 1), (1, 2), (1, 4), (2, 8), (4, 16)],
            rng,
            batches=(128, 256, 512, 1024, 2048),
        )
        fitted = ThroughputModel(agent.fit())
        truth = cifar_profile.throughput_true
        for nodes, gpus, m in [(1, 4, 512), (4, 16, 2048)]:
            assert float(fitted.t_iter(nodes, gpus, m)) == pytest.approx(
                float(truth.t_iter(nodes, gpus, m)), rel=0.1
            )

    def test_fit_cached_until_new_placement(self, agent, cifar_profile, rng):
        feed_observations(agent, cifar_profile, [(1, 1)], rng)
        first = agent.fit()
        # Same placement, same bucket: no refit.
        agent.record_iteration(1, 1, 128, 0.107)
        assert agent.fit() is first
        # New placement: refit.
        agent.record_iteration(1, 2, 256, 0.06)
        assert agent.fit() is not first

    def test_single_gpu_fit_predicts_perfect_scaling(
        self, agent, cifar_profile, rng
    ):
        feed_observations(agent, cifar_profile, [(1, 1)], rng)
        params = agent.fit()
        assert params.alpha_sync_local == 0.0
        assert params.alpha_sync_node == 0.0
        model = ThroughputModel(params)
        t1 = float(model.throughput(1, 1, 128))
        t8 = float(model.throughput(2, 8, 1024))
        assert t8 == pytest.approx(8 * t1, rel=0.1)


class TestReporting:
    def test_report_exploration_cap(self, agent):
        report = agent.report()
        assert report.exploration_cap(64) == 1  # never allocated: start at 1
        agent.record_iteration(1, 1, 128, 0.1)
        assert agent.report().exploration_cap(64) == 2
        agent.record_iteration(1, 4, 512, 0.1)
        assert agent.report().exploration_cap(64) == 8
        assert agent.report().exploration_cap(6) == 6  # hard cap wins

    def test_report_builds_goodput_model(self, agent, cifar_profile, rng):
        feed_observations(agent, cifar_profile, [(1, 1), (1, 2)], rng)
        agent.record_grad_stats(var=8.0, sqr=1.0)
        model = agent.report().goodput_model()
        assert float(model.goodput(1, 2, 256)) > 0


class TestTuning:
    def test_tune_requires_gpus(self, agent):
        with pytest.raises(ValueError):
            agent.tune_batch_size(1, 0)

    def test_tune_starts_at_m0_with_no_stats(self, agent, cifar_profile, rng):
        feed_observations(agent, cifar_profile, [(1, 1)], rng)
        # phi = 0: larger batches give no benefit, so m* = m0.
        m, lr = agent.tune_batch_size(1, 1)
        assert m == pytest.approx(128.0, rel=0.02)
        assert lr == pytest.approx(cifar_profile.init_lr, rel=0.02)

    def test_tune_grows_batch_with_noise_scale(self, agent, cifar_profile, rng):
        feed_observations(
            agent,
            cifar_profile,
            [(1, 1), (1, 2), (1, 4)],
            rng,
            batches=(128, 256, 512, 1024),
        )
        agent.record_grad_stats(var=2000.0 / 128.0, sqr=1.0)  # phi = 2000
        m_small, _ = agent.tune_batch_size(1, 1)
        m_large, lr = agent.tune_batch_size(1, 4)
        assert m_large > m_small
        assert lr > cifar_profile.init_lr  # AdaScale gain > 1


_ZOO = [MODEL_ZOO[name] for name in sorted(MODEL_ZOO)]


@st.composite
def tuning_sessions(draw):
    """A job's limits and a random stream of agent calls.

    The 24 (GPU count, speed) keys outnumber the agent's 8 cached ones
    while leaving room for revisits, and one limits variant in two needs
    2-4 GPUs for m0, so small counts are infeasible.
    """
    profile = _ZOO[draw(st.integers(0, len(_ZOO) - 1))]
    limits = profile.limits
    if draw(st.booleans()):
        limits = BatchSizeLimits(
            init_batch_size=limits.init_batch_size,
            max_batch_size=limits.max_batch_size,
            max_local_bsz=limits.init_batch_size / draw(st.sampled_from([1.5, 3.5])),
        )
    tune = st.tuples(
        st.just("tune"),
        st.integers(1, 3),
        st.integers(1, 12),
        st.sampled_from([1.0, 2.5]),
    )
    # var / sqr sets phi over six decades: phi crosses buckets both ways.
    grad = st.tuples(
        st.just("grad"), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)
    )
    observe = st.tuples(
        st.just("observe"),
        st.integers(1, 2),
        st.integers(1, 16),
        st.floats(1.0, 4.0),
    )
    ops = draw(
        st.lists(
            st.one_of(tune, tune, grad, observe), min_size=1, max_size=40
        )
    )
    return profile, limits, ops


def _tune_outcome(agent, nodes, gpus, speed):
    try:
        return agent.tune_batch_size(nodes, gpus, speed)
    except ValueError as err:
        return ("ValueError", str(err))


def _run_session(profile, limits, ops):
    """Drive a PolluxAgent and the table-driven reference in lockstep."""
    kwargs = dict(
        init_batch_size=float(limits.init_batch_size),
        init_lr=profile.init_lr,
        limits=limits,
    )
    agent, ref = PolluxAgent(**kwargs), ReferenceAgent(**kwargs)
    truth = profile.throughput_true
    for op in ops:
        if op[0] == "tune":
            _, nodes, gpus, speed = op
            got = _tune_outcome(agent, nodes, gpus, speed)
            assert got == _tune_outcome(ref, nodes, gpus, speed), op
        elif op[0] == "grad":
            for each in (agent, ref):
                each.record_grad_stats(op[1], op[2])
        else:
            _, nodes, gpus, factor = op
            gpus = max(gpus, nodes)
            m = limits.init_batch_size * factor
            t = float(truth.t_iter(nodes, gpus, m))
            for each in (agent, ref):
                each.record_iteration(nodes, gpus, m, t)
    # Same LRU contents in the same order: evictions never drifted.
    assert list(agent._tuned) == [
        (fp, gpus, speed) for _, fp, gpus, _, speed in ref.table_cache
    ]


class TestTuningAgainstTableAgent:
    """Eqn. 13 on the job's own placement against the memoized argmax
    tables of ``ReferenceAgent``: equal ``(m, lr)`` or the same
    ``ValueError`` at every call."""

    @settings(max_examples=25, deadline=None)
    @given(session=tuning_sessions())
    def test_random_sessions_tune_identically(self, session):
        _run_session(*session)

    def test_evictions_revisits_and_infeasible_counts(self):
        profile = MODEL_ZOO["resnet50-imagenet"]
        limits = BatchSizeLimits(
            init_batch_size=profile.limits.init_batch_size,
            max_batch_size=profile.limits.max_batch_size,
            max_local_bsz=profile.limits.init_batch_size / 3.5,
        )
        ops = [("observe", 1, 4, 1.0), ("grad", 2.0, 1.0)]
        # 12 distinct GPU counts (m0 needs 4 GPUs, so 1-3 raise), then
        # revisits of evicted and of resident keys.
        for gpus in range(1, 13):
            ops.append(("tune", 2 if gpus % 3 == 0 else 1, gpus, 1.0))
        ops += [("tune", 2, 2, 1.0), ("tune", 1, 12, 1.0), ("tune", 2, 5, 2.5)]
        ops += [("grad", 50.0, 1.0), ("tune", 1, 12, 1.0), ("tune", 3, 1, 1.0)]
        _run_session(profile, limits, ops)


_sync_st = st.one_of(st.just(0.0), st.floats(1e-4, 0.5))
theta_st = st.builds(
    ThroughputParams,
    alpha_grad=st.one_of(st.just(0.0), st.floats(1e-4, 0.5)),
    beta_grad=st.floats(1e-5, 0.05),
    alpha_sync_local=_sync_st,
    beta_sync_local=_sync_st,
    alpha_sync_node=_sync_st,
    beta_sync_node=_sync_st,
    gamma=st.floats(1.0, 10.0),
)


class TestSharedGridTuning:
    """One tuning miss evaluates the grid, T_grad and the efficiency once
    for both placement flags; each flag's argmax is still the whole-goodput
    grid argmax of that flag alone."""

    @settings(max_examples=150, deadline=None)
    @given(
        theta=theta_st,
        phi=st.floats(0.0, 1e4),
        m0=st.sampled_from([32.0, 128.0, 256.0]),
        local_factor=st.sampled_from([0.3, 1.0, 4.0]),
        num_gpus=st.integers(1, 64),
        speed=st.sampled_from([0.5, 1.0, 2.5]),
    )
    def test_pair_equals_two_single_flag_grids(
        self, theta, phi, m0, local_factor, num_gpus, speed
    ):
        limits = BatchSizeLimits(m0, 64.0 * m0, m0 * local_factor)
        model = GoodputModel(theta, EfficiencyModel(m0, phi), limits)
        ppo = TABLE_TUNING_POINTS_PER_OCTAVE
        if limits.range_for(num_gpus) is None:
            expected = (0.0, 0.0)
        else:
            flags = (1, 2) if num_gpus >= 2 else (1,)
            argmaxes = [
                grid_argmax(model, nodes, num_gpus, ppo, speed) for nodes in flags
            ]
            for nodes, best in zip(flags, argmaxes):
                got = model.optimize_batch_size_grid(nodes, num_gpus, ppo, speed)
                assert got == best
            expected = (argmaxes[0][0], argmaxes[1][0] if num_gpus >= 2 else 0.0)
        assert _grid_argmaxes(model, num_gpus, speed) == expected
