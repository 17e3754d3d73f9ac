"""Tests for the hot-path fast implementations.

The perf subsystem (PR 2) replaced several numpy-array code paths with
cheaper equivalents — scalar evaluations for golden-section search and the
simulator's ground truth, restricted re-checks in the GA's interference
repair — each required to be *bit-for-bit* identical to the original
formulation (the homogeneous default-config invariant from PR 1).  The
theta_sys fit is held differently since PR 17: its objective hands L-BFGS-B
an exact gradient, checked here against central differences, at the corners
of the bounds, and for fit quality against scipy's own finite differences.
The fit drives scipy's L-BFGS-B kernel itself; it is held bit for bit to
the ``scipy.optimize.minimize`` loop it replaced (``fit_reference.py``).
"""

import itertools
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, minimize

import repro.core.throughput as throughput_module

from repro.core.efficiency import efficiency, efficiency_scalar
from repro.core.goodput import BatchSizeLimits, GoodputModel
from repro.core.efficiency import EfficiencyModel
from repro.core.throughput import (
    ExplorationState,
    ProfileEntry,
    ThroughputModel,
    ThroughputParams,
    _PARAM_NAMES,
    _RmsleObjective,
    _run_lbfgsb,
    fit_throughput_params,
    t_iter_scalar,
    throughput_scalar,
)
from repro.workload.gns import GNSTrajectory
from fit_reference import reference_fit


def _random_params(rng) -> ThroughputParams:
    return ThroughputParams(
        alpha_grad=float(rng.uniform(0.0, 0.2)),
        beta_grad=float(rng.uniform(0.0, 0.03)),
        alpha_sync_local=float(rng.uniform(0.0, 0.05)),
        beta_sync_local=float(rng.uniform(0.0, 0.005)),
        alpha_sync_node=float(rng.uniform(0.0, 0.3)),
        beta_sync_node=float(rng.uniform(0.0, 0.02)),
        gamma=float(rng.uniform(1.0, 10.0)),
    )


class TestScalarThroughputPaths:
    def test_t_iter_scalar_bit_identical(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            p = _random_params(rng)
            model = ThroughputModel(p)
            gpus = int(rng.integers(1, 65))
            nodes = int(rng.integers(1, gpus + 1))
            m = float(rng.uniform(1.0, 65536.0))
            speed = float(rng.uniform(0.5, 4.0))
            assert t_iter_scalar(p, nodes, gpus, m, speed) == float(
                model.t_iter(nodes, gpus, m, speed)
            )
            assert throughput_scalar(p, nodes, gpus, m, speed) == float(
                model.throughput(nodes, gpus, m, speed)
            )

    def test_goodput_scalar_bit_identical(self):
        rng = np.random.default_rng(1)
        limits = BatchSizeLimits(
            init_batch_size=128.0, max_batch_size=8192.0, max_local_bsz=1024.0
        )
        for _ in range(200):
            p = _random_params(rng)
            model = GoodputModel(
                p, EfficiencyModel(128.0, float(rng.uniform(0.0, 2000.0))), limits
            )
            gpus = int(rng.integers(1, 17))
            nodes = int(rng.integers(1, gpus + 1))
            m = float(rng.uniform(128.0, 8192.0))
            assert model.goodput_scalar(nodes, gpus, m) == float(
                model.goodput(nodes, gpus, m)
            )

    def test_efficiency_scalar_bit_identical(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            phi = float(rng.uniform(0.0, 5000.0))
            m0 = float(rng.uniform(1.0, 1024.0))
            m = float(rng.uniform(m0, 65536.0))
            assert efficiency_scalar(phi, m0, m) == efficiency(phi, m0, m)

    def test_gns_phi_scalar_bit_identical(self):
        rng = np.random.default_rng(3)
        trajectories = [
            GNSTrajectory(phi_start=2000.0, phi_end=8000.0,
                          decay_jumps=((1 / 3, 3.0), (2 / 3, 3.0))),
            GNSTrajectory(phi_start=20.0, phi_end=120.0, decay_jumps=((0.6, 2.0),)),
            GNSTrajectory(phi_start=30.0, phi_end=250.0),
        ]
        for gns in trajectories:
            for p in [0.0, 1 / 3, 0.5, 0.6, 2 / 3, 1.0, -0.5, 1.5] + list(
                rng.uniform(0, 1, 100)
            ):
                assert gns.phi_scalar(float(p)) == float(gns.phi(float(p)))


def _columns(entries):
    """(nodes, gpus, batch, speed, t_iter) arrays of a profile."""
    return np.array(
        [(e.num_nodes, e.num_gpus, e.batch_size, e.speed, e.t_iter) for e in entries]
    ).T


def _objective(entries, exploration=None):
    """The fit's objective for a profile, as fit_throughput_params builds it."""
    pinned = exploration.pinned_params() if exploration is not None else ()
    free_idx = np.array(
        [i for i, name in enumerate(_PARAM_NAMES) if name not in pinned], dtype=int
    )
    return _RmsleObjective(free_idx, *_columns(entries)), free_idx


def _public_rmsle(full, columns):
    """RMSLE of a complete 7-vector through the public ThroughputModel."""
    nodes, gpus, batch, speed, t_obs = columns
    model = ThroughputModel(ThroughputParams.from_vector(full))
    pred = model.t_iter(nodes, gpus, batch, speed)
    err = np.log(np.maximum(pred, 1e-12)) - np.log(t_obs)
    return float(np.sqrt(np.mean(err * err)))


def _written_out_rmsle(columns, free_idx):
    """Eqns. 9-11 and the RMSLE written out over a profile's columns: what
    ``_public_rmsle`` computes, at a fifth of the cost per evaluation (the
    reference minimisation below differences it ~100,000 times)."""
    nodes, gpus, batch, speed, t_obs = columns
    local_bsz = batch / gpus
    extra = np.maximum(gpus - 2.0, 0.0)
    multi_gpu = gpus > 1
    multi_node = nodes > 1
    log_t_obs = np.log(t_obs)
    full = np.zeros(7)

    def rmsle(x):
        full[free_idx] = x
        a_grad, b_grad, a_local, b_local, a_node, b_node, gamma = full
        t_grad = (a_grad + b_grad * local_bsz) / speed
        t_sync = multi_gpu * np.where(
            multi_node, a_node + b_node * extra, a_local + b_local * extra
        )
        t_iter = (t_grad**gamma + t_sync**gamma) ** (1.0 / gamma)
        err = np.log(np.maximum(t_iter, 1e-12)) - log_t_obs
        return float(np.sqrt(np.mean(err * err)))

    return rmsle


entry_st = st.builds(
    lambda nodes, per_node, local_bsz, t, speed: ProfileEntry(
        nodes, nodes * per_node, local_bsz * nodes * per_node, t, speed
    ),
    nodes=st.integers(1, 4),
    per_node=st.integers(1, 4),
    local_bsz=st.floats(4.0, 512.0),
    t=st.floats(0.01, 2.0),
    speed=st.sampled_from([0.5, 1.0, 2.0]),
)


class TestRmsleGradient:
    @given(
        entries=st.lists(entry_st, min_size=1, max_size=24),
        seen=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        alpha_beta=st.lists(st.floats(1e-3, 0.5), min_size=6, max_size=6),
        gamma=st.one_of(st.sampled_from([1.0, 10.0]), st.floats(1.0, 10.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_exact_gradient_matches_central_differences(
        self, entries, seen, alpha_beta, gamma
    ):
        objective, free_idx = _objective(entries, ExplorationState(*seen))
        full = np.array(alpha_beta + [gamma])
        x = full[free_idx]
        with np.errstate(all="raise"):
            loss, grad = objective(x)
        # RMSLE is |err| for one observation: not differentiable at a fit.
        assume(loss > 1e-4)
        pinned_full = np.zeros(7)
        pinned_full[free_idx] = x
        # gamma may leave [1, 10] under the differences below: the objective
        # extends smoothly, the public model does not, so compare at x only.
        public = _public_rmsle(pinned_full, _columns(entries))
        assert loss == pytest.approx(public, rel=1e-9)
        numeric = np.empty_like(grad)
        # Only the values are used below; the gradient the objective also
        # computes is singular at lo == 0 once gamma steps under 1.
        with np.errstate(all="ignore"):
            for i in range(x.size):
                step = np.zeros_like(x)
                step[i] = 1e-6 * x[i]
                numeric[i] = (objective(x + step)[0] - objective(x - step)[0]) / (
                    2.0 * step[i]
                )
        scale = np.abs(numeric).max()
        assert np.allclose(grad, numeric, rtol=1e-5, atol=1e-5 * scale)

    def test_all_alpha_beta_at_zero_bound(self):
        """Prediction clamps at 1e-12: finite loss, zero gradient."""
        entries = [ProfileEntry(1, 1, 128, 0.5), ProfileEntry(2, 8, 1024, 0.9)]
        objective, _ = _objective(entries)
        with np.errstate(all="raise"):
            loss, grad = objective(np.array([0, 0, 0, 0, 0, 0, 2.0]))
        expected = np.log(1e-12) - np.log([0.5, 0.9])
        assert loss == pytest.approx(float(np.sqrt(np.mean(expected**2))))
        assert np.array_equal(grad, np.zeros(7))

    def test_zero_sync_at_gamma_one(self):
        """lo == 0 with gamma == 1 is 0**0: T_iter = T_grad + T_sync there."""
        entries = [ProfileEntry(1, 1, 128, 0.5), ProfileEntry(2, 8, 1024, 0.9)]
        objective, _ = _objective(entries)
        x = np.array([0.1, 0.002, 0.0, 0.0, 0.0, 0.0, 1.0])
        with np.errstate(all="raise"):
            loss, grad = objective(x)
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        # One-sided derivative from inside the bounds: the multi-node entry
        # is under-predicted, so raising alpha_sync_node lowers the loss.
        step = np.zeros(7)
        step[4] = 1e-7
        forward = (objective(x + step)[0] - loss) / 1e-7
        assert grad[4] < 0.0
        assert grad[4] == pytest.approx(forward, rel=1e-4)

    def test_single_gpu_only_profile(self):
        """T_sync == 0 everywhere: gamma is flat, nothing divides by zero."""
        entries = [ProfileEntry(1, 1, m, 0.1 + 0.001 * m) for m in (64, 128, 256)]
        state = ExplorationState()
        state.observe(1, 1)
        objective, free_idx = _objective(entries, state)
        assert list(free_idx) == [0, 1, 6]
        for gamma in (1.0, 3.0, 10.0):
            with np.errstate(all="raise"):
                loss, grad = objective(np.array([0.05, 0.002, gamma]))
            assert np.isfinite(loss) and np.all(np.isfinite(grad))
            assert grad[-1] == 0.0

    def test_grad_sync_tie(self):
        """T_grad == T_sync: max/min switch branches, the derivative does not."""
        entries = [ProfileEntry(1, 2, 64, 0.3), ProfileEntry(1, 2, 64, 0.2)]
        objective, _ = _objective(entries)
        x = np.array([0.125, 0.0, 0.125, 0.0, 0.0, 0.0, 2.0])
        with np.errstate(all="raise"):
            loss, grad = objective(x)
        assert np.isfinite(loss)
        assert grad[0] == pytest.approx(grad[2], rel=1e-12)
        for i in (0, 2):
            step = np.zeros(7)
            step[i] = 1e-7
            numeric = (objective(x + step)[0] - objective(x - step)[0]) / 2e-7
            assert grad[i] == pytest.approx(numeric, rel=1e-5)

    def test_exact_fit_has_zero_gradient(self):
        objective, _ = _objective([ProfileEntry(1, 1, 128, 0.5)])
        loss, grad = objective(np.array([0.25, 0.25 / 128, 0, 0, 0, 0, 2.0]))
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros(7))


class _DriverSpy:
    """Stands in for ``repro.core.throughput._run_lbfgsb`` and records each
    start: its bounds, the vector that came back, that vector's loss and
    the status.  ``wrap`` replaces the objective the driver minimizes."""

    def __init__(self, wrap=None):
        self.starts = []
        self._wrap = wrap

    def __call__(self, objective, x0, lower, upper):
        driven = objective if self._wrap is None else self._wrap(objective)
        x, status = _run_lbfgsb(driven, x0, lower, upper)
        self.starts.append(
            SimpleNamespace(
                x0=np.array(x0),
                lower=np.array(lower),
                upper=np.array(upper),
                x=np.array(x),
                fun=objective(x)[0],
                status=status,
            )
        )
        return x, status


class TestFitMultiStart:
    def test_exact_first_fit_runs_one_start(self, monkeypatch):
        """A job's first fit (1 observation, 3 free parameters) is exact at
        the default start; the other four starts cannot displace it."""
        entry = ProfileEntry(1, 1, 128.0, 0.37)
        state = ExplorationState()
        state.observe(1, 1)
        spy = _DriverSpy()
        monkeypatch.setattr(throughput_module, "_run_lbfgsb", spy)
        early = fit_throughput_params([entry], state, seed=3)
        assert len(spy.starts) == 1

        # No loss is below -1: the exit never fires, ties still go to the
        # first start.
        monkeypatch.setattr(throughput_module, "_EXACT_FIT_LOSS", -1.0)
        all_starts = _DriverSpy()
        monkeypatch.setattr(throughput_module, "_run_lbfgsb", all_starts)
        full = fit_throughput_params([entry], state, seed=3)
        assert len(all_starts.starts) == 5
        assert all_starts.starts[0].fun == 0.0
        assert early == full
        assert _public_rmsle(early.as_vector(), _columns([entry])) == 0.0

    def test_under_determined_fit_keeps_its_first_exact_start(self, monkeypatch):
        """1 observation against 7 free parameters: every start ends on the
        surface of exact fits, at a loss of 1e-11..1e-13 that is rounding
        residue.  The fit is the one next to the first start, and the loss
        it won with is the public RMSLE of the parameters it returns."""
        entry = ProfileEntry(2, 8, 32.0, 0.0357)
        columns = _columns([entry])
        spy = _DriverSpy()
        monkeypatch.setattr(throughput_module, "_run_lbfgsb", spy)
        cold = fit_throughput_params([entry], seed=0)
        assert len(spy.starts) == 1
        loss = _public_rmsle(cold.as_vector(), columns)
        assert loss <= throughput_module._EXACT_FIT_LOSS
        assert loss == pytest.approx(spy.starts[0].fun, abs=1e-14)

        # The next fit starts from the previous one and stays beside it
        # instead of jumping to whichever restart rounds lowest.
        moved = ProfileEntry(2, 8, 32.0, 0.0356)
        spy.starts.clear()
        warm = fit_throughput_params([moved], initial=cold, seed=0)
        assert len(spy.starts) == 1
        assert warm.as_vector() == pytest.approx(cold.as_vector(), rel=0.02)

    def test_start_is_scored_at_the_vector_it_returns(self, monkeypatch):
        """After an aborted line search the kernel's last loss is a trial
        point's, not the returned vector's.  No loss the driver saw may win
        or end the loop: here every one of them claims an exact fit."""
        truth = ThroughputModel(
            ThroughputParams(0.05, 0.002, 0.01, 0.002, 0.03, 0.004, 2.0)
        )
        entries = [
            ProfileEntry(nodes, gpus, m, float(truth.t_iter(nodes, gpus, m)) * noise)
            for nodes, gpus in [(1, 1), (1, 4), (2, 8)]
            for m, noise in [(128, 1.03), (256, 0.98), (512, 1.01)]
        ]

        def claim_exact(objective):
            return lambda x: (0.0, objective(x)[1])

        spy = _DriverSpy(wrap=claim_exact)
        monkeypatch.setattr(throughput_module, "_run_lbfgsb", spy)
        fitted = fit_throughput_params(entries, seed=5)
        assert len(spy.starts) == 5
        best = min(spy.starts, key=lambda start: start.fun)
        assert best.fun > throughput_module._EXACT_FIT_LOSS
        assert np.array_equal(fitted.as_vector(), best.x)

    def test_warm_start_leaves_a_just_unpinned_zero(self, cifar_params, monkeypatch):
        """The priors unpin alpha_sync_node at the first multi-node
        observation, and the previous fit holds it at exactly 0.0.  With
        gamma at 1 the loss has a slope there (T_iter = T_grad + T_sync);
        a gradient through ``sign(x)`` would report none and stay put."""
        true_params = cifar_params.replace(alpha_sync_node=0.05, gamma=1.0)
        truth = ThroughputModel(true_params)
        state = ExplorationState()
        entries = []
        for nodes, gpus in [(1, 1), (1, 2), (2, 2)]:
            for m in (128, 256, 512):
                entries.append(
                    ProfileEntry(nodes, gpus, m, float(truth.t_iter(nodes, gpus, m)))
                )
                state.observe(nodes, gpus)
        assert state.pinned_params() == ("beta_sync_local", "beta_sync_node")
        previous = true_params.replace(
            alpha_sync_node=0.0, beta_sync_local=0.0, beta_sync_node=0.0
        )
        spy = _DriverSpy()
        monkeypatch.setattr(throughput_module, "_run_lbfgsb", spy)
        fitted = fit_throughput_params(
            entries, state, initial=previous, num_restarts=0
        )
        warm, default = spy.starts
        assert warm.x0[3] == 0.0  # alpha_sync_node, free, starts at its bound
        assert warm.fun <= default.fun
        assert fitted.alpha_sync_node == pytest.approx(0.05, rel=0.1)

    def test_no_finite_loss_raises(self, monkeypatch):
        def nan_result(objective, x0, lower, upper):
            x, status = _run_lbfgsb(objective, x0, lower, upper)
            return np.full_like(x, np.nan), status

        monkeypatch.setattr(throughput_module, "_run_lbfgsb", nan_result)
        with pytest.raises(RuntimeError, match="no finite loss"):
            fit_throughput_params([ProfileEntry(1, 1, 128.0, 0.37)])


_pin_sets = st.sampled_from(
    [ExplorationState(*seen) for seen in itertools.product((False, True), repeat=3)]
)
_theta_st = st.builds(
    lambda alpha_beta, gamma: ThroughputParams(*alpha_beta, gamma),
    st.lists(st.one_of(st.just(0.0), st.floats(1e-4, 0.5)), min_size=6, max_size=6),
    st.floats(1.0, 10.0),
)


class TestDriverAgainstMinimize:
    """The fit drives scipy's L-BFGS-B kernel itself; through
    ``scipy.optimize.minimize`` (``tests/fit_reference.py``) it returns
    the same parameters, and every start ends with the same status."""

    @given(
        entries=st.lists(entry_st, min_size=1, max_size=40),
        exploration=st.one_of(st.none(), _pin_sets),
        initial=st.one_of(st.none(), _theta_st),
        num_restarts=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_fit_is_bit_identical(
        self, entries, exploration, initial, num_restarts, seed
    ):
        spy = _DriverSpy()
        args = (entries, exploration, initial, num_restarts, seed)
        with mock.patch.object(throughput_module, "_run_lbfgsb", spy):
            fitted = fit_throughput_params(*args)
        expected, statuses = reference_fit(*args)
        assert fitted == expected
        assert [start.status for start in spy.starts] == statuses


class TestFitQuality:
    def test_not_worse_than_finite_difference_reference(self, monkeypatch):
        """Against scipy's own 2-point differences on the public RMSLE, from
        the same starts: no higher mean loss, rarely a worse fit, and no
        start lost to an aborted line search.

        Every placement is observed at least three times, so no profile can
        be fitted exactly: RMSLE is a square root, not differentiable at a
        zero loss, and no gradient spares a line search there (those fits
        are ``test_exact_first_fit_runs_one_start``'s subject).
        """
        from repro.workload import MODEL_ZOO

        placements = [(1, 1), (1, 2), (1, 4), (2, 4), (2, 8), (4, 16)]
        models = list(MODEL_ZOO.values())
        fitted_losses, reference_losses, statuses = [], [], []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            profile = models[seed % len(models)]
            state = ExplorationState()
            entries = []
            for nodes, gpus in placements[: int(rng.integers(1, len(placements) + 1))]:
                for _ in range(int(rng.integers(3, 6))):
                    local = rng.uniform(
                        profile.init_batch_size / 8.0, profile.max_local_bsz
                    )
                    m = float(min(local * gpus, profile.max_batch_size))
                    t = float(profile.throughput_true.t_iter(nodes, gpus, m))
                    t *= float(rng.lognormal(sigma=0.05))
                    entries.append(ProfileEntry(nodes, gpus, m, t))
                    state.observe(nodes, gpus)
            columns = _columns(entries)
            free_idx = [
                i
                for i, name in enumerate(_PARAM_NAMES)
                if name not in state.pinned_params()
            ]
            reference = _written_out_rmsle(columns, free_idx)

            spy = _DriverSpy()
            monkeypatch.setattr(throughput_module, "_run_lbfgsb", spy)
            fitted = fit_throughput_params(entries, state, seed=seed)
            fitted_losses.append(_public_rmsle(fitted.as_vector(), columns))
            statuses += [start.status for start in spy.starts]
            best = min(
                (
                    minimize(
                        reference,
                        start.x0,
                        method="L-BFGS-B",
                        bounds=Bounds(start.lower, start.upper),
                        options={"maxiter": 60},
                    )
                    for start in spy.starts
                ),
                key=lambda result: result.fun,
            )
            full = np.zeros(7)
            full[free_idx] = best.x
            assert best.fun == pytest.approx(_public_rmsle(full, columns), rel=1e-9)
            reference_losses.append(best.fun)
        fitted_losses = np.array(fitted_losses)
        reference_losses = np.array(reference_losses)
        assert fitted_losses.mean() <= reference_losses.mean()
        assert np.mean(fitted_losses > reference_losses + 1e-3) <= 0.05
        assert 2 not in statuses


class TestSimJobDerivedCache:
    def test_allocation_setter_invalidates_derived_state(self):
        from repro.sim.job import SimJob
        from repro.workload import MODEL_ZOO, JobSpec

        spec = JobSpec(
            name="j",
            model=MODEL_ZOO["resnet18-cifar10"],
            submission_time=0.0,
            fixed_num_gpus=1,
            fixed_batch_size=128,
        )
        job = SimJob(spec, num_nodes=3, node_speeds=np.array([1.0, 2.0, 2.0]))
        assert job.num_gpus == 0 and job.current_speed == 1.0
        job.allocation = np.array([2, 1, 0])
        assert job.num_gpus == 3
        assert job.num_nodes_occupied == 2
        assert job.is_distributed
        assert job.current_speed == 1.0  # slowest occupied node
        job.allocation = np.array([0, 4, 0])
        assert job.num_gpus == 4
        assert not job.is_distributed
        assert job.current_speed == 2.0
        job.node_speeds = np.array([1.0, 3.2, 3.2])
        assert job.current_speed == 3.2

    def test_ground_truth_matches_array_formulation(self):
        from repro.sim.job import SimJob
        from repro.workload import MODEL_ZOO, JobSpec

        for name, profile in MODEL_ZOO.items():
            spec = JobSpec(
                name=name,
                model=profile,
                submission_time=0.0,
                fixed_num_gpus=4,
                fixed_batch_size=profile.init_batch_size,
            )
            job = SimJob(spec, num_nodes=4)
            job.allocation = np.array([2, 2, 0, 0])
            job.progress = 0.4 * job.target
            expected_t = float(
                profile.throughput_true.t_iter(2, 4, job.batch_size, 1.0)
            )
            assert job.t_iter_true() == expected_t
            expected_tput = float(
                profile.throughput_true.throughput(2, 4, job.batch_size, 1.0)
            )
            assert job.throughput_true() == expected_tput
            assert job.phi_true() == float(
                profile.gns.phi(job.progress_fraction)
            )
