"""EFFICIENCY's premise, checked on real gradients (Sec. 3.1, Eqn. 7, App. A).

Everywhere else in the repository phi comes from an analytic trajectory
observed through the engine's measurement model: true phi times
lognormal(``gns_noise`` = 0.10).  Here it comes from gradients.  A linear
regression, whose per-example gradients give the true phi exactly, is
trained with AdaScale SGD.  phi is estimated as a single-replica
PolluxAgent estimates it: the differenced estimator [Wang & Yu 2017], fed
through ``PolluxAgent.record_grad_stats`` and read back from
``agent.grad_noise_scale``.

Two numbers are pinned (measured over the seeds below, then given
tolerances):

- the agent's log(phi_hat / phi) at fixed parameters, m = 64: bias -0.02
  to -0.03 and spread 0.06 to 0.12 for phi from 34 to 131;
- samples to a target loss at m over samples at m0 = 32, against the mean
  of 1 / EFFICIENCY(phi_true, m0, m) along the run at m: 2.38 vs 2.40 at
  m = 128 and 8.00 vs 8.00 at m = 512, with scale-invariant iterations
  37-39 at every m.

Both hold where phi <~ 3m.  Above that, negative raw squared-norm estimates
are clamped at zero before they are averaged, which biases phi low: at
m = 64 the spread is 0.18 at phi ~ 290, and the bias -0.12 at phi ~ 480 and
-0.67 at phi ~ 1,500.
"""

import numpy as np
import pytest

from repro.core.adascale import adascale_gain
from repro.core.agent import PolluxAgent
from repro.core.efficiency import efficiency
from repro.core.goodput import BatchSizeLimits

M0 = 32
SEEDS = range(4)


class LinearRegression:
    """y = X w* + noise under squared loss; per-example gradients are exact."""

    def __init__(self, num_examples=4096, dim=32, noise_std=0.5, seed=1):
        rng = np.random.default_rng(seed)
        self.features = rng.normal(size=(num_examples, dim))
        self.true_params = rng.normal(size=dim)
        self.targets = self.features @ self.true_params + rng.normal(
            scale=noise_std, size=num_examples
        )

    def loss(self, params):
        res = self.features @ params - self.targets
        return 0.5 * float(res @ res) / len(res)

    def gradient(self, params, rng, batch_size):
        """Mean gradient over a mini-batch drawn without replacement."""
        idx = rng.choice(len(self.targets), size=batch_size, replace=False)
        res = self.features[idx] @ params - self.targets[idx]
        return self.features[idx].T @ res / batch_size

    def noise_scale(self, params):
        """True phi = m0 Var[g_hat at m0] / |E g_hat|^2 = tr(Sigma) / |G|^2."""
        per_example = self.features * (self.features @ params - self.targets)[:, None]
        mean = per_example.mean(axis=0)
        centered = per_example - mean
        return float((centered * centered).sum() / len(centered) / (mean @ mean))


def new_agent():
    return PolluxAgent(M0, 0.05, BatchSizeLimits(M0, 4096, 4096))


def record_differenced(agent, grad, prev, batch_size):
    """Feed one differenced estimate, scaled to m0, to the agent (Sec. 3.1).

    |g_t - g_(t-1)|^2 / 2 estimates Var[g_hat] at ``batch_size``, and
    g_t . g_(t-1) estimates |E g_hat|^2.
    """
    diff = grad - prev
    var = float(diff @ diff) / 2.0
    agent.record_grad_stats(var * batch_size / M0, float(grad @ prev))


def log_error_at_fixed_params(problem, params, batch_size, seed, steps=200):
    """log(phi_hat / phi) of the agent's smoothed phi after a burn-in."""
    rng = np.random.default_rng(seed)
    agent = new_agent()
    prev = problem.gradient(params, rng, batch_size)
    estimates = []
    for step in range(steps):
        grad = problem.gradient(params, rng, batch_size)
        record_differenced(agent, grad, prev, batch_size)
        prev = grad
        if step >= 40:
            estimates.append(agent.grad_noise_scale)
    return np.log(np.asarray(estimates) / problem.noise_scale(params))


def train_to_loss(problem, batch_size, target, seed, lr0=0.05, max_iters=5000):
    """AdaScale SGD at ``batch_size`` until the full loss reaches ``target``.

    Returns (samples, scale-invariant iterations, mean 1/EFFICIENCY at the
    true phi along the run).
    """
    rng = np.random.default_rng(seed)
    agent = new_agent()
    params = rng.normal(scale=0.1, size=problem.features.shape[1])
    prev = None
    scale_invariant = 0.0
    inverse_efficiency = []
    for iteration in range(1, max_iters + 1):
        grad = problem.gradient(params, rng, batch_size)
        if prev is not None:
            record_differenced(agent, grad, prev, batch_size)
        prev = grad
        phi_true = problem.noise_scale(params)
        inverse_efficiency.append(1.0 / efficiency(phi_true, M0, batch_size))
        # One step at m is worth r_t steps at m0, so eta = eta0 r_t (Eqn. 5).
        gain = adascale_gain(agent.grad_noise_scale, M0, batch_size)
        params = params - lr0 * gain * grad
        scale_invariant += gain
        if problem.loss(params) <= target:
            return iteration * batch_size, scale_invariant, np.mean(inverse_efficiency)
    raise AssertionError(f"no convergence to {target} at batch size {batch_size}")


@pytest.fixture(scope="module")
def problem():
    return LinearRegression()


@pytest.mark.parametrize("shrink", [1.0, 0.2, 0.1, 0.05])
def test_agent_phi_from_differenced_gradients(problem, shrink):
    """Bias and spread of the agent's phi while phi <= 3m (m = 64)."""
    start = np.random.default_rng(0).normal(scale=0.1, size=problem.true_params.size)
    params = problem.true_params + shrink * (start - problem.true_params)
    assert problem.noise_scale(params) <= 3 * 64
    errors = np.concatenate(
        [log_error_at_fixed_params(problem, params, 64, seed) for seed in SEEDS]
    )
    assert abs(errors.mean()) <= 0.06
    assert errors.std() <= 0.16


def test_samples_to_target_follow_inverse_efficiency(problem):
    """Samples(m) / samples(m0) ~= mean 1/EFFICIENCY(phi_true, m0, m)."""
    target = 0.5
    base = [train_to_loss(problem, M0, target, seed) for seed in SEEDS]
    base_samples = np.mean([b[0] for b in base])
    base_iters = np.mean([b[1] for b in base])
    for batch_size in (128, 512):
        runs = [train_to_loss(problem, batch_size, target, seed) for seed in SEEDS]
        ratio = np.mean([r[0] for r in runs]) / base_samples
        predicted = np.mean([r[2] for r in runs])
        assert ratio == pytest.approx(predicted, rel=0.1)
        # AdaScale's scale invariance: the same progress in m0-iterations.
        assert np.mean([r[1] for r in runs]) == pytest.approx(base_iters, rel=0.1)
