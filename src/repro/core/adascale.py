"""The AdaScale gain (Sec. 2.2, Eqn. 5).

AdaScale [Johnson et al. 2020] scales the learning rate adaptively based on
the gradient noise scale phi_t.  When a job configured with (m0, eta0) runs
with batch size m > m0, AdaScale multiplies the learning rate by the gain

    r_t = (phi_t / m0 + 1) / (phi_t / m + 1)                (Eqn. 5)

and one iteration at batch size m is worth r_t iterations at m0 — the
"scale-invariant iterations" that make AdaScale's progress predictable, which
is what Pollux builds its EFFICIENCY measure on (Appendix A).
``PolluxAgent.tune_batch_size`` returns eta0 * r_t as the learning rate for
the batch size it picks.
"""

from __future__ import annotations

import numpy as np

__all__ = ["adascale_gain"]


def adascale_gain(grad_noise_scale: float, init_batch_size: float, batch_size):
    """The AdaScale gain r_t (Eqn. 5); scalar or array ``batch_size``."""
    if init_batch_size <= 0:
        raise ValueError("init_batch_size must be positive")
    if grad_noise_scale < 0:
        raise ValueError("grad_noise_scale must be non-negative")
    m = np.asarray(batch_size, dtype=float)
    gain = (grad_noise_scale / init_batch_size + 1.0) / (grad_noise_scale / m + 1.0)
    if gain.ndim == 0:
        return float(gain)
    return gain
