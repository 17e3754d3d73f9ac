"""Golden-section search for unimodal maximization.

Pollux maximizes GOODPUT(a, m) over the batch size m (Sec. 4.1, Eqn. 13) and
the numerator/denominator of SPEEDUP (Sec. 4.2, Eqn. 15) using golden-section
search [Kiefer 1953], exploiting the observation that GOODPUT is a unimodal
function of m.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

__all__ = ["golden_section_search"]

#: The inverse golden ratio, (sqrt(5) - 1) / 2.
INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
#: Its square, used to place the two initial interior probes.
INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_section_search(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-6,
    max_iters: int = 200,
) -> Tuple[float, float]:
    """Maximize a unimodal function ``fn`` over the interval ``[lo, hi]``.

    Args:
        fn: Unimodal function to maximize.
        lo: Lower bound of the search interval.
        hi: Upper bound of the search interval.
        tol: Terminate when the bracketing interval is narrower than this.
        max_iters: Hard cap on the number of probe evaluations.

    Returns:
        Tuple ``(x, fn(x))`` at the located maximum.

    Raises:
        ValueError: If ``lo > hi``.
    """
    if lo > hi:
        raise ValueError(f"invalid interval: lo={lo} > hi={hi}")
    if hi - lo <= tol:
        mid = 0.5 * (lo + hi)
        return mid, fn(mid)

    a, b = lo, hi
    h = b - a
    xc = a + INV_PHI2 * h
    xd = a + INV_PHI * h
    fc = fn(xc)
    fd = fn(xd)

    for _ in range(max_iters):
        if h <= tol:
            break
        if fc >= fd:
            # Maximum lies in [a, xd]; shrink from the right.
            b = xd
            xd, fd = xc, fc
            h = b - a
            xc = a + INV_PHI2 * h
            fc = fn(xc)
        else:
            # Maximum lies in [xc, b]; shrink from the left.
            a = xc
            xc, fc = xd, fd
            h = b - a
            xd = a + INV_PHI * h
            fd = fn(xd)

    if fc >= fd:
        return xc, fc
    return xd, fd
