"""Sample statistics the ledger reports, with the rules that keep them honest."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

#: A percentile above the median is reported only with this many samples
#: beyond it; fewer and it is one or two outliers with a percentile's name.
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank).

    The median is always available; a higher percentile raises
    ``ValueError`` unless at least :data:`MIN_SAMPLES_BEYOND` samples lie
    beyond it.
    """
    if not samples:
        raise ValueError("no samples")
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be inside (0, 100), got {q}")
    ordered = sorted(samples)
    if q == 50.0:
        return float(statistics.median(ordered))
    beyond = len(ordered) * (1.0 - q / 100.0)
    if q > 50.0 and beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond:.1f} samples beyond "
            f"it, fewer than {MIN_SAMPLES_BEYOND}"
        )
    rank = min(len(ordered) - 1, int(len(ordered) * q / 100.0))
    return float(ordered[rank])


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def mean(samples: Sequence[float]) -> float:
    return float(sum(samples) / len(samples)) if samples else 0.0


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, and two relative spreads of repeated measurements.

    ``iqr_over_median`` uses ``statistics.quantiles(values, n=4)``, the rule
    the benchmark contract fixes; ``range_over_median`` is (max - min) over
    the median.  ``spread`` is the one to gate on: the inter-quartile one
    from three values up, the range below that (with two values the
    quartile rule extrapolates to 1.5 times their distance).
    """
    med = float(statistics.median(values))
    scale = abs(med) if med else 1.0
    full = float((max(values) - min(values)) / scale)
    if len(values) < 2:
        q1 = q3 = med
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    iqr = float((q3 - q1) / scale)
    return {
        "median": med,
        "q1": float(q1),
        "q3": float(q3),
        "iqr_over_median": iqr,
        "range_over_median": full,
        "spread": iqr if len(values) >= 3 else full,
    }
