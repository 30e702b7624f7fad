"""Percentiles from raw samples, with the tail-size rule the benchmark
reports by.

The service's own ``repro.telemetry`` histograms interpolate between
fixed bucket edges and can report quantiles outside the observed range,
so every latency here is computed from the raw client-side samples.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL = 10


def quantile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 <= q <= 1) by linear interpolation between
    order statistics — numpy's default ``"linear"`` method, including its
    two-sided interpolation formula, clamped to the bracketing samples."""
    if not samples:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    xs = sorted(samples)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    t = pos - lo
    a, b = xs[lo], xs[hi]
    value = a + (b - a) * t if t < 0.5 else b - (b - a) * (1.0 - t)
    return min(max(value, a), b)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` order statistics lie strictly above the
    ``q``-quantile's position."""
    return n - 1 - math.floor((n - 1) * q)


def min_samples(q: float) -> int:
    """Smallest sample count whose ``q``-quantile has :data:`MIN_TAIL`
    samples beyond it."""
    n = MIN_TAIL + 1
    while samples_beyond(n, q) < MIN_TAIL:
        n += 1
    return n


def percentiles(samples: Sequence[float],
                qs: Sequence[float]) -> Dict[float, float]:
    """``{q: quantile}`` for each ``q``; raises when the sample is too
    small for some ``q`` to have :data:`MIN_TAIL` samples beyond it."""
    n = len(samples)
    for q in qs:
        if samples_beyond(n, q) < MIN_TAIL:
            raise ValueError(
                f"{n} samples leave {samples_beyond(n, q)} beyond "
                f"p{100 * q:g}; need {MIN_TAIL} (>= {min_samples(q)} samples)"
            )
    return {q: quantile(samples, q) for q in qs}


def median(samples: Sequence[float]) -> float:
    """The 0.5-quantile."""
    return quantile(samples, 0.5)
