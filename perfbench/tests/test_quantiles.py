"""The benchmark's own percentile function against ``np.percentile``."""

import numpy as np
import pytest

from perfbench.quantiles import (
    MIN_TAIL,
    min_samples,
    percentiles,
    quantile,
    samples_beyond,
)

QS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 101, 1000, 1537])
@pytest.mark.parametrize("dist", ["uniform", "lognormal", "ties"])
def test_matches_numpy_and_stays_in_range(n, dist):
    rng = np.random.default_rng(n)
    if dist == "uniform":
        xs = rng.uniform(0.0, 100.0, size=n)
    elif dist == "lognormal":
        xs = rng.lognormal(3.0, 1.0, size=n)
    else:
        xs = rng.integers(0, 4, size=n).astype(float) * 11.0
    for q in QS:
        got = quantile(list(xs), q)
        assert got == pytest.approx(np.percentile(xs, 100 * q),
                                    rel=1e-12, abs=1e-12)
        assert xs.min() <= got <= xs.max()


def test_constant_series_reports_its_value():
    # The telemetry histograms report p50 20.8 ms for this series.
    xs = [11.0] * 500
    assert quantile(xs, 0.5) == 11.0
    assert quantile(xs, 0.99) == 11.0


@pytest.mark.parametrize("q", [0.5, 0.75, 0.9, 0.99])
def test_reported_percentiles_have_ten_samples_beyond(q):
    n = min_samples(q)
    assert samples_beyond(n, q) >= MIN_TAIL
    assert samples_beyond(n - 1, q) < MIN_TAIL
    xs = list(np.arange(n, dtype=float))
    value = percentiles(xs, (q,))[q]
    assert sum(1 for x in xs if x > value) >= MIN_TAIL
    with pytest.raises(ValueError):
        percentiles(xs[:-1], (q,))


def test_min_samples_known_values():
    assert min_samples(0.9) == 92
    assert min_samples(0.99) == 902


def test_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)
