"""Unit tests for the counter/gauge/histogram registry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    StatsView,
)


def test_counter_increments():
    c = Counter("x")
    c.inc()
    c.inc(4)
    assert c.value == 5


def test_histogram_summary_quantiles():
    h = Histogram("lat", buckets=(1.0, 2.0, 4.0, 8.0))
    for v in (0.5, 1.5, 1.5, 3.0, 7.0):
        h.observe(v)
    s = h.summary()
    assert s["count"] == 5
    assert s["min"] == 0.5 and s["max"] == 7.0
    assert s["total"] == pytest.approx(13.5)
    # p50 lands in the (1, 2] bucket, p99 in (4, 8].
    assert 1.0 <= s["p50"] <= 2.0
    assert 4.0 <= s["p99"] <= 8.0


def test_histogram_overflow_bucket():
    h = Histogram("lat", buckets=(1.0,))
    h.observe(100.0)
    assert h.counts[-1] == 1
    # Overflow quantiles interpolate between the last bound and the max.
    assert 1.0 <= h.quantile(0.5) <= 100.0


def test_histogram_constant_series_reports_its_value():
    # An 11 ms series sits in the (10 ms, 25 ms] time bucket; interpolating
    # to that bucket's edges used to report p50 20.8 ms, above the max.
    h = Histogram("lat")
    for _ in range(40):
        h.observe(0.011)
    s = h.summary()
    assert s["p50"] == s["p90"] == s["p99"] == 0.011
    assert h.quantile(0.0) == h.quantile(1.0) == 0.011


_samples = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    min_size=1, max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(
    _samples,
    st.sampled_from([DEFAULT_TIME_BUCKETS, (0.0, 1.0, 10.0), (-5.0, 5.0)]),
    st.floats(min_value=0.0, max_value=1.0),
    st.data(),
)
def test_histogram_quantile_within_observed_range(values, buckets, q, data):
    h = Histogram("x", buckets=buckets)
    for v in values:
        h.observe(v)
    est = h.quantile(q)
    assert min(values) <= est <= max(values)
    # A merge of two halves holds the same counts, min and max, so it
    # reports the same quantile.
    cut = data.draw(st.integers(min_value=0, max_value=len(values)))
    a, b = Histogram("x", buckets=buckets), Histogram("x", buckets=buckets)
    for v in values[:cut]:
        a.observe(v)
    for v in values[cut:]:
        b.observe(v)
    a.merge_state(b.state())
    assert a.quantile(q) == est


def test_histogram_merge_requires_identical_buckets():
    h = Histogram("lat", buckets=(1.0, 2.0))
    with pytest.raises(ValueError):
        h.merge_state({"buckets": [1.0], "counts": [0, 0], "count": 0,
                       "total": 0.0, "min": None, "max": None})


def test_registry_state_roundtrip_and_merge():
    a = MetricsRegistry()
    a.counter("n").inc(2)
    a.histogram("t", buckets=(1.0, 2.0)).observe(1.5)
    a.gauge("g").set(7.0)

    b = MetricsRegistry()
    b.counter("n").inc(3)
    b.histogram("t", buckets=(1.0, 2.0)).observe(0.5)
    b.gauge("g").set(9.0)

    a.merge_state(b.state())
    assert a.counter("n").value == 5
    assert a.histogram("t", buckets=(1.0, 2.0)).count == 2
    assert a.gauge("g").value == 9.0  # last write wins


def test_histogram_reregistration_with_other_buckets_rejected():
    reg = MetricsRegistry()
    reg.histogram("t", buckets=(1.0, 2.0))
    with pytest.raises(ValueError):
        reg.histogram("t", buckets=(1.0, 3.0))


def test_default_time_buckets_sorted_and_span_useful_range():
    assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)
    assert DEFAULT_TIME_BUCKETS[0] <= 1e-6
    assert DEFAULT_TIME_BUCKETS[-1] >= 10.0


def test_stats_view_is_live_readonly_mapping():
    counters = {"hits": Counter("hits"), "misses": Counter("misses")}
    view = StatsView(counters)
    assert view["hits"] == 0
    counters["hits"].inc(3)
    assert view["hits"] == 3
    assert dict(view) == {"hits": 3, "misses": 0}
    assert len(view) == 2
    with pytest.raises(TypeError):
        view["hits"] = 5
