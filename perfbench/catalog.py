"""What each gated metric means per workload kind.

The metric lists themselves (names, units, directions, bounds) live in
``BENCHMARK.json`` at the repository root, which ``run.py`` reads.  Every
workload prints every metric: the end-to-end ones have one meaning per
workload kind, spelled out below, and a per-layer metric of a layer a
workload never runs reads 0.

End-to-end metrics:

* ``setup_s`` -- fit: imports plus the median of three dataset + split
  generations; serve: median of three server spawns until
  ``open_session`` returns (artifact build with entropy and warm-up).
* ``latency_p50_ms`` -- fit: the wall time of the run's one
  ``GraphRARE.fit``; serve: median score-request latency.
* ``latency_tail_ms`` -- fit: the same single fit time again (a run holds
  one fit, so there is no tail to take); serve: p90 score-request
  latency.
* ``throughput_per_s`` -- fit: one over that same fit time; serve: score
  and churn operations completed per second.
* ``peak_rss_mb`` -- fit: the benchmark process; serve: the server.

On the fit workloads the three latency/throughput metrics are therefore
one sample gated three times, the tightest bound deciding.

Accuracy is checked (finite, in [0, 1], traced equal to untraced) and
printed, but not gated: across dataset seeds its interquartile range is
13-39% of its median, too wide for a regression bound of 25%.
"""

from __future__ import annotations

#: Per-layer metric prefixes a workload kind never exercises (reported 0).
NOT_EXERCISED = {
    "fit": ("serve.",),
    "serve": ("phase.",),
}
