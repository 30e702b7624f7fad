"""The churn source and the fit output check."""

import numpy as np

from perfbench import fit_workloads
from perfbench.serve_workload import ChurnSource


def test_churn_adds_absent_and_removes_present_edges():
    n = 50
    rng = np.random.default_rng(0)
    keys = np.unique([u * n + v for u, v in rng.integers(0, n, (200, 2))
                      if u < v])
    source = ChurnSource(keys, n, np.random.default_rng(1))
    edges = set(int(k) for k in keys)
    for _ in range(40):
        for kind, u, v in source.batch(16):
            assert u < v
            key = u * n + v
            if kind == 1:
                assert key not in edges
                edges.add(key)
            else:
                assert key in edges
                edges.remove(key)
    assert edges == set(source.present) == set(source.index)


def test_fit_check_flags_bad_accuracy_and_drift():
    good = {"test_acc": 0.5, "val_acc": 0.6, "baseline_test_acc": 0.4,
            "edge_keys": [1, 5, 9]}
    assert fit_workloads._check(good, None) == []
    assert fit_workloads._check(good, dict(good)) == []
    assert fit_workloads._check(dict(good, val_acc=float("nan")), None)
    drift = fit_workloads._check(dict(good, edge_keys=[1, 5]), good)
    assert drift == ["the traced fit differs from the untraced fit"]
