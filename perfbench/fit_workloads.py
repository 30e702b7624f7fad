"""The ``GraphRARE.fit`` workloads: the library call behind ``repro run``.

Each run sets up (imports, dataset generation, split) several times and
keeps the median, fits once untraced with telemetry off, and checks the
result outside the timed window.  One fit is all a run holds: a fit takes
longer than half of the benchmark's run length, so the fit time, its
"tail" and its throughput are one sample (see :mod:`perfbench.catalog`).
The traced run then fits once more under the layer wrappers, cold, in a
spawned process, and requires the traced result to equal the untraced one.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import tracing
from .quantiles import median
from .result import RunResult

SETUP_REPEATS = 3


@dataclass(frozen=True)
class FitWorkload:
    """One ``repro run`` configuration."""

    dataset: str
    scale: float
    num_envs: int
    screening: str
    #: Wrappers the traced run must see fire.
    layers: Tuple[str, ...]


_COMMON_LAYERS = (
    tracing.ROOT_SPAN, "datasets.load", "entropy.relative",
    "entropy.sequences", "gnn.fit", "gnn.train_epoch", "gnn.eval",
    "graph.homophily", "tensor.matmul", "tensor.spmm", "rl.collect",
    "rl.update", "env.init", tracing.ENV_STEP, "env.reward", "rewire",
)

WORKLOADS: Dict[str, FitWorkload] = {
    "fit-chameleon-gcn": FitWorkload(
        dataset="chameleon", scale=1.0, num_envs=1, screening="auto",
        layers=_COMMON_LAYERS,
    ),
    "fit-squirrel-gcn-vec4": FitWorkload(
        dataset="squirrel", scale=0.4, num_envs=4, screening="on",
        layers=_COMMON_LAYERS + ("entropy.screen", "stacked.logits"),
    ),
}


#: Training budgets.  ``repro run`` trains the baseline and final models
#: up to 100 epochs with early stopping (patience 20) and co-trains 8
#: epochs (patience 4) on every record topology; how long early stopping
#: runs and how many records a seed produces made fit time vary 2x across
#: dataset seeds.  The benchmark trains fixed budgets (patience = epochs)
#: and keeps each co-training burst short, so every seed does nearly the
#: same training work.
FINAL_EPOCHS = 60
CO_TRAIN_EPOCHS = 2


def rare_config(workload: FitWorkload, seed: int):
    """``repro run`` defaults with ``--episodes 4`` (what ``cmd_run``
    builds from its parsed flags), telemetry off, and fixed training
    budgets (:data:`FINAL_EPOCHS`, :data:`CO_TRAIN_EPOCHS`)."""
    from repro.core import RareConfig

    return RareConfig(
        storage="ram",
        lam=1.0,
        k_max=6,
        d_max=6,
        max_candidates=12,
        episodes=4,
        horizon=6,
        rl_algorithm="ppo",
        num_envs=workload.num_envs,
        incremental_reward=False,
        max_halo_frac=0.5,
        screening=workload.screening,
        num_workers=1,
        tensor_backend="numpy",
        stream=None,
        telemetry=None,
        final_epochs=FINAL_EPOCHS,
        final_patience=FINAL_EPOCHS,
        co_train_epochs=CO_TRAIN_EPOCHS,
        co_train_patience=CO_TRAIN_EPOCHS,
        seed=seed,
    )


def _make_input(workload: FitWorkload, seed: int):
    from repro.datasets import load_dataset
    from repro.graph import geom_gcn_splits

    graph = load_dataset(workload.dataset, scale=workload.scale, seed=seed)
    return graph, geom_gcn_splits(graph, num_splits=1, seed=seed)[0]


def _fit(workload: FitWorkload, seed: int, graph, split):
    from repro.core import GraphRARE

    start = time.perf_counter()
    result = GraphRARE("gcn", rare_config(workload, seed)).fit(graph, split)
    return result, time.perf_counter() - start


_ACCURACIES = ("test_acc", "val_acc", "baseline_test_acc")


def _outcome(result) -> dict:
    """What every fit at one seed must reproduce exactly: the accuracies
    and the optimised graph's edge keys."""
    return {
        **{field: getattr(result, field) for field in _ACCURACIES},
        "edge_keys": result.optimized_graph.edge_keys().tolist(),
    }


def _check(outcome: dict, reference: Optional[dict]) -> List[str]:
    problems = [
        f"{field}={outcome[field]!r} is not a finite value in [0, 1]"
        for field in _ACCURACIES
        if not (math.isfinite(outcome[field]) and 0.0 <= outcome[field] <= 1.0)
    ]
    if reference is not None and outcome != reference:
        problems.append("the traced fit differs from the untraced fit")
    return problems


def run(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    """One untraced fit (``seconds`` does not cut it short), and with
    ``trace`` one traced fit in a spawned process."""
    workload = WORKLOADS[name]
    start = time.perf_counter()
    import numpy  # noqa: F401
    import repro.core  # noqa: F401
    import repro.datasets  # noqa: F401
    import_s = time.perf_counter() - start

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        graph, split = _make_input(workload, seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + median(setup_times)

    out = RunResult()
    result, fit_s = _fit(workload, seed, graph, split)
    outcome = _outcome(result)
    out.attempted += 1
    out.fail(_check(outcome, None))

    out.report("fit_s", fit_s, "s", n=1)
    out.report("test_acc", outcome["test_acc"], "frac")
    out.report("baseline_test_acc", outcome["baseline_test_acc"], "frac")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.report("peak_rss_mb", peak_rss_mb, "MB")
    out.report("setup_s", setup_s, "s", n=SETUP_REPEATS)

    if not trace:
        out.metrics.update({
            "setup_s": setup_s,
            "latency_p50_ms": 1000.0 * fit_s,
            "latency_tail_ms": 1000.0 * fit_s,
            "throughput_per_s": 1.0 / fit_s,
            "peak_rss_mb": peak_rss_mb,
        })
        return out

    traced = tracing.cold_call(traced_fit, name, seed)
    tracer = tracing.Tracer.from_json(traced["tracer"])
    out.attempted += 1
    out.fail(_check(traced["outcome"], outcome))
    tracing.require_fired(tracer, workload.layers)
    out.report("traced_fit_s", traced["fit_s"], "s")

    out.metrics.update(tracing.layer_metrics(tracer))
    out.metrics.update(tracing.fit_phases(tracer, traced["fit_s"]))
    out.metrics["trace.overhead_frac"] = traced["fit_s"] / fit_s - 1.0
    return out


def traced_fit(name: str, seed: int) -> dict:
    """The traced fit, run cold in a spawned process: the same set-up as
    the untraced run, the last dataset generation and the fit traced."""
    workload = WORKLOADS[name]
    for _ in range(SETUP_REPEATS - 1):
        _make_input(workload, seed)
    tracer = tracing.install(tracing.Tracer())
    try:
        graph, split = _make_input(workload, seed)
        result, fit_s = _fit(workload, seed, graph, split)
    finally:
        tracer.restore()
    return {"outcome": _outcome(result), "fit_s": fit_s,
            "tracer": tracer.to_json()}
