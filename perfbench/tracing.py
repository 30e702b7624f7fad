"""Layer tracing by wrapping the public callables of ``repro``.

The benchmark times each layer from outside the program: :func:`install`
replaces public functions and methods of ``repro`` with timing wrappers
and :meth:`Tracer.restore` puts the originals back.  Nothing under
``src/`` is edited, so the traced code is the code users run.

A module-level function is patched in *every* ``repro`` module that
binds it (``framework.py`` and ``env.py`` import ``evaluate`` by name,
for example); a method is patched on the class that defines it.

Each wrapper records a span on a per-thread stack.  A span's self time is
its duration minus the time covered by its direct child spans.  Spans are
aggregated in memory by name and by ``(name, parent name)``; the direct
children of the root span (``rare.fit``) are also kept in call order, so
the phases of ``GraphRARE.fit`` can be told apart (the first
``Trainer.fit`` under the root is the baseline, the last the final
training).
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT_SPAN = "rare.fit"


def cold_call(fn: Callable, *args):
    """``fn(*args)`` in a fresh interpreter; ``fn`` and ``args`` must be
    picklable, ``fn`` importable from the repository root.

    A second ``GraphRARE.fit`` in one process runs up to a fifth faster
    than the first (the allocator keeps the pages the first one faulted
    in), so a measurement compared with a traced repetition runs cold in
    its own process: the ratio of the two is then the tracing overhead
    rather than a warm-up effect.  The child is a plain interpreter that
    is waited for, not a ``spawn`` process pool: that start method also
    starts a resource-tracker process which nobody waits for and which
    outlives the benchmark.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src"), str(_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_MAIN], input=pickle.dumps((fn, args)),
        stdout=subprocess.PIPE, cwd=_ROOT, env=env, timeout=COLD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold call of {fn.__qualname__} exited with "
                           f"code {proc.returncode}")
    return pickle.loads(proc.stdout)


#: The child's program: the call arrives pickled on stdin, the result
#: leaves pickled on stdout; anything the call prints goes to stderr.
_COLD_MAIN = """
import pickle, sys
fn, args = pickle.load(sys.stdin.buffer)
out, sys.stdout = sys.stdout.buffer, sys.stderr
result = fn(*args)
out.write(pickle.dumps(result))
out.flush()
"""
#: Longer than any cold call takes, shorter than a run may last.
COLD_TIMEOUT_S = 150.0
_ROOT = Path(__file__).resolve().parent.parent


class _Frame:
    __slots__ = ("name", "child")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child = 0.0


class SpanStats:
    """Aggregate of every span that carried one name."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Collects span aggregates, counters and top-level intervals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: Dict[str, SpanStats] = defaultdict(SpanStats)
        self.by_parent: Dict[Tuple[str, Optional[str]], SpanStats] = (
            defaultdict(SpanStats)
        )
        #: ``(name, seconds)`` of each direct child of a ``rare.fit`` span.
        self.root_children: List[Tuple[str, float]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: ``(name, start, end)`` of spans opened with no parent span, on
        #: the ``clock`` timeline (the serve workload's busy time).
        self.top_level: List[Tuple[str, float, float]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, on_call=None) -> Callable:
        """``fn`` timed as span ``name``; ``on_call(args)`` runs after each
        call to record counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            frame = _Frame(name)
            stack.append(frame)
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                tracer._record(frame, parent, start, end)
                if on_call is not None:
                    on_call(args)

        return wrapper

    def _record(self, frame: _Frame, parent: Optional[_Frame],
                start: float, end: float) -> None:
        dt = end - start
        parent_name = parent.name if parent is not None else None
        with self._lock:
            if parent is not None:
                parent.child += dt
            for stats in (self.spans[frame.name],
                          self.by_parent[(frame.name, parent_name)]):
                stats.calls += 1
                stats.total += dt
                stats.self_time += dt - frame.child
            if parent_name == ROOT_SPAN:
                self.root_children.append((frame.name, dt))
            elif parent is None:
                self.top_level.append((frame.name, start, end))

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    # ------------------------------------------------------------------
    def patch_method(self, cls: type, attr: str, name: str,
                     on_call=None) -> None:
        """Wrap ``cls.attr`` (a plain, class- or static method defined on
        ``cls`` itself)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, on_call))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(name, raw.__func__, on_call))
        else:
            new = self.wrap(name, raw, on_call)
        setattr(cls, attr, new)
        self._undo.append(lambda: setattr(cls, attr, raw))

    def patch_function(self, module: str, attr: str, name: str,
                       on_call=None) -> int:
        """Wrap ``module.attr`` in every loaded ``repro`` module that binds
        that same function object; returns how many bindings changed."""
        orig = getattr(importlib.import_module(module), attr)
        wrapper = self.wrap(name, orig, on_call)
        patched = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append(
                        functools.partial(setattr, mod, key, orig)
                    )
                    patched += 1
        return patched

    def restore(self) -> None:
        """Put every patched callable back."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """The aggregates as plain JSON data (see :meth:`from_json`)."""
        def dump(stats):
            return [stats.calls, stats.total, stats.self_time]

        return {
            "spans": {k: dump(v) for k, v in self.spans.items()},
            "by_parent": [[k[0], k[1], *dump(v)]
                          for k, v in self.by_parent.items()],
            "root_children": self.root_children,
            "counters": dict(self.counters),
            "top_level": self.top_level,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Tracer":
        """A tracer holding the aggregates :meth:`to_json` wrote."""
        def load(row) -> SpanStats:
            stats = SpanStats()
            stats.calls, stats.total, stats.self_time = row
            return stats

        tracer = cls()
        for name, row in data["spans"].items():
            tracer.spans[name] = load(row)
        for name, parent, *row in data["by_parent"]:
            tracer.by_parent[(name, parent)] = load(row)
        tracer.root_children = [tuple(x) for x in data["root_children"]]
        tracer.counters.update(data["counters"])
        tracer.top_level = [tuple(x) for x in data["top_level"]]
        return tracer

    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.spans[name].calls if name in self.spans else 0

    def total(self, name: str) -> float:
        return self.spans[name].total if name in self.spans else 0.0

    def self_time(self, name: str) -> float:
        return self.spans[name].self_time if name in self.spans else 0.0

    def under(self, name: str, parents) -> SpanStats:
        """Aggregate of ``name`` spans whose direct parent is in
        ``parents``."""
        out = SpanStats()
        for (span, parent), stats in self.by_parent.items():
            if span == name and parent in parents:
                out.calls += stats.calls
                out.total += stats.total
                out.self_time += stats.self_time
        return out


# ----------------------------------------------------------------------
# The layers the benchmark attributes time to
# ----------------------------------------------------------------------
ENV_STEP = "env.step"


def _env_steps(tracer: Tracer):
    def on_call(args):
        tracer.count("env.steps", getattr(args[0], "num_envs", 1))
    return on_call


def _gflop_matmul(tracer: Tracer):
    def on_call(args):
        a, b = args[1], args[2]
        n = b.shape[-1] if b.ndim > 1 else 1
        tracer.count("tensor.matmul_gflop", 2.0 * a.size * n / 1e9)
    return on_call


def _gflop_spmm(tracer: Tracer):
    def on_call(args):
        matrix, dense = args[1], args[2]
        cols = dense.shape[1] if dense.ndim > 1 else 1
        tracer.count("tensor.spmm_gflop", 2.0 * matrix.nnz * cols / 1e9)
    return on_call


def _width(tracer: Tracer, counter: str):
    def on_call(args):
        tracer.count(counter, len(args[1]))
    return on_call


def install(tracer: Tracer) -> Tracer:
    """Wrap the public callables of every measured layer."""
    from repro.core import GraphRARE, TopologyEnv
    from repro.entropy import RelativeEntropy
    from repro.gnn import Trainer
    from repro.rl import AGENTS
    from repro.rl.vector.stacked import StackedGraphBuilder
    from repro.rl.vector.topology import VecTopologyEnv
    from repro.serve.session import GraphArtifact
    from repro.stream import StreamingGraph
    from repro.tensor.backends import TensorBackend

    # Load every module that binds a wrapped name before patching, so
    # restore() reaches each binding (a module imported later would keep
    # the wrapper).
    for module in ("repro.cli", "repro.serve.server", "repro.serve.batcher"):
        importlib.import_module(module)

    tracer.patch_method(GraphRARE, "fit", ROOT_SPAN)
    tracer.patch_function("repro.datasets", "load_dataset", "datasets.load")
    tracer.patch_method(RelativeEntropy, "from_graph", "entropy.relative")
    tracer.patch_function("repro.entropy", "build_entropy_sequences",
                          "entropy.sequences")
    tracer.patch_function("repro.entropy.screening", "build_screen_state",
                          "entropy.screen")
    tracer.patch_method(Trainer, "fit", "gnn.fit")
    tracer.patch_method(Trainer, "train_epoch", "gnn.train_epoch")
    tracer.patch_function("repro.gnn", "evaluate", "gnn.eval")
    tracer.patch_function("repro.graph", "homophily_ratio", "graph.homophily")
    tracer.patch_method(TensorBackend, "matmul", "tensor.matmul",
                        _gflop_matmul(tracer))
    tracer.patch_method(TensorBackend, "spmm", "tensor.spmm",
                        _gflop_spmm(tracer))
    for agent_cls, _ in AGENTS.values():
        for attr in ("collect_rollout", "collect_vectorized_rollout"):
            if attr in agent_cls.__dict__:
                tracer.patch_method(agent_cls, attr, "rl.collect")
        if "update" in agent_cls.__dict__:
            tracer.patch_method(agent_cls, "update", "rl.update")
    for env_cls in (TopologyEnv, VecTopologyEnv):
        tracer.patch_method(env_cls, "__init__", "env.init")
        tracer.patch_method(env_cls, "step", ENV_STEP, _env_steps(tracer))
    tracer.patch_function("repro.core.env", "reward_metrics", "env.reward")
    tracer.patch_function("repro.core.rewire", "rewire_graph", "rewire")
    tracer.patch_method(StackedGraphBuilder, "stacked_logits",
                        "stacked.logits", _width(tracer, "stacked.width"))
    tracer.patch_function("repro.serve.session", "build_artifact",
                          "serve.build_artifact")
    tracer.patch_method(GraphArtifact, "score_blocks", "serve.score_blocks",
                        _width(tracer, "serve.graphs_scored"))
    tracer.patch_method(GraphArtifact, "rewired", "serve.rewired")
    tracer.patch_method(GraphArtifact, "churn", "serve.churn")
    tracer.patch_method(StreamingGraph, "apply", "stream.apply")
    tracer.patch_method(StreamingGraph, "rebase", "stream.rebase")
    return tracer


#: The order ``Trainer.fit`` runs directly under ``GraphRARE.fit``.
_FIT_PHASES = ("baseline", "warmstart", "final")
_PHASE_OF = {
    "entropy.relative": "entropy",
    "entropy.sequences": "entropy",
    "rl.collect": "rollout",
    "env.init": "rollout",
    "rl.update": "update",
    "gnn.eval": "select",
    "graph.homophily": "select",
}
PHASES = ("entropy", "baseline", "warmstart", "rollout", "update", "select",
          "final")


def fit_phases(tracer: Tracer, fit_seconds: float) -> Dict[str, float]:
    """``phase.*_s`` of one traced ``GraphRARE.fit`` (with its baseline).

    ``unattributed`` is ``fit_seconds`` minus the named phases: the time
    ``GraphRARE.fit`` spends outside every wrapped direct child.
    """
    phases = dict.fromkeys(PHASES, 0.0)
    fits = [dt for name, dt in tracer.root_children if name == "gnn.fit"]
    if len(fits) != 3:
        raise RuntimeError(
            f"expected 3 Trainer.fit calls under GraphRARE.fit (baseline, "
            f"warm start, final), saw {len(fits)}"
        )
    for phase, dt in zip(_FIT_PHASES, fits):
        phases[phase] += dt
    for name, dt in tracer.root_children:
        if name in _PHASE_OF:
            phases[_PHASE_OF[name]] += dt
    out = {f"phase.{k}_s": v for k, v in phases.items()}
    out["phase.unattributed_s"] = fit_seconds - sum(phases.values())
    return out


def layer_metrics(tracer: Tracer, requests: int = 0) -> Dict[str, float]:
    """Per-layer figures shared by every workload.

    ``requests`` is the number of serve score requests, which
    ``rewire.per_step`` counts as steps besides the env steps.
    """
    t = tracer
    epochs = t.calls("gnn.train_epoch")
    env_steps = t.counters.get("env.steps", 0.0)
    stacked_calls = t.calls("stacked.logits")
    # Rewards: every reward_metrics call, plus the stacked forwards the
    # vectorized env scores a whole batch of episodes with.
    stacked_in_env = t.under("stacked.logits", {ENV_STEP})
    reward = t.spans.get("env.reward", SpanStats())
    cotrain = t.under("gnn.fit", {ENV_STEP})
    rewire_calls = t.calls("rewire")
    per_step_base = env_steps + requests
    return {
        "entropy.relative_s": t.total("entropy.relative"),
        "entropy.sequences_s": t.total("entropy.sequences"),
        "entropy.screen_on": float(t.calls("entropy.screen") > 0),
        "gnn.fit_calls": float(t.calls("gnn.fit")),
        "gnn.fit_s": t.self_time("gnn.fit"),
        "gnn.epochs": float(epochs),
        "gnn.train_epoch_s": t.total("gnn.train_epoch"),
        "gnn.epoch_ms": (
            1000.0 * t.total("gnn.train_epoch") / epochs if epochs else 0.0
        ),
        "gnn.eval_calls": float(t.calls("gnn.eval")),
        "gnn.eval_s": t.total("gnn.eval"),
        "tensor.matmul_calls": float(t.calls("tensor.matmul")),
        "tensor.matmul_s": t.total("tensor.matmul"),
        "tensor.matmul_gflop": t.counters.get("tensor.matmul_gflop", 0.0),
        "tensor.spmm_calls": float(t.calls("tensor.spmm")),
        "tensor.spmm_s": t.total("tensor.spmm"),
        "tensor.spmm_gflop": t.counters.get("tensor.spmm_gflop", 0.0),
        "rl.collect_s": t.self_time("rl.collect"),
        "rl.update_calls": float(t.calls("rl.update")),
        "rl.update_s": t.total("rl.update"),
        "env.steps": env_steps,
        "env.step_s": t.self_time(ENV_STEP),
        "env.reward_calls": float(reward.calls + stacked_in_env.calls),
        "env.reward_s": reward.total + stacked_in_env.total,
        "env.cotrain_calls": float(cotrain.calls),
        "env.cotrain_s": cotrain.total,
        "rewire.calls": float(rewire_calls),
        "rewire.s": t.total("rewire"),
        "rewire.per_step": (
            rewire_calls / per_step_base if per_step_base else 0.0
        ),
        "stacked.calls": float(stacked_calls),
        "stacked.s": t.total("stacked.logits"),
        "stacked.width_mean": (
            t.counters.get("stacked.width", 0.0) / stacked_calls
            if stacked_calls else 0.0
        ),
        "stream.apply_calls": float(t.calls("stream.apply")),
        "stream.apply_s": t.total("stream.apply"),
        "stream.rebases": float(t.calls("stream.rebase")),
        "datasets.load_s": t.total("datasets.load"),
    }


def require_fired(tracer: Tracer, names) -> None:
    """Fail loudly when a wrapper the workload must exercise never ran,
    so a rename in ``repro`` cannot silently zero a layer."""
    silent = [name for name in names if tracer.calls(name) == 0]
    if silent:
        raise RuntimeError(
            "layer wrappers never fired: " + ", ".join(sorted(silent))
        )
