"""The ``repro serve`` workload: scores and churn against a live server.

The server runs in its own process (``python -m repro serve --unix``,
telemetry off; in the traced run the same CLI behind
``serve_launcher.py``).  One load-generator process -- this one -- opens
``CONNECTIONS`` connections and drives a closed loop of ``IN_FLIGHT``
searcher tasks, spread evenly over the connections, each sending one
score at a time and waiting for it, and one churn writer:

* hot searchers draw every candidate from a seeded pool of ``HOT_POOL``
  (exercising the rewire memo and request coalescing);
* fresh searchers draw a new random candidate every time (missing every
  cache);
* the writer sends a batch of ``StreamConfig.events_per_step`` events
  after every ``SCORES_PER_CHURN`` answered scores and waits for its acknowledgement.  The
  events come from the benchmark's own copy of the edge set, so every
  add is of an absent edge and every remove of a present one; the server
  sees only the events.  Each effective batch bumps the artifact version
  and invalidates every memoised rewire.

Where each rate comes from is said at its constant below.  The traced
run reports what the mix produces on the server: ``serve.memo_hit_ratio``
(memoised rewires over rewire lookups) and ``serve.unique_ratio``.

Latencies are timed here, per request, from send to response.  Checks,
all outside the timed window: repeated scores of one candidate at one
artifact version agree bitwise (hot candidates the load happened to
repeat, and a fixed sample of candidates scored twice after the load),
and that sample as the server scored it equals, bitwise, the same
candidates scored on a fresh artifact rebuilt, in a spawned process,
from the same spec and churn trace.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import tracing
from .quantiles import median, min_samples, percentiles
from .result import RunResult

NAME = "serve-chameleon-churn"
ROOT = Path(__file__).resolve().parent.parent

SPEC = {"dataset": "chameleon", "scale": 1.0, "backbone": "gcn",
        "k_max": 6, "d_max": 6}
#: Server ``--max-batch``: the CLI default, which the replay mirrors.
MAX_BATCH = 16
#: Scores in flight: the load this workload was first probed at (8
#: outstanding requests), on at most two connections, never more
#: connections than cores.
IN_FLIGHT = 8
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Half the searchers are hot, half fresh.  The two halves stand for the
#: two callers the repository already has: ``benchmarks/bench_serving.py``
#: drives only hot scores (every client draws from a shared pool of 8
#: candidates, the beam a server-side searcher refines), while the RL
#: agent never repeats a candidate (on both fit workloads the traced run
#: shows ``rewire.calls == env.steps``, ``rewire.per_step`` 1.0).  The even
#: split between them is a choice, not a measurement of any client.
HOT_SEARCHERS = IN_FLIGHT // 2
HOT_POOL = 8
#: Churn at the rate ``repro run --churn`` applies it with its defaults:
#: ``VecTopologyEnv`` drains ``StreamConfig.events_per_step`` events from
#: its one shared stream per vector step, that is per ``num_envs`` scores;
#: the searchers are taken as ``num_envs = IN_FLIGHT`` environments.
SCORES_PER_CHURN = IN_FLIGHT
#: Unmeasured load before the window: the first seconds run slower.
WARMUP_S = 3.0
SAMPLE_HOT = 4
SAMPLE_FRESH = 4
SETUP_REPEATS = 3
#: Reported percentiles: the median and a tail that a 30 s load (about
#: 1100 scores and 135 churn batches) leaves at least ten samples beyond.
SCORE_Q = (0.5, 0.9)
CHURN_Q = (0.5, 0.9)
#: The load runs past ``--seconds`` (up to this factor) until both
#: latency series are large enough for their highest percentile.
MAX_STRETCH = 3.0
SERVER_START_TIMEOUT_S = 120.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
class ChurnSource:
    """Seeded churn batches drawn against the benchmark's own edge set."""

    def __init__(self, edge_keys, num_nodes: int, rng) -> None:
        self.n = num_nodes
        self.rng = rng
        self.present: List[int] = [int(k) for k in edge_keys]
        self.index: Dict[int, int] = {k: i for i, k in enumerate(self.present)}

    def _add(self) -> Tuple[int, int, int]:
        while True:
            u, v = (int(x) for x in self.rng.integers(0, self.n, size=2))
            if u == v:
                continue
            u, v = min(u, v), max(u, v)
            key = u * self.n + v
            if key not in self.index:
                self.index[key] = len(self.present)
                self.present.append(key)
                return (1, u, v)

    def _remove(self) -> Tuple[int, int, int]:
        i = int(self.rng.integers(0, len(self.present)))
        key = self.present[i]
        last = self.present.pop()
        if last != key:
            self.present[i] = last
            self.index[last] = i
        del self.index[key]
        return (-1, key // self.n, key % self.n)

    def batch(self, size: int) -> List[Tuple[int, int, int]]:
        return [self._add() if self.rng.random() < 0.5 else self._remove()
                for _ in range(size)]


def _candidate(rng, n: int, k_max: int, d_max: int):
    return (rng.integers(0, k_max + 1, size=n).astype("int64"),
            rng.integers(0, d_max + 1, size=n).astype("int64"))


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` process on a unix socket inside the checkout."""

    def __init__(self, workdir: str, index: int,
                 stats_path: Optional[str]) -> None:
        # A relative socket path keeps clear of the unix path-length limit
        # however deep the checkout sits.
        self.socket = os.path.relpath(
            os.path.join(workdir, f"s{index}.sock"), ROOT
        )
        serve_args = ["serve", "--unix", self.socket, "--telemetry", "off",
                      "--max-batch", str(MAX_BATCH)]
        if stats_path is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "serve_launcher.py"),
                   stats_path, *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else [])
        )
        self.log_path = os.path.join(workdir, f"s{index}.log")
        self.started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=log,
            )

    async def connect(self):
        from repro.serve.client import ServeClient

        deadline = time.perf_counter() + SERVER_START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                with open(self.log_path, errors="replace") as log:
                    raise RuntimeError(
                        "server exited during start-up: " + log.read()[-2000:]
                    )
            try:
                return await ServeClient.connect(unix_path=self.socket)
            except (FileNotFoundError, ConnectionRefusedError):
                if time.perf_counter() > deadline:
                    raise
                await asyncio.sleep(0.01)

    def close(self, ok: bool, timeout: float = 30.0) -> None:
        """Wait for the server to exit after ``shutdown`` (``ok``), or
        kill it (after a failure, or when it does not exit in time)."""
        if not ok:
            self.proc.kill()
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if ok and self.proc.returncode != 0:
            raise RuntimeError(
                f"server exited with code {self.proc.returncode}"
            )


async def _setup(server: Server, spec: dict):
    """Connect and open the session; returns ``(client, session, s)``."""
    client = await server.connect()
    opened = await client.open_session(spec)
    return client, opened["session"], time.perf_counter() - server.started


async def _shutdown(server: Server, clients) -> None:
    await clients[0].shutdown()
    for client in clients:
        await client.close()


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
class LoadState:
    """What the searchers and the writer share (one event loop)."""

    def __init__(self) -> None:
        self.churns_sent = 0
        self.churns_acked = 0
        self.score_ms: List[float] = []
        self.churn_ms: List[float] = []
        self.errors: List[str] = []
        #: ``(version, hot index) -> [(acc, loss), ...]``
        self.repeats: Dict[Tuple[int, int], list] = {}
        self.trace: List[List[Tuple[int, int, int]]] = []
        self.scores = 0
        #: Every score answered, warm-up included (server-side ratios).
        self.all_scores = 0
        self.running = True
        #: Set after every ``SCORES_PER_CHURN`` recorded scores, and on stop.
        self.churn_due = asyncio.Event()

    def enough(self) -> bool:
        return (len(self.score_ms) >= min_samples(max(SCORE_Q))
                and len(self.churn_ms) >= min_samples(max(CHURN_Q)))


async def _searcher(client, session, rng, pool, n, state: LoadState,
                    hot: bool, record: bool) -> None:
    from repro.serve.protocol import ServeError

    while state.running:
        if hot:
            idx = int(rng.integers(0, len(pool)))
            k, d = pool[idx]
        else:
            k, d = _candidate(rng, n, SPEC["k_max"], SPEC["d_max"])
        sent = state.churns_sent
        settled = sent == state.churns_acked
        t0 = time.perf_counter()
        try:
            reply = await client.score(session, k, d)
        except ServeError as exc:
            state.errors.append(f"score: {exc}")
            continue
        dt = time.perf_counter() - t0
        state.all_scores += 1
        if not record:
            continue
        state.scores += 1
        state.score_ms.append(1000.0 * dt)
        if state.scores % SCORES_PER_CHURN == 0:
            state.churn_due.set()
        if hot and settled and state.churns_sent == sent:
            state.repeats.setdefault((sent, idx), []).append(
                (reply["acc"], reply["loss"])
            )


async def _writer(client, session, source: ChurnSource,
                  state: LoadState) -> None:
    from repro.serve.protocol import ServeError
    from repro.stream.config import StreamConfig

    size = StreamConfig().events_per_step
    while True:
        await state.churn_due.wait()
        state.churn_due.clear()
        if not state.running:
            return
        events = source.batch(size)
        state.churns_sent += 1
        t0 = time.perf_counter()
        try:
            reply = await client.churn(session, events)
        except ServeError as exc:
            state.errors.append(f"churn: {exc}")
            state.running = False  # the trace no longer matches the server
            return
        state.churn_ms.append(1000.0 * (time.perf_counter() - t0))
        state.churns_acked += 1
        state.trace.append(events)
        if reply.get("applied") != len(events):
            state.errors.append(f"churn applied {reply.get('applied')} of "
                                f"{len(events)} events")


async def _drive(clients, session, rngs, pool, n, state: LoadState,
                 source: Optional[ChurnSource], seconds: float) -> float:
    """Run searchers (and the writer, when ``source`` is given) for at
    least ``seconds``; returns the measured wall time."""
    record = source is not None
    state.running = True
    state.churn_due.clear()
    tasks = [
        asyncio.ensure_future(_searcher(
            clients[i % len(clients)], session, rngs[i], pool, n, state,
            i < HOT_SEARCHERS, record,
        ))
        for i in range(IN_FLIGHT)
    ]
    if source is not None:
        tasks.append(asyncio.ensure_future(
            _writer(clients[0], session, source, state)
        ))
    start = time.perf_counter()
    while state.running:
        await asyncio.sleep(0.05)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (not record or state.enough()):
            break
        if elapsed >= MAX_STRETCH * seconds:
            break
    state.running = False
    state.churn_due.set()
    await asyncio.gather(*tasks)
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Replay check
# ----------------------------------------------------------------------
def replay(spec: dict, trace, sample) -> List[Tuple[float, float]]:
    """Score ``sample`` on a fresh artifact after replaying the churn
    ``trace`` (what the server must have answered, bitwise)."""
    from repro.core.lru import LRUCache
    from repro.serve.session import SessionSpec, build_artifact
    from repro.stream import EdgeEvent

    artifact = build_artifact(SessionSpec(**spec), max_batch=MAX_BATCH)
    for events in trace:
        artifact.churn([EdgeEvent(i, *e) for i, e in enumerate(events)])
    memo = LRUCache(len(sample) + 1)
    graphs = [artifact.rewired(*artifact.clamp(k, d), memo)
              for k, d in sample]
    return [artifact.score_blocks([g])[0] for g in graphs]


def timed_replay(spec: dict, trace, sample, traced: bool):
    """:func:`replay` (under the layer wrappers when ``traced``); returns
    the scores and the replay's wall time.  Run in a spawned process, so the
    untraced and the traced replay both start cold."""
    tracer = tracing.install(tracing.Tracer()) if traced else None
    try:
        start = time.perf_counter()
        scores = replay(spec, trace, sample)
        return scores, time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()


# ----------------------------------------------------------------------
def _server_layers(stats_path: str, requests: int,
                   window: Tuple[float, float]) -> Dict[str, float]:
    """Per-layer figures of the traced server; ``requests`` is every score
    request it answered."""
    with open(stats_path) as fh:
        server = tracing.Tracer.from_json(json.load(fh))
    # ``stream.rebase`` is left out: at this churn rate a run may end
    # before the dirty fraction reaches the rebase threshold, so
    # ``stream.rebases`` can rightly read 0.  (A rename of
    # ``StreamingGraph.rebase`` still fails, when the wrappers install.)
    tracing.require_fired(server, (
        "serve.build_artifact", "datasets.load", "entropy.relative",
        "entropy.sequences", "gnn.fit", "gnn.train_epoch", "tensor.matmul",
        "tensor.spmm", "rewire", "stacked.logits", "serve.score_blocks",
        "serve.rewired", "serve.churn", "stream.apply",
    ))
    out = tracing.layer_metrics(server, requests=requests)
    blocks = server.calls("serve.score_blocks")
    graphs = server.counters.get("serve.graphs_scored", 0.0)
    rewired = server.calls("serve.rewired")
    misses = server.under("rewire", {"serve.rewired"}).calls
    lo, hi = window
    busy = 0.0
    for name, start, end in server.top_level:
        if name in ("serve.score_blocks", "serve.rewired", "serve.churn"):
            busy += max(0.0, min(end, hi) - max(start, lo))
    out.update({
        "serve.score_blocks_calls": float(blocks),
        "serve.score_blocks_s": server.total("serve.score_blocks"),
        "serve.batch_width_mean": requests / blocks if blocks else 0.0,
        "serve.unique_ratio": graphs / requests if requests else 0.0,
        "serve.memo_hit_ratio": 1.0 - misses / rewired if rewired else 0.0,
        "serve.busy_frac": busy / (hi - lo),
    })
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    return asyncio.run(_run(seed, seconds, trace))


async def _run(seed: int, seconds: float, trace: bool) -> RunResult:
    import numpy as np

    from repro.datasets import load_dataset

    spec = dict(SPEC, seed=seed)
    rng = np.random.default_rng([seed, 7])
    graph = load_dataset(spec["dataset"], scale=spec["scale"], seed=seed)
    n = graph.num_nodes
    pool = [_candidate(rng, n, spec["k_max"], spec["d_max"])
            for _ in range(HOT_POOL)]
    sample = pool[:SAMPLE_HOT] + [
        _candidate(rng, n, spec["k_max"], spec["d_max"])
        for _ in range(SAMPLE_FRESH)
    ]
    source = ChurnSource(graph.edge_keys(), n, np.random.default_rng([seed, 11]))
    searcher_rngs = [np.random.default_rng([seed, 13, i])
                     for i in range(IN_FLIGHT)]
    del graph

    out = RunResult()
    state = LoadState()
    workdir = tempfile.mkdtemp(prefix=".run-", dir=ROOT / "perfbench")
    stats_path = os.path.join(workdir, "server-stats.json") if trace else None
    # The traced run sets up once (its set-up time is not reported); the
    # end-to-end run sets up SETUP_REPEATS servers and loads the last.
    probes = 0 if trace else SETUP_REPEATS - 1
    setup_times = []
    try:
        for i in range(probes):
            server = Server(workdir, i, None)
            ok = False
            try:
                client, session, dt = await _setup(server, spec)
                setup_times.append(dt)
                await _shutdown(server, [client])
                ok = True
            finally:
                server.close(ok)
        server = Server(workdir, probes, stats_path)
        ok = False
        try:
            client, session, dt = await _setup(server, spec)
            setup_times.append(dt)
            clients = [client] + [await server.connect()
                                  for _ in range(CONNECTIONS - 1)]
            await _drive(clients, session, searcher_rngs, pool, n, state,
                         None, WARMUP_S)
            window_start = time.monotonic()
            wall = await _drive(clients, session, searcher_rngs, pool, n,
                                state, source, seconds)
            window = (window_start, time.monotonic())
            # The sample twice at the final version: the second round is
            # answered from the memo and must repeat the first bitwise.
            replies = [await asyncio.gather(*[
                clients[0].score(session, k, d) for k, d in sample
            ]) for _ in range(2)]
            await _shutdown(server, clients)
            ok = True
        finally:
            server.close(ok)
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        layers = _server_layers(
            stats_path, state.all_scores + len(sample), window
        ) if trace else {}
    finally:
        for entry in os.listdir(workdir):
            os.unlink(os.path.join(workdir, entry))
        os.rmdir(workdir)

    # --- checks (outside the timed window) -----------------------------
    ops = state.scores + len(state.churn_ms)
    out.attempted = ops + len(state.errors) + 2 * len(sample)
    out.failed = len(state.errors)
    out.problems.extend(state.errors)
    split = [key for key, seen in state.repeats.items() if len(set(seen)) > 1]
    out.fail([f"hot candidate {idx} scored {len(set(state.repeats[(v, idx)]))}"
              f" different ways at version {v}" for v, idx in split],
             operations=len(split))
    served, again = ([(r["acc"], r["loss"]) for r in round_]
                     for round_ in replies)
    differ = [i for i, (a, b) in enumerate(zip(served, again)) if a != b]
    out.fail([f"sample {i} scored {served[i]} then {again[i]}"
              for i in differ], operations=len(differ))
    repeats_checked = (len(sample)
                       + sum(len(seen) - 1 for seen in state.repeats.values()))
    expected, replay_s = tracing.cold_call(
        timed_replay, spec, state.trace, sample, False
    )
    mismatched = [i for i, (a, b) in enumerate(zip(served, expected))
                  if a != b]
    out.fail([f"sample {i}: server {served[i]} != replay {expected[i]}"
              for i in mismatched], operations=len(mismatched))

    score_q = percentiles(state.score_ms, SCORE_Q)
    churn_q = percentiles(state.churn_ms, CHURN_Q)
    rps = ops / wall
    accuracy = sum(acc for acc, _ in served) / len(served)
    out.report("serve_rps", rps, "1/s", n=ops)
    out.report("score_p50_ms", score_q[0.5], "ms", n=len(state.score_ms))
    out.report("score_p90_ms", score_q[0.9], "ms", n=len(state.score_ms))
    out.report("churn_p50_ms", churn_q[0.5], "ms", n=len(state.churn_ms))
    out.report("churn_p90_ms", churn_q[0.9], "ms", n=len(state.churn_ms))
    out.report("load_s", wall, "s")
    out.report("repeated_scores_checked", repeats_checked, "count")
    out.report("replay_s", replay_s, "s")
    out.report("sample_accuracy", accuracy, "frac", n=len(served))
    out.report("peak_rss_mb", rss_mb, "MB")
    out.report("setup_s", median(setup_times), "s", n=len(setup_times))

    if not trace:
        out.metrics.update({
            "setup_s": median(setup_times),
            "latency_p50_ms": score_q[0.5],
            "latency_tail_ms": score_q[0.9],
            "throughput_per_s": rps,
            "peak_rss_mb": rss_mb,
        })
        return out

    # Tracing overhead on the serving code path: the replay again, under
    # the wrappers, against the untraced replay.
    traced_expected, traced_replay_s = tracing.cold_call(
        timed_replay, spec, state.trace, sample, True
    )
    out.attempted += len(sample)
    out.fail(["traced replay differs from the untraced replay"]
             if traced_expected != expected else [])
    layers["serve.churn_p50_ms"] = churn_q[0.5]
    layers["serve.churn_p90_ms"] = churn_q[0.9]
    layers["trace.overhead_frac"] = traced_replay_s / replay_s - 1.0
    out.metrics.update(layers)
    return out
