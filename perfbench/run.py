"""End-to-end benchmark of ``repro run`` and ``repro serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit-chameleon-gcn --seed 1 \\
        --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``fit-chameleon-gcn`` -- ``GraphRARE("gcn").fit`` on paper-scale
  chameleon with the sequential ``TopologyEnv``;
* ``fit-squirrel-gcn-vec4`` -- the same on squirrel (scale 0.4) with
  ``num_envs=4`` and the entropy screen engine forced on;
* ``serve-chameleon-churn`` -- ``python -m repro serve --unix`` in its own
  process under a closed-loop mix of scores and churn batches.

``--trace 0`` measures with telemetry off and reports the end-to-end
metrics; ``--trace 1`` wraps the public callables of each layer from this
directory's own code and reports the per-layer metrics.  Every input is
generated from ``--seed``.  The human-readable report (every figure with
its unit and sample count) and an environment fingerprint are printed
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import catalog, fit_workloads, serve_workload  # noqa: E402

WORKLOADS = {
    **{name: ("fit", fit_workloads.run) for name in fit_workloads.WORKLOADS},
    serve_workload.NAME: ("serve", serve_workload.run),
}


def blas_threads() -> object:
    """OpenBLAS's thread count as the loaded library reports it."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        import ctypes

        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return os.environ.get("OPENBLAS_NUM_THREADS",
                          os.environ.get("OMP_NUM_THREADS", "unknown"))


def source_digest() -> str:
    """SHA-256 over the paths and bytes of ``src/``: identifies the code
    under test where no git metadata is at hand."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def fingerprint() -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def require_no_children() -> None:
    """Fail if any process this one started has not been waited for: every
    workload waits for each process it starts, on every path out of it."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise RuntimeError(f"a child process outlived its workload (pid {pid}; "
                       "0 means still running)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    kind, run = WORKLOADS[args.workload]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    require_no_children()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    names = [(m["name"], m["unit"]) for m in metrics]
    skipped = catalog.NOT_EXERCISED[kind] if args.trace else ()
    missing = [name for name, _ in names
               if name not in result.metrics and not name.startswith(skipped)]
    if missing:
        raise RuntimeError(f"workload produced no value for {missing}")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  kind {kind}")
    for name, value, unit, n in result.lines:
        count = f"  (n={n})" if n is not None else ""
        print(f"  {name:<22} {value:>14.6g} {unit}{count}")
    error_rate = result.failed / max(result.attempted, 1)
    print(f"  {'error_rate':<22} {error_rate:>14.6g} frac"
          f"  (n={result.attempted})")
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")
    print("env " + json.dumps(fingerprint(), sort_keys=True))
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": float(result.metrics.get(name, 0.0)),
                   "unit": unit}
            for name, unit in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
