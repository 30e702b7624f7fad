"""Start ``repro serve`` with the benchmark's layer wrappers installed.

Usage::

    python3 perfbench/serve_launcher.py STATS.json serve --unix SOCK ...

Everything after the stats path is handed to ``repro.cli.main``
unchanged.  When the server exits, the wrappers' aggregates are written
to ``STATS.json`` (spans on the ``time.monotonic`` timeline, which is
system-wide, so the load generator can align them with its own window).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracing  # noqa: E402


def main(argv) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    tracer = tracing.install(tracing.Tracer(clock=time.monotonic))
    try:
        from repro.cli import main as repro_main

        code = repro_main(cli_args)
    finally:
        tracer.restore()
        with open(stats_path, "w") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
