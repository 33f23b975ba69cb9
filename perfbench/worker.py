"""One benchmark round in a fresh interpreter.

Usage: ``python3 perfbench/worker.py SPEC.json`` with ``src`` on
PYTHONPATH.  The spec lists CLI argument vectors, whether to trace, and
where to write the result.  The worker times the import of ``immdfun.cli``
(cold functools caches, as for a command-line user), then calls
``immdfun.cli.main(argv)`` once per operation, in order.  A nonzero exit,
a typed error or any other exception marks that operation failed and the
round goes on.  Output checks happen in the client, after this process
has ended.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def calibrate() -> float:
    """Seconds for a fixed reference computation that no change to immdfun
    can alter: small dense eigensolves and building and serialising small
    JSON records, the two kinds of work the workloads do.  Run right after
    the timed operations, it measures how fast the host was at that time."""
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((100, 100))
    for _ in range(25):
        np.linalg.eigh(a + a.T)
    for i in range(80000):
        json.dumps({"r": [[i, 2, 0], [i % 5, 1], [1]], "value": [i * 0.5, -i * 0.25]})
    return time.perf_counter() - start


def run(spec: dict) -> dict:
    os.sched_setaffinity(0, {spec["cpu"]})
    start = time.perf_counter()
    import immdfun.cli as cli

    setup_s = time.perf_counter() - start
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = []
    wall_start = time.perf_counter()
    for argv in spec["ops"]:
        op_start = time.perf_counter()
        try:
            code, error = cli.main(argv), None
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code, error = exc.code, "SystemExit"
        except Exception as exc:  # a crash fails this op, not the round
            code, error = None, f"{type(exc).__name__}: {exc}"
        ops.append(
            {"seconds": time.perf_counter() - op_start, "exit": code, "error": error}
        )
    wall_s = time.perf_counter() - wall_start
    calib_s = calibrate()
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calib_s": calib_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "trace": tracer.report() if tracer else None,
    }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
