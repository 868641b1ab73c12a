"""One cold repetition of an in-process workload, in a fresh interpreter.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON
line: when set-up ended, whether every lru cache was empty at the start
of the timed operations, each operation's label, seconds, output and
error, the peak RSS, and (``--trace``) the tracer's aggregates and spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import workloads


def timed(thunk):
    """(seconds, value, error) of one call."""
    t0 = time.perf_counter()
    try:
        value, error = thunk(), None
    except Exception:  # one failed operation must not end the run
        value, error = None, traceback.format_exc(limit=3)
    return time.perf_counter() - t0, value, error


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS[:2], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from whcalc import _snf, abelian, falg, simplicial  # noqa: F401
    import tracer as tracing

    caches = tracing.lru_caches(tracing.whcalc_modules())
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ops = workloads.worker_ops(args.workload, args.seed, args.size)
    warm = [name for name, fn in caches.items() if fn.cache_info().currsize]
    t_ready = time.perf_counter()
    out = {"t_ready": t_ready, "backend": _snf.BACKEND,
           "python": sys.version.split()[0], "warm_caches": warm,
           "cache_modules": sorted({k.rsplit(".", 1)[0] for k in caches})}
    out["ops"] = [[label, *timed(thunk)] for label, thunk in ops]
    out["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["layers"] = tracer.aggregates(tracing.cache_groups(caches))
        out["spans"] = tracer.spans
    print(json.dumps(out))


if __name__ == "__main__":
    main()
