"""Run one ``whcalc.cli`` command in a fresh interpreter, for cli-mix.

    python perfbench/launcher.py [--trace] -- <whcalc arguments>

Imports the CLI, checks that every lru cache is empty, optionally
installs the tracer, then calls ``whcalc.cli.main(argv)``; the report
goes to stdout exactly as ``python -m whcalc.cli`` prints it.  The last
line of stderr is ``PERFBENCH <json>`` with the set-up time, peak RSS,
kernel backend and, when traced, the tracer's aggregates and spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main():
    sep = sys.argv.index("--")
    trace = "--trace" in sys.argv[1:sep]
    argv = sys.argv[sep + 1:]

    from whcalc import _snf, cli
    import tracer as tracing

    caches = tracing.lru_caches(tracing.whcalc_modules())
    tracer = None
    main_fn = cli.main
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        main_fn = tracer.span("cli.main", main_fn)
    warm = [name for name, fn in caches.items() if fn.cache_info().currsize]
    info = {"t_ready": time.perf_counter(), "backend": _snf.BACKEND,
            "python": sys.version.split()[0], "warm_caches": warm,
            "cache_modules": sorted({k.rsplit(".", 1)[0] for k in caches})}
    code = main_fn(argv)
    sys.stdout.flush()
    info["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        info["layers"] = tracer.aggregates(tracing.cache_groups(caches))
        info["spans"] = tracer.spans
    print("PERFBENCH " + json.dumps(info), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
