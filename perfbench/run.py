"""Layered benchmark for whcalc.

    python3 perfbench/run.py --workload homotopy-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload cli-mix --smoke
    python3 perfbench/run.py --compare BENCH_a.json BENCH_b.json

Runs one workload (see ``workloads.py``) as a fixed number of whole
repetitions, each started in a fresh interpreter because the lru caches
in ``falg``, ``abelian`` and ``simplicial`` start cold for every CLI
user.  The count is ``--seconds`` over the workload's nominal repetition
time (``REP_SECONDS``), so it does not depend on the speed of the code
measured.  Every operation's output is checked against ``expected.json``
and against the first repetition's output digests.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (time of one
repetition, including start-up), ``ops_per_s`` (checks or commands per
second of it), ``op_p50_s`` and ``op_p90_s`` (per check or command),
``setup_s`` (median time from interpreter start to whcalc imported and
inputs built, over every process the repetitions start) and
``peak_rss_mib`` (median peak RSS of a repetition's process);
``end_to_end`` says how each timing is taken from the repetitions.
``--trace 1`` runs one untraced and one traced repetition and reports
the per-layer metrics of ``tracer.py`` from the traced one, plus the
tracing overhead; output digests must agree with and without tracing.
``--smoke`` runs one untraced and one traced repetition at minimal size.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it print every metric with its unit and sample count,
and the stamp (commit, source digest, kernel backend, Python, nproc,
seed, workload, repetitions).  The full result is also written to
``.perfbench_out/BENCH_<workload>_seed<seed>_trace<0|1>.json``, and the
traced run's spans to ``spans_<workload>_seed<seed>.jsonl`` beside it.
``--compare`` prints two such results side by side and refuses results
whose kernel backends differ.  Exit code 2 means the benchmark could not
run (no whcalc sources, bad arguments, refused comparison).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
# Nominal seconds of one untraced repetition of the pure-kernel code the
# benchmark was written against, on 2 vCPUs.  A run makes
# max(2, --seconds // nominal) repetitions, however fast the code is.
REP_SECONDS = {"homotopy-sweep": 12.5, "functor-checks": 6.0, "cli-mix": 6.0}
LAST_START = 150.0  # no repetition starts later than this, so a run ends within 180 s
RUN_LIMIT = 175.0
COLD_MODULES = {"whcalc.falg", "whcalc.abelian", "whcalc.simplicial"}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")]
# Printed and written to the result file, but not in the final line.
# ops_per_s is the fixed operation count over wall_s, so it would gate
# wall_s twice.  With two to four samples per operation in a run, one
# check's best time still lands in either host speed state, and the
# percentiles' spread across runs exceeds the largest bound allowed.
PRINTED_ONLY = [("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_p90_s", "s")]


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _child(argv, started):
    """Run one child to completion within the run's time limit."""
    budget = max(5.0, RUN_LIMIT - (time.perf_counter() - started))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                              capture_output=True, timeout=budget)
    except subprocess.TimeoutExpired:
        return t0, time.perf_counter() - t0, None
    return t0, time.perf_counter() - t0, proc


def _last_json(text, prefix=""):
    lines = [ln for ln in text.splitlines() if ln.startswith(prefix)]
    if not lines:
        return None
    try:
        return json.loads(lines[-1][len(prefix):])
    except ValueError:
        return None


class Rep:
    """One repetition: its wall time, set-up samples and checked ops."""

    def __init__(self):
        self.wall = 0.0
        self.setups = []
        self.ops = []  # [label, seconds, ok, digest]
        self.rss_kib = 0
        self.infos = []
        self.layers = []
        self.spans = []
        self.errors = []

    def note(self, info, t0):
        self.setups.append(info["t_ready"] - t0)
        self.rss_kib = max(self.rss_kib, info["rss_kib"])
        self.infos.append(info)
        if "layers" in info:
            self.layers.append(info["layers"])
            self.spans.append(info["spans"])

    def cold(self):
        return all(not i["warm_caches"] and COLD_MODULES <= set(i["cache_modules"])
                   for i in self.infos) and bool(self.infos)


def worker_rep(args, expected, size, trace, started):
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--size", size] + ["--trace"] * trace
    rep = Rep()
    t0, rep.wall, proc = _child(argv, started)
    info = _last_json(proc.stdout.decode()) if proc and proc.returncode == 0 else None
    if info is None:
        rep.errors.append(proc.stderr.decode()[-2000:] if proc else "timed out")
        return rep
    rep.note(info, t0)
    for label, seconds, value, error in info.get("ops", []):
        ok = error is None and workloads.check_op(label, value, expected)
        if error:
            rep.errors.append(f"{label}: {error}")
        rep.ops.append([label, seconds, ok, workloads.digest_value(value)])
    return rep


def cli_rep(args, expected, size, trace, started):
    rep = Rep()
    for cmd in workloads.cli_commands(args.seed, size):
        argv = [sys.executable, str(HERE / "launcher.py")] + ["--trace"] * trace
        t0, seconds, proc = _child(argv + ["--"] + cmd["argv"], started)
        label = workloads.command_key(cmd["argv"])
        info = _last_json(proc.stderr.decode(), "PERFBENCH ") if proc else None
        ok = info is not None and workloads.check_command(
            cmd, proc.returncode, proc.stdout, expected)
        if info is not None:
            rep.note(info, t0)
        if not ok:
            rep.errors.append(f"{label}: exit {proc.returncode if proc else None}")
        digest = workloads.digest_bytes(proc.stdout if proc else b"")
        rep.ops.append([label, seconds, ok, digest])
        rep.wall += seconds
    return rep


def planned_reps(args):
    """Untraced (False) and traced (True) repetitions, in running order."""
    if args.smoke or args.trace:
        return [False, True]
    return [False] * max(2, int(args.seconds // REP_SECONDS[args.workload]))


def measure(args, expected):
    """Run the planned repetitions, stopping early only near the time limit."""
    size = "smoke" if args.smoke else "full"
    rep_fn = cli_rep if args.workload == "cli-mix" else worker_rep
    started = time.perf_counter()
    plain, traced_reps = [], []
    for trace_this in planned_reps(args):
        rep = rep_fn(args, expected, size, trace_this, started)
        (traced_reps if trace_this else plain).append(rep)
        if time.perf_counter() - started + rep.wall > LAST_START:
            break
    return size, plain, traced_reps


def judge(workload, size, expected, reps):
    """(attempted, failed, problems) over all repetitions of a run.

    An operation fails if it raised, exited non-zero, disagreed with the
    record, or produced other bytes than the same operation in the first
    repetition; a repetition that did not start cold fails entirely.
    """
    planned = workloads.planned_ops(workload, size, expected)
    reference = [op[3] for op in reps[0].ops]
    attempted = failed = 0
    problems = []
    for i, rep in enumerate(reps):
        attempted += planned
        if not rep.cold():
            problems.append(f"repetition {i} did not start with empty caches")
            failed += planned
            continue
        oks = [op[2] and j < len(reference) and op[3] == reference[j]
               for j, op in enumerate(rep.ops)]
        failed += planned - sum(oks[:planned])
        problems += rep.errors[:5]
        if sum(oks) != len(oks):
            problems.append(f"repetition {i}: {len(oks) - sum(oks)} operations "
                            "failed or changed output")
    return attempted, failed, problems


def _quantiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=10)
    return statistics.median(values), q[8]


def end_to_end(reps):
    """End-to-end values from the untraced repetitions of one run.

    On a shared host the CPU speed can flip between states well apart
    and hold one for seconds, so a median follows whichever state held
    while it was sampled.  Each operation is therefore timed at its best
    over the run's repetitions (every repetition runs the same
    operations in the same order; their number is fixed, see
    ``planned_reps``).  ``wall_s`` adds up those best times and the
    least time a repetition spent outside its operations (start-up,
    set-up, exit).
    """
    count = min(len(r.ops) for r in reps)
    if not count:
        return {}, {}
    best = [min(r.ops[i][1] for r in reps) for i in range(count)]
    overhead = min(r.wall - sum(op[1] for op in r.ops) for r in reps)
    setups = [s for r in reps for s in r.setups]
    wall = sum(best) + overhead
    p50, p90 = _quantiles(best)
    values = {
        "wall_s": wall,
        "ops_per_s": count / wall,
        "op_p50_s": p50,
        "op_p90_s": p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r.rss_kib for r in reps) / 1024,
    }
    samples = {"wall_s": len(reps), "ops_per_s": len(reps),
               "op_p50_s": count, "op_p90_s": count,
               "setup_s": len(setups), "peak_rss_mib": len(reps)}
    return values, samples


def per_layer(plain, traced_reps, backend):
    per_rep = [tracing.layer_metrics(tracing.merge(r.layers), backend)
               for r in traced_reps]
    values = {name: statistics.median(m[name] for m in per_rep)
              for name in per_rep[0]}
    traced_wall = statistics.median(r.wall for r in traced_reps)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(r.wall for r in plain)
    samples = {name: len(per_rep) for name in values}
    return values, samples


def source_digest():
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def stamp(args, size, plain, traced_reps, infos):
    backends = sorted({i["backend"] for i in infos})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": int(args.trace), "size": size,
        "runs": len(plain), "traced_runs": len(traced_reps),
        "commit": git_commit(), "src_sha256": source_digest(),
        "backend": backends[0] if len(backends) == 1 else backends,
        "python": sorted({i["python"] for i in infos}),
        "nproc": os.cpu_count(), "platform": platform.platform(),
    }


def run(args):
    if not (ROOT / "src" / "whcalc" / "__init__.py").is_file():
        print(f"error: no whcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    size, plain, traced_reps = measure(args, expected)
    reps = plain + traced_reps
    attempted, failed, problems = judge(args.workload, size, expected, reps)
    wanted = len(planned_reps(args))
    if len(reps) < wanted:
        problems.append(f"time limit: made {len(reps)} of {wanted} repetitions")
    infos = [i for r in reps for i in r.infos]
    st = stamp(args, size, plain, traced_reps, infos)
    if isinstance(st["backend"], list):
        problems.append(f"repetitions ran on different backends: {st['backend']}")
    units = dict(END_TO_END + PRINTED_ONLY + tracing.PER_LAYER)
    values, samples = {}, {}
    if not args.trace:
        values, samples = end_to_end(plain)
    if traced_reps and all(r.layers for r in traced_reps):
        v, s = per_layer(plain, traced_reps, st["backend"])
        if args.trace:
            values, samples = v, s
        else:
            values.update(v)
            samples.update(s)
    elif traced_reps:
        problems.append("a traced repetition returned no layer data")
        failed = max(failed, 1)
    correct = failed == 0 and not isinstance(st["backend"], list) and bool(values)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: v for k, v in metrics.items()
                          if k not in dict(PRINTED_ONLY)}}

    print(f"perfbench {args.workload} seed={args.seed} backend={st['backend']} "
          f"runs={len(plain)} traced_runs={len(traced_reps)}")
    for name, value in values.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]:<6} n={samples[name]}")
    print(f"  {'fail_ratio':<40} {failed / attempted:>14.6g} ratio  "
          f"{failed}/{attempted} operations")
    if traced_reps:
        kept = sum(len(spans) for r in traced_reps for spans in r.spans)
        dropped = sum(agg["dropped"] for r in traced_reps for agg in r.layers)
        print(f"  spans: {kept} kept, {dropped} past the cap "
              "(the per-layer figures include them)")
    for problem in problems:
        print(f"  problem: {problem}")
    print("stamp: " + json.dumps(st))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}"
    (OUT_DIR / f"BENCH_{stem}_trace{int(args.trace)}.json").write_text(json.dumps(
        {"stamp": st, "result": result, "metrics": metrics, "samples": samples,
         "fail_ratio": failed / attempted, "problems": problems,
         "raw": {"walls": [r.wall for r in plain],
                 "rep_setups": [r.setups for r in plain],
                 "op_seconds": [[op[1] for op in r.ops] for r in plain]}}))
    if traced_reps:
        with open(OUT_DIR / f"spans_{stem}.jsonl", "w") as fh:
            for i, rep in enumerate(traced_reps):
                for proc, spans in enumerate(rep.spans):
                    for name, start, end, parent in spans:
                        fh.write(json.dumps([i, proc, name, start, end, parent]) + "\n")
    print(json.dumps(result))
    return 0


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for key in ("backend", "workload", "trace"):
        if a["stamp"][key] != b["stamp"][key]:
            print(f"error: refusing to compare results whose {key} differs: "
                  f"{a['stamp'][key]} vs {b['stamp'][key]}", file=sys.stderr)
            return 2
    ma, mb = a["metrics"], b["metrics"]
    print(f"{'metric':<40} {'A':>14} {'B':>14} {'B/A - 1':>9}")
    for name in sorted(set(ma) | set(mb)):
        va = ma.get(name, {}).get("value")
        vb = mb.get(name, {}).get("value")
        change = f"{vb / va - 1:+.1%}" if va and vb is not None else "-"
        print(f"{name:<40} {va!s:>14.14} {vb!s:>14.14} {change:>9}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="whcalc layered benchmark (see the module docstring)")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one untraced and one traced repetition at minimal size")
    parser.add_argument("--compare", nargs=2, metavar="BENCH_JSON")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
