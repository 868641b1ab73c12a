"""Tests of the benchmark itself: smoke runs, the tracer, the checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if proc.returncode == 0 else None


# Counts that only appear when a wrapper is bound where the caller looks
# the name up: falg imports _collapses_to_point, lens/cli import
# homology_c2 and the groupring functions by name.
REBOUND = {
    "homotopy-sweep": ["snf.calls", "abelian.homology_c2.calls", "falg.rows.calls"],
    "functor-checks": ["simplicial.collapse.calls", "lattice.Lattice.init.calls",
                       "falg.duality.calls", "falg.elements"],
    "cli-mix": ["abelian.homology_c2.calls", "groupring.invert_unit.calls",
                "groupring.wh_class_equal.calls", "cli.main_s"],
}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_is_correct_and_reports_every_metric(workload):
    proc, result = run_bench("--workload", workload, "--smoke", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    assert set(result["metrics"]) == names
    for name in REBOUND[workload]:
        assert result["metrics"][name]["value"] > 0, name


def copy_bench(tmp_path):
    """Copy BENCHMARK.json and the benchmark's directory into ``tmp_path``."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_expected_value_is_reported_as_failure(tmp_path):
    copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    expected["homotopy"]["z2-trivial"]["1"] = [3]
    path.write_text(json.dumps(expected))
    proc, result = run_bench("--workload", "homotopy-sweep", "--smoke",
                             cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    # one untraced and one traced repetition, each with the corrupted check
    assert not result["correct"] and result["failed"] == 2


def test_refuses_to_run_without_sources(tmp_path):
    copy_bench(tmp_path)
    proc, _ = run_bench("--workload", "cli-mix", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_compare_refuses_different_backends(tmp_path):
    paths = []
    for backend in ("pure", "compiled"):
        path = tmp_path / f"{backend}.json"
        path.write_text(json.dumps({
            "stamp": {"backend": backend, "workload": "cli-mix", "trace": 0},
            "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}))
        paths.append(str(path))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--compare", *paths],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "backend" in proc.stderr


def test_self_time_excludes_child_spans(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: next(ticks))
    tracer = tracing.Tracer()
    inner = tracer.span("inner", lambda: None)
    outer = tracer.span("outer", lambda: [inner(), inner()])
    outer()
    # outer spans ticks 0..5, each inner call one tick
    assert tracer.calls == {"inner": 2, "outer": 1}
    assert tracer.total == {"inner": 2, "outer": 5}
    assert tracer.self_time == {"inner": 2, "outer": 3}
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
