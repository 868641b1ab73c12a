"""Golden CLI outputs, compared byte for byte across processes and commits.

Each case runs ``python -m whcalc.cli ... --json`` in a fresh interpreter
and compares its exit code and stdout bytes with the files recorded under
``tests/golden/``.  The cases are independent processes, so a module
fixture starts them all at once through a pool of ``os.cpu_count()``
threads, each waiting on its own child; every test then checks its own
case's result.

Re-record (only on a commit whose outputs are trusted):

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SRC = HERE.parent / "src"

# Every command of the README's "Command line" section.
README_COMMANDS = [
    ["unit", "verify", "--order", "7", "--coeffs", "2,2,0,-1,-1,-1,0"],
    ["wh", "eq", "--order", "7", "--x", "2,2,0,-1,-1,-1,0",
     "--y=-1,0,2,2,0,-1,-1"],
    ["homology", "--target", "z2xz2-trivial", "--n", "1"],
    ["tate", "--target", "z-trivial", "--n", "-2"],
    ["falg", "pi", "--target", "z4-sign", "--n", "2"],
    ["falg", "check", "--element",
     '{"p":0,"target":"z2-trivial","face_values":{"0":[1],"1":[1]}}'],
    ["subcomplex", "enum", "--p", "2"],
    ["torsion", "double", "--d", "11", "--order", "7",
     "--u", "2,2,0,-1,-1,-1,0", "--twist", "2"],
    ["lens", "inertia", "--p", "5"],
    ["lens", "report-theorem-a", "--k", "1"],
    ["kapp", "tor", "--p", "7", "--i", "4"],
    ["kapp", "k3", "--p", "7"],
]

# The criterion-03 sweep: the two-path check at every degree up to the cap.
SWEEP_TARGETS = [f"{a}-{s}" for a in ("z2", "z3", "z4", "z2xz2")
                 for s in ("trivial", "sign")]
SWEEP_COMMANDS = [["falg", "pi", "--target", t, "--n", str(n)]
                  for t in SWEEP_TARGETS for n in range(4)]


def case_name(argv):
    """File-name stem of a command: its words joined, JSON and flags dropped."""
    words = [w[2:] if w.startswith("--") else w
             for w in argv if not w.startswith("{")]
    return "_".join(w.replace("=", "").replace(",", "") for w in words)


CASES = [argv + ["--json"] for argv in README_COMMANDS
         + [c for c in SWEEP_COMMANDS if c not in README_COMMANDS]]


def run_cli(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "whcalc.cli", *argv],
                          capture_output=True, env=env, timeout=300)
    return proc.returncode, proc.stdout


def load_manifest():
    return json.loads((GOLDEN / "manifest.json").read_text())


@pytest.fixture(scope="module")
def cli_runs():
    """A future of ``run_cli(argv)`` per case name, all started at once."""
    with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        yield {case_name(argv): pool.submit(run_cli, argv) for argv in CASES}


# The ids keep their "-default" suffix so that results stay comparable
# with earlier runs of the suite.
@pytest.mark.parametrize("argv", [pytest.param(a, id=f"{case_name(a)}-default")
                                  for a in CASES])
def test_golden_output(argv, cli_runs):
    entry = load_manifest()[case_name(argv)]
    assert entry["argv"] == argv
    code, out = cli_runs[case_name(argv)].result()
    assert code == entry["exit"]
    assert out == (GOLDEN / f"{case_name(argv)}.out").read_bytes()


def test_case_names_are_distinct():
    assert len({case_name(argv) for argv in CASES}) == len(CASES)
    assert set(load_manifest()) == {case_name(argv) for argv in CASES}


def record():
    GOLDEN.mkdir(exist_ok=True)
    manifest = {}
    for argv in CASES:
        code, out = run_cli(argv)
        name = case_name(argv)
        (GOLDEN / f"{name}.out").write_bytes(out)
        manifest[name] = {"argv": argv, "exit": code}
    (GOLDEN / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
