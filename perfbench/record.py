"""Record the expected outputs the benchmark checks, into expected.json.

    PYTHONPATH=src python3 perfbench/record.py

Run on a commit whose outputs are trusted.  Homotopy records keep the
invariant factors of every criterion-03 target at n = 0..3, and only
where the two paths agree; CLI records keep the sha256 of the ``--json``
stdout of ``python -m whcalc.cli`` for every fixed command of both sizes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main():
    from whcalc import abelian, falg

    homotopy = {}
    for name in workloads.SWEEP:
        a = workloads.target(name)
        homotopy[name] = {}
        for n in range(4):
            pi = list(falg.moore_homotopy(a, n).invariant_factors)
            h = list(abelian.homology_c2(a, n).invariant_factors)
            if pi != h:
                sys.exit(f"{name} n={n}: homotopy {pi} != homology {h}")
            homotopy[name][str(n)] = pi

    groups = set()
    for plan in workloads.FUNCTOR.values():
        groups.update(plan["duality"] + plan["square"])
    elements, duality = {}, {}
    for name in sorted(groups):
        els = list(falg.falg_group(workloads.target(name), 2).elements())
        elements[name] = len(els)
        duality[name] = sum(workloads.duality_checks(el.functor)[1] for el in els)

    cli = {}
    for size in workloads.SIZES:
        for argv in workloads.fixed_commands(size):
            proc = subprocess.run([sys.executable, "-m", "whcalc.cli", *argv],
                                  capture_output=True)
            if proc.returncode != 0:
                sys.exit(f"{argv}: exit {proc.returncode}")
            cli[workloads.command_key(argv)] = workloads.digest_bytes(proc.stdout)

    expected = {"homotopy": homotopy,
                "functor": {"elements": elements, "duality_checks": duality},
                "cli": cli}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
