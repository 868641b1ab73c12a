"""Importing the CLI must leave every module-level lru cache empty.

The benchmark refuses a repetition whose ``whcalc`` caches are already
filled when it starts, since that work would go unmeasured; a plan
computed at import time would therefore fail every benchmark run.  This
test looks at a fresh interpreter the same way: every module-level
object with ``cache_info`` defined in a ``whcalc`` module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = """
import json, sys
import whcalc.cli
sizes = {}
for name, mod in sorted(sys.modules.items()):
    if mod is None or not (name == "whcalc" or name.startswith("whcalc.")):
        continue
    for key, value in vars(mod).items():
        if hasattr(value, "cache_info") \\
                and getattr(value, "__module__", None) == name:
            sizes[name + "." + key] = value.cache_info().currsize
print(json.dumps(sizes))
"""


def test_caches_are_cold_after_import():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    sizes = json.loads(out)
    # the scan sees the caches it is meant to guard
    assert {"whcalc.falg._squares", "whcalc.falg._square_basis",
            "whcalc.falg._attachment_plan", "whcalc.falg._duality_plan",
            "whcalc.falg._union_coeffs", "whcalc.falg._boundaries",
            "whcalc.falg._contractible_keys",
            "whcalc.simplicial._collapses_to_point"} <= set(sizes)
    assert {name: n for name, n in sizes.items() if n} == {}
