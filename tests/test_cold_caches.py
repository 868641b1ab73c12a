"""Importing the CLI must leave every module-level lru cache empty.

The benchmark refuses a repetition whose ``whcalc`` caches are already
filled when it starts, since that work would go unmeasured; a plan
computed at import time would therefore fail every benchmark run.  This
test looks at a fresh interpreter the same way: every module-level
object with ``cache_info`` defined in a ``whcalc`` module.  The CLI
imports some modules only when a command needs them, so the scan first
imports every ``whcalc`` module to see their caches too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = """
import importlib, json, pkgutil, sys
import whcalc, whcalc.cli
for info in pkgutil.walk_packages(whcalc.__path__, "whcalc."):
    importlib.import_module(info.name)
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

STARTUP_SCRIPT = """
import json, sys
import whcalc.cli
print(json.dumps(sorted(sys.modules)))
"""

ALL_MODULES_SCRIPT = """
import importlib, json, pkgutil, sys
import whcalc
for info in pkgutil.walk_packages(whcalc.__path__, "whcalc."):
    importlib.import_module(info.name)
print(json.dumps(sorted(sys.modules)))
"""


def _fresh_interpreter(script):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_caches_are_cold_after_import():
    sizes = _fresh_interpreter(SCRIPT)
    # the scan sees the caches it is meant to guard
    assert {"whcalc.falg._square_basis", "whcalc.falg._attachment_plan",
            "whcalc.falg._duality_form", "whcalc.falg._face_horns",
            "whcalc.falg._contractible_keys",
            "whcalc.simplicial._collapses_to_point",
            "whcalc.lens.reidemeister_torsion"} <= set(sizes)
    assert {name: n for name, n in sizes.items() if n} == {}


def test_cli_import_set():
    loaded = set(_fresh_interpreter(STARTUP_SCRIPT))
    # perfbench's cold check fails a cli-mix repetition unless the lru
    # caches of these modules are loaded once ``whcalc.cli`` is imported
    assert {"whcalc.falg", "whcalc.abelian", "whcalc.simplicial"} <= loaded
    # the rest load per subcommand, so commands that need none skip them
    assert loaded.isdisjoint({"whcalc.groupring", "whcalc.ktheory",
                              "whcalc.lens", "whcalc.torsion", "fractions"})
    # importing dataclasses and compiling each generated class took about
    # a third of what ``import whcalc.cli`` adds to a bare interpreter; no
    # whcalc module, eager or loaded per subcommand, may bring it back
    assert "dataclasses" not in loaded
    assert "dataclasses" not in _fresh_interpreter(ALL_MODULES_SCRIPT)
