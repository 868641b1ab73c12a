"""Importing the CLI must leave every module-level lru cache empty.

The benchmark refuses a repetition whose ``whcalc`` caches are already
filled when it starts, since that work would go unmeasured; a plan
computed at import time would therefore fail every benchmark run.  This
test looks at a fresh interpreter the same way: every module-level
object with ``cache_info`` defined in a ``whcalc`` module.  The CLI
imports some modules only when a command needs them, so the scan first
imports every ``whcalc`` module to see their caches too.

The CLI also freezes the heap it starts with (``gc.freeze``), and only
the CLI: a fresh interpreter shows whether importing it, or every other
``whcalc`` module, leaves more frozen than a bare interpreter starts
with.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

IMPORT_ALL = """
import importlib, json, pkgutil, sys
import whcalc, whcalc.cli
for info in pkgutil.walk_packages(whcalc.__path__, "whcalc."):
    importlib.import_module(info.name)
"""

CACHE_SIZES = """
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

SCRIPT = IMPORT_ALL + CACHE_SIZES

# perfbench's worker builds its targets before it checks that its caches
# are cold, so a target's Smith basis must not live in an lru cache
BUILD_TARGETS = """
from whcalc.abelian import InvolutiveAbelianGroup
targets = [
    InvolutiveAbelianGroup.from_factors([2, 3], -1),
    InvolutiveAbelianGroup.from_factors([0, 4]),
    InvolutiveAbelianGroup.from_dict({"generators": 2,
                                      "relations": [[3, 0], [0, 3]],
                                      "involution": [[0, 1], [1, 0]]}),
    InvolutiveAbelianGroup.from_dict({"generators": 0}),
]
targets += [a.parity_action(d) for a in targets for d in (1, 2)]
assert all(len(a.smith_basis[0]) == a.generator_count for a in targets)
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

CLI_CACHE_MODULES_SCRIPT = """
import json, sys
import whcalc.cli
print(json.dumps(sorted({
    name for name, mod in sys.modules.items()
    if mod is not None and (name == "whcalc" or name.startswith("whcalc."))
    and any(hasattr(v, "cache_info") and getattr(v, "__module__", None) == name
            for v in vars(mod).values())})))
"""

CLI_GC_SCRIPT = """
import gc, json
import whcalc.cli
print(json.dumps([gc.get_freeze_count(), gc.isenabled()]))
"""

GROUPRING_IMPORTS_SCRIPT = """
import json, sys
import whcalc.groupring
print(json.dumps(sorted(sys.modules)))
"""

COMMAND_IMPORTS_SCRIPT = """
import contextlib, io, json, sys
import whcalc.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = whcalc.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""

# the freeze count of an interpreter that imports nothing of whcalc: 0 on
# most versions, but a bare Python 3.12 starts with a few hundred objects
# frozen, with -S and -I too
BARE_GC_SCRIPT = """
import gc, json
print(json.dumps(gc.get_freeze_count()))
"""

LIBRARY_GC_SCRIPT = """
import gc, importlib, json, pkgutil
import whcalc
for info in pkgutil.walk_packages(whcalc.__path__, "whcalc."):
    if info.name != "whcalc.cli":
        importlib.import_module(info.name)
print(json.dumps(gc.get_freeze_count()))
"""


def _fresh_interpreter(script, *args, flags=()):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, *flags, "-c", script, *args],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out)


def test_caches_are_cold_after_import():
    sizes = _fresh_interpreter(SCRIPT)
    # the scan sees the caches it is meant to guard
    assert {"whcalc.falg._complex_form",
            "whcalc.falg._compiled_duality", "whcalc.falg._duality_form",
            "whcalc.falg._face_horns", "whcalc.falg._presolve",
            "whcalc.simplicial._collapses_to_point",
            "whcalc.lens.simple_degrees"} <= set(sizes)
    assert {name: n for name, n in sizes.items() if n} == {}


def test_building_targets_fills_no_cache():
    sizes = _fresh_interpreter(IMPORT_ALL + BUILD_TARGETS + CACHE_SIZES)
    assert "whcalc.abelian._norm_subquotient" in sizes
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


def test_kapp_commands_skip_the_group_ring():
    # ``ktheory`` needs only the primality test, which lives in
    # ``lattice``, and no group ring; no whcalc module imports
    # ``fractions`` or ``decimal``.  Its citations are constants, so no
    # package resource is read either; ``-S`` keeps a ``.pth`` file of
    # site-packages from loading these modules first
    for argv in (["kapp", "tor", "--p", "7", "--i", "2"],
                 ["kapp", "k3", "--p", "7"]):
        code, loaded = _fresh_interpreter(COMMAND_IMPORTS_SCRIPT, *argv,
                                          flags=["-S"])
        assert code == 0
        assert "whcalc.ktheory" in loaded
        assert not {"whcalc.groupring", "fractions", "importlib.resources",
                    "zipfile", "pathlib"} & set(loaded), argv


def test_groupring_loads_no_kernel():
    # the group ring is pure coefficient arithmetic: importing it loads
    # neither ``lattice`` nor ``_snf``
    loaded = _fresh_interpreter(GROUPRING_IMPORTS_SCRIPT)
    assert [name for name in loaded if name.startswith("whcalc")] == \
        ["whcalc", "whcalc._value", "whcalc.groupring"]


def test_only_the_cli_freezes_the_start_up_heap():
    # the entry point freezes what is alive after its imports, so neither
    # later collections nor the final one at shutdown walk it again, and
    # leaves the collector on for what the command allocates
    bare = _fresh_interpreter(BARE_GC_SCRIPT)
    frozen, enabled = _fresh_interpreter(CLI_GC_SCRIPT)
    assert frozen > bare
    assert enabled
    # a library module must not change the collector of its importer
    assert _fresh_interpreter(LIBRARY_GC_SCRIPT) == bare


def _cold_modules():
    """``COLD_MODULES`` of ``perfbench/run.py``, read from its source."""
    run_py = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    for node in ast.parse(run_py.read_text()).body:
        if isinstance(node, ast.Assign) \
                and any(getattr(t, "id", None) == "COLD_MODULES"
                        for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no COLD_MODULES")


def test_every_cold_module_keeps_an_lru_cache():
    # the benchmark refuses every repetition unless each of these modules
    # shows at least one lru cache once ``whcalc.cli`` is imported, so
    # deleting a module's last cache must fail here, not only there
    cold = _cold_modules()
    assert cold
    assert cold <= set(_fresh_interpreter(CLI_CACHE_MODULES_SCRIPT))
