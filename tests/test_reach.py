"""Every function of ``src/whcalc`` serves a command or a workload.

A line of the package stays only if removing it would change an output,
a check or a measured number.  This test runs, in one fresh interpreter
under ``sys.setprofile``, everything the package is for:

- every golden command of ``test_golden.py``, with ``--json`` and in
  text mode;
- every command of the benchmark's ``cli-mix`` workload at seed 0 and
  smoke size (``cli_commands(0, "smoke")``);
- the smoke-size operations of the ``homotopy-sweep`` and
  ``functor-checks`` workloads.

Commands run in process, through ``whcalc.cli.main``, with their output
captured.  The child prints the functions it entered; the test fails on
any function of ``src/whcalc`` that none of them reached and that
``ALLOWED`` does not name with its reason, and on an ``ALLOWED`` entry
that is reached or names no function.  A function is a named ``def`` of
a source file, nested ones included; lambdas and comprehensions are not
counted.  Test-only model code lives in ``tests/_oracles.py``.

The child runs the suite's own cases in a separate process, so the lru
caches of the process running the tests stay untouched.  Run it by hand
to list the unreached functions:

    PYTHONPATH=src python tests/test_reach.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "whcalc"
WORKLOADS = ROOT / "perfbench" / "workloads.py"

TRACED = "a span of perfbench/tracer.py binds it"
HELPER = "reached only from a name that perfbench/tracer.py binds"
ITEM_18 = "the power-residue characters will run it (ROADMAP item 18)"
REFUSAL = "refuses a change to a frozen value"
PROTOCOL = "value protocol: equality, hashing, repr or the group law"

# Functions that stay though nothing above reaches them, by module and
# qualified name, each with its reason.
ALLOWED = {
    # names the benchmark's tracer binds, and helpers only they reach
    "abelian.InvolutiveAbelianGroup.act": TRACED,
    "abelian.InvolutiveAbelianGroup.is_zero_element": TRACED,
    "falg.TorsionFunctor.value_on": TRACED,
    "falg.TorsionFunctor._combine": HELPER,
    "falg.mixed_duality_holds": TRACED,
    "falg._pure_boundary": HELPER,
    "falg.TorsionFunctor.pair_value": HELPER,
    "torsion.inertial_twist": TRACED,
    "torsion.basepoint_change_torsion": TRACED,
    "ktheory.localize": TRACED,
    "ktheory.away_part": TRACED,
    "ktheory._split": HELPER,
    "lattice.Solver.solve": TRACED,
    "lattice.Solver.__init__": HELPER,
    # the two value groups of the torsion formulas
    "torsion.UnitClassValues.__init__": ITEM_18,
    "torsion.UnitClassValues.zero": ITEM_18,
    "torsion.UnitClassValues.add": ITEM_18,
    "torsion.UnitClassValues.neg": ITEM_18,
    "torsion.UnitClassValues.conj": ITEM_18,
    "torsion.UnitClassValues.twist": ITEM_18,
    "torsion.ModuleValues.__init__": ITEM_18,
    "torsion.ModuleValues.add": ITEM_18,
    "torsion.ModuleValues.neg": ITEM_18,
    "torsion.ModuleValues.conj": ITEM_18,
    "torsion.ModuleValues.twist": ITEM_18,
    # refusals
    "_value.Frozen.__setattr__": REFUSAL,
    "_value.Frozen.__delattr__": REFUSAL,
    # the value protocol
    "_value.Record.__eq__": PROTOCOL,
    "_value.Record.__repr__": PROTOCOL,
    "_value.Record._values": PROTOCOL,
    "falg.TorsionFunctor.__eq__": PROTOCOL,
    "falg.TorsionFunctor.__hash__": PROTOCOL,
    "falg.TorsionFunctor.__repr__": PROTOCOL,
    "falg.TorsionFunctor.values": PROTOCOL,
    "falg.TorsionFunctor.zero": PROTOCOL,
    "falg.TorsionFunctor._binary": PROTOCOL,
    "falg.TorsionFunctor.__add__": PROTOCOL,
    "falg.TorsionFunctor.__sub__": PROTOCOL,
    "falg.TorsionFunctor.__neg__": PROTOCOL,
    "falg.FAlgElement.zero": PROTOCOL,
    "falg.FAlgElement.__add__": PROTOCOL,
    "falg.FAlgElement.__sub__": PROTOCOL,
    "falg.FAlgElement.__neg__": PROTOCOL,
    "groupring.GroupRingElement.__add__": PROTOCOL,
    "groupring.GroupRingElement.__neg__": PROTOCOL,
}


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_functions():
    """``{(file, first line, name): "module.qualname"}`` for every named
    function of the package's sources, from their compiled code."""
    out = {}

    def walk(code, module, prefix):
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            name = const.co_name
            if name.startswith("<"):  # a lambda or a comprehension
                walk(const, module, prefix)
                continue
            # a class body runs once, at import: only its methods count
            if const.co_flags & inspect.CO_OPTIMIZED:
                out[const.co_filename, const.co_firstlineno,
                    name] = module + "." + prefix + name
            walk(const, module, prefix + name + ".")

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        code = compile(path.read_text(), str(path), "exec")
        walk(code, module.removesuffix(".__init__"), "")
    return out


def unreached(reached):
    """The package functions whose ``[file, first line, name]`` is not
    in ``reached``, by qualified name."""
    reached = {tuple(key) for key in reached}
    return sorted(name for key, name in package_functions().items()
                  if key not in reached)


def trace():
    """Run every command and workload operation under ``sys.setprofile``
    and return the ``[file, first line, name]`` of every package
    function entered."""
    sys.path.insert(0, str(HERE))
    from test_golden import CASES
    from whcalc import cli

    workloads = load_workloads()
    argvs = [argv for case in CASES
             for argv in (case, [w for w in case if w != "--json"])]
    argvs += [cmd["argv"] for cmd in workloads.cli_commands(0, "smoke")]
    codes = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
        for name in ("homotopy-sweep", "functor-checks"):
            for _label, thunk in workloads.worker_ops(name, 0, "smoke"):
                thunk()
    finally:
        sys.setprofile(None)
    root = str(PACKAGE)
    return sorted([c.co_filename, c.co_firstlineno, c.co_name]
                  for c in codes if c.co_filename.startswith(root))


def run_child():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__, "--json"],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_function_is_reached_or_allowed():
    missed = unreached(run_child())
    # an entry that is reached, or that names no function, is stale
    stale = sorted(set(ALLOWED) - set(missed))
    assert not stale, f"allow-list entries reached or gone: {stale}"
    bare = [name for name in missed if name not in ALLOWED]
    assert not bare, f"reached by no command or workload: {bare}"


if __name__ == "__main__":
    reached = trace()
    if sys.argv[1:] == ["--json"]:
        print(json.dumps(reached))
    else:
        print("\n".join(unreached(reached)))
