"""Every entry point the benchmark's span tracer wraps must still exist.

``perfbench/tracer.py`` binds its spans by module and attribute name, so
a refactor that renames or drops one of them breaks only the traced
benchmark run; this test makes it break the test suite as well.  The
tracer is loaded from its file, without installing it.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def missing(names):
    """The ``(module, dotted attribute)`` pairs that name no callable."""
    out = []
    for mod_name, attr in names:
        obj = importlib.import_module(mod_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            out.append(f"{mod_name}.{attr}")
    return out


def test_every_traced_name_resolves():
    names = [(mod_name, attr) for mod_name, attr, _span in load_tracer().SPANS]
    assert not missing(names), missing(names)


# ``install`` binds these by name too, outside ``SPANS``
OTHER_BINDINGS = [
    ("whcalc.lattice", "Solver.solve"),
    ("whcalc._snf", "pure.smith"),
    ("whcalc.falg", "FAlgGroup.elements"),
    ("whcalc.simplicial", "_collapses_to_point"),
]


def test_every_other_bound_name_resolves():
    assert not missing(OTHER_BINDINGS), missing(OTHER_BINDINGS)
    # the collapse hit ratio reads this cache's statistics
    simplicial = importlib.import_module("whcalc.simplicial")
    assert callable(simplicial._collapses_to_point.cache_info)
