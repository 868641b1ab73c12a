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


def test_every_traced_name_resolves():
    missing = []
    for mod_name, attr, _span in load_tracer().SPANS:
        obj = importlib.import_module(mod_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{mod_name}.{attr}")
    assert not missing, missing
